#include "simrank/probesim.h"

#include <algorithm>
#include <cmath>

#include "simrank/walk.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/trace.h"

namespace crashsim {

ProbeSim::ProbeSim(const SimRankOptions& options)
    : options_(options),
      sqrt_c_(std::sqrt(options.c)),
      max_walk_length_(options.max_walk_length > 0 ? options.max_walk_length
                                                   : 64),
      rng_(options.seed) {}

void ProbeSim::Bind(const Graph* g) {
  const Status valid = options_.Validate();
  CRASHSIM_CHECK(valid.ok()) << valid;
  set_graph(g);
  const size_t n = static_cast<size_t>(g->num_nodes());
  level_cur_.assign(n, 0.0);
  level_next_.assign(n, 0.0);
  touched_cur_.clear();
  touched_next_.clear();
}

int64_t ProbeSim::TrialsFor(NodeId n) const {
  if (options_.trials_override > 0) return options_.trials_override;
  int64_t nr = ProbeSimTrialCount(options_.c, options_.epsilon, options_.delta, n);
  if (options_.trials_cap > 0) nr = std::min(nr, options_.trials_cap);
  return nr;
}

void ProbeSim::Probe(const std::vector<NodeId>& walk, int i,
                     std::vector<double>* scores) {
  const Graph& g = *graph();
  // Level 0 of the probe sits at walk position i (node walk[i-1], walks are
  // 1-indexed in the paper). Expanding one level moves to walk position
  // i - depth; mass at the walk's own node there is a non-first meeting and
  // is zeroed.
  touched_cur_.clear();
  const NodeId start = walk[static_cast<size_t>(i - 1)];
  level_cur_[static_cast<size_t>(start)] = 1.0;
  touched_cur_.push_back(start);

  for (int depth = 1; depth <= i - 1; ++depth) {
    touched_next_.clear();
    for (NodeId x : touched_cur_) {
      const double mass = level_cur_[static_cast<size_t>(x)];
      level_cur_[static_cast<size_t>(x)] = 0.0;
      if (mass <= prune_threshold_) continue;
      // x = v_{j+1}; its probe successors y = v_j satisfy x in I(y), i.e.
      // y in Out(x). The walk step v_j -> v_{j+1} had probability
      // sqrt(c)/|I(v_j)|.
      for (NodeId y : g.OutNeighbors(x)) {
        const double add =
            mass * sqrt_c_ / static_cast<double>(g.InDegree(y));
        double& slot = level_next_[static_cast<size_t>(y)];
        if (slot == 0.0) touched_next_.push_back(y);
        slot += add;
      }
    }
    // First-meeting exclusion: at this depth the probe is at walk position
    // j = i - depth; a probe walk sitting on walk[j-1] met W(u) earlier.
    const NodeId exclude = walk[static_cast<size_t>(i - depth - 1)];
    level_next_[static_cast<size_t>(exclude)] = 0.0;
    touched_cur_.swap(touched_next_);
    level_cur_.swap(level_next_);
  }

  // Depth i-1 reached: level_cur_ holds P(v, W(u, i)) for v at position 1.
  for (NodeId v : touched_cur_) {
    (*scores)[static_cast<size_t>(v)] += level_cur_[static_cast<size_t>(v)];
    level_cur_[static_cast<size_t>(v)] = 0.0;
  }
}

PartialResult ProbeSim::SingleSourceImpl(NodeId u, QueryContext* ctx) {
  PartialResult result;
  if (Status s = options_.Validate(); !s.ok()) {
    result.status = s;
    return result;
  }
  const Graph& g = *graph();
  if (Status s = ValidateNodeId(u, g.num_nodes(), "source"); !s.ok()) {
    result.status = s;
    return result;
  }
  const NodeId n = g.num_nodes();
  const int64_t full_target = TrialsFor(n);
  int64_t trials = full_target;
  if (ctx != nullptr) {
    const double fraction = ctx->trial_fraction();
    if (fraction < 1.0) {
      trials = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(trials) *
                                  std::max(0.0, fraction)));
    }
  }
  result.trials_target = trials;
  result.scores.assign(static_cast<size_t>(n), 0.0);

  // Trial blocks grow 1, 2, 4, ..., 64, checkpointing the context only
  // *between* blocks (mirrors CrashSim::PartialWithTree): the first
  // checkpoint lands after one trial so an expired deadline still yields a
  // non-empty partial answer, and the member RNG advances sequentially so
  // the partial prefix is bit-identical to a fresh run of trials_done
  // trials.
  std::vector<NodeId> walk;
  int64_t done = 0;
  int64_t block = 1;
  constexpr int64_t kMaxBlock = 64;
  while (done < trials) {
    if (ctx != nullptr && done > 0) {
      if (Status s = ctx->Check(); !s.ok()) {
        result.status = s;
        break;
      }
    }
    if (Status s = CRASHSIM_FAILPOINT("probesim.trial_block"); !s.ok()) {
      result.status = s;
      break;
    }
    const int64_t batch = std::min(block, trials - done);
    TRACE_SPAN("probesim.trial_block");
    for (int64_t k = 0; k < batch; ++k) {
      SampleSqrtCWalk(g, u, sqrt_c_, max_walk_length_, &rng_, &walk);
      for (int i = 2; i <= static_cast<int>(walk.size()); ++i) {
        Probe(walk, i, &result.scores);
      }
    }
    done += batch;
    block = std::min(block * 2, kMaxBlock);
    if (ctx != nullptr) ctx->ReportTrials(done, trials);
  }
  result.trials_done = done;
  if (done > 0) {
    const double inv = 1.0 / static_cast<double>(done);
    for (double& s : result.scores) s *= inv;
    result.scores[static_cast<size_t>(u)] = 1.0;
    // ProbeSim's additive bound scales as 1/sqrt(trials): running `done` of
    // the full_target trials that guarantee options_.epsilon loosens the
    // bound by sqrt(full_target / done).
    result.epsilon_achieved =
        options_.epsilon * std::sqrt(static_cast<double>(full_target) /
                                     static_cast<double>(done));
  }
  return result;
}

}  // namespace crashsim
