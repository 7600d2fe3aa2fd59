#include "check.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/crashsim_t.h"
#include "serve/json.h"
#include "simrank/monte_carlo.h"
#include "util/top_k.h"

namespace perfbench {

using crashsim::NodeId;

namespace {

// Runs fn(state, i) for i in [0, n) on up to four threads, each with its
// own state from init() (engines are not safe to share across threads).
template <typename Init, typename Fn>
void ParallelEach(size_t n, Init init, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t count = std::min<size_t>(4, n);
  for (size_t t = 0; t < count; ++t) {
    threads.emplace_back([&] {
      auto state = init();
      for (size_t i = next++; i < n; i = next++) fn(state, i);
    });
  }
  for (std::thread& t : threads) t.join();
}

crashsim::TemporalQuery ToQuery(const TemporalSpec& s, NodeId source) {
  crashsim::TemporalQuery q;
  q.kind = s.kind;
  q.source = source;
  q.begin_snapshot = s.begin;
  q.end_snapshot = s.end;
  q.theta = s.theta;
  q.trend_tolerance = s.tolerance;
  return q;
}

// The server's selection: the k best non-source nodes, ties to the smaller
// internal id.
Expected SelectTopK(const std::vector<double>& scores, NodeId source, int k,
                    const std::vector<int64_t>& original_ids) {
  crashsim::TopK<NodeId> selector(static_cast<size_t>(k));
  for (NodeId v = 0; v < static_cast<NodeId>(scores.size()); ++v) {
    if (v != source) selector.Offer(scores[static_cast<size_t>(v)], v);
  }
  Expected e;
  for (const auto& [score, v] : selector.Sorted()) {
    e.nodes.push_back(original_ids[static_cast<size_t>(v)]);
    e.scores.push_back(score);
  }
  return e;
}

// Largest |scores[i] - unbiased pairwise estimate| over one source's top-k.
double OracleGap(const crashsim::Graph& g, NodeId source,
                 const std::vector<NodeId>& nodes,
                 const std::vector<double>& scores, int64_t trials) {
  crashsim::SimRankOptions o;
  o.trials_override = trials;
  o.seed = 0x0c7ac1e5ull + static_cast<uint64_t>(source);
  crashsim::PairwiseMonteCarlo oracle(o);
  oracle.Bind(&g);
  const std::vector<double> truth = oracle.Partial(source, nodes);
  double gap = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    gap = std::max(gap, std::abs(scores[i] - truth[i]));
  }
  return gap;
}

}  // namespace

std::map<int64_t, Expected> ReferenceAnswers(const Workload& w,
                                             const Inputs& in,
                                             const RequestPlan& plan,
                                             const std::set<int64_t>& keys) {
  const std::vector<int64_t> todo(keys.begin(), keys.end());
  std::vector<Expected> out(todo.size());
  if (!w.temporal) {
    const auto dense = DenseIds(in.graph.original_ids);
    ParallelEach(
        todo.size(),
        [&] {
          auto engine = std::make_unique<crashsim::CrashSim>(EngineOptions(w));
          engine->Bind(&in.graph.graph);
          return engine;
        },
        [&](auto& engine, size_t i) {
          const NodeId u = dense.at(todo[i]);
          out[i] = SelectTopK(engine->SingleSource(u), u, w.k,
                              in.graph.original_ids);
        });
  } else {
    const crashsim::LoadedTemporalGraph& t = *in.temporal;
    const auto dense = DenseIds(t.original_ids);
    crashsim::CrashSimTOptions options;
    options.crashsim = EngineOptions(w);
    ParallelEach(
        todo.size(), [] { return 0; },
        [&](int, size_t i) {
          const TemporalSpec& s = plan.pool()[static_cast<size_t>(todo[i])];
          crashsim::CrashSimT engine(options);
          const crashsim::TemporalAnswer a =
              engine.Answer(t.graph, ToQuery(s, dense.at(s.source)));
          for (const NodeId v : a.nodes) {
            out[i].nodes.push_back(t.original_ids[static_cast<size_t>(v)]);
          }
          out[i].snapshots = a.stats.snapshots_processed;
        });
  }
  std::map<int64_t, Expected> result;
  for (size_t i = 0; i < todo.size(); ++i) result[todo[i]] = std::move(out[i]);
  return result;
}

int64_t CountFailures(const Workload& w, const std::vector<Sample>& samples,
                      const std::map<int64_t, Expected>& expected,
                      std::string* first_problem) {
  int64_t failures = 0;
  auto fail = [&](const std::string& why) {
    ++failures;
    if (first_problem->empty()) *first_problem = why;
  };
  for (const Sample& s : samples) {
    if (!s.transport_ok) {
      fail("transport failure");
      continue;
    }
    crashsim::StatusOr<crashsim::JsonValue> r =
        crashsim::ParseJson(s.response);
    if (!r.ok() || r->GetString("status", "") != "OK") {
      fail("non-OK response: " + s.response.substr(0, 200));
      continue;
    }
    const auto it = expected.find(s.key);
    if (it == expected.end()) {
      fail("no reference for key " + std::to_string(s.key));
      continue;
    }
    const Expected& e = it->second;
    const crashsim::JsonValue* nodes = r->Find("nodes");
    bool same = nodes != nullptr && nodes->items().size() == e.nodes.size();
    for (size_t i = 0; same && i < e.nodes.size(); ++i) {
      same = nodes->items()[i].as_int() == e.nodes[i];
    }
    if (!w.temporal) {
      const crashsim::JsonValue* scores = r->Find("scores");
      same = same && scores != nullptr &&
             scores->items().size() == e.scores.size();
      for (size_t i = 0; same && i < e.scores.size(); ++i) {
        same = scores->items()[i].as_number() == e.scores[i];
      }
    } else {
      same = same && r->GetInt("snapshots_processed", -1) == e.snapshots;
    }
    if (!same) {
      fail("answer differs from the in-process reference for key " +
           std::to_string(s.key) + ": " + s.response.substr(0, 200));
    }
  }
  return failures;
}

double MaxError(const Workload& w, const Inputs& in, const RequestPlan& plan,
                const std::vector<Sample>& oracle, int64_t* pairs) {
  // One oracle job: a graph, a source and the scores to check.
  struct Job {
    const crashsim::Graph* graph = nullptr;
    NodeId source = 0;
    std::vector<NodeId> nodes;
    std::vector<double> scores;
  };
  std::vector<Job> jobs;
  std::vector<crashsim::Graph> snapshots;
  if (!w.temporal) {
    const auto dense = DenseIds(in.graph.original_ids);
    for (const Sample& s : oracle) {
      crashsim::StatusOr<crashsim::JsonValue> r =
          crashsim::ParseJson(s.response);
      if (!s.transport_ok || !r.ok() || r->Find("nodes") == nullptr ||
          r->Find("scores") == nullptr) {
        continue;  // already counted by CountFailures
      }
      Job job;
      job.graph = &in.graph.graph;
      job.source = dense.at(s.key);
      for (const crashsim::JsonValue& v : r->Find("nodes")->items()) {
        job.nodes.push_back(dense.at(v.as_int()));
      }
      for (const crashsim::JsonValue& v : r->Find("scores")->items()) {
        job.scores.push_back(v.as_number());
      }
      jobs.push_back(std::move(job));
    }
  } else {
    const crashsim::LoadedTemporalGraph& t = *in.temporal;
    const auto dense = DenseIds(t.original_ids);
    snapshots.reserve(plan.oracle_snapshots().size());
    for (const TemporalSpec& s : plan.oracle_snapshots()) {
      snapshots.push_back(t.graph.Snapshot(s.begin));
      Job job;
      job.graph = &snapshots.back();
      job.source = dense.at(s.source);
      jobs.push_back(std::move(job));
    }
    ParallelEach(
        jobs.size(), [] { return 0; },
        [&](int, size_t i) {
          Job& job = jobs[i];
          crashsim::CrashSim engine(EngineOptions(w));
          engine.Bind(job.graph);
          const Expected e = SelectTopK(engine.SingleSource(job.source),
                                        job.source, w.k, t.original_ids);
          for (const int64_t v : e.nodes) job.nodes.push_back(dense.at(v));
          job.scores = e.scores;
        });
  }
  std::vector<double> gaps(jobs.size());
  ParallelEach(
      jobs.size(), [] { return 0; },
      [&](int, size_t i) {
        gaps[i] = OracleGap(*jobs[i].graph, jobs[i].source, jobs[i].nodes,
                            jobs[i].scores, w.oracle_trials);
      });
  *pairs = 0;
  double worst = 0.0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    *pairs += static_cast<int64_t>(jobs[i].nodes.size());
    worst = std::max(worst, gaps[i]);
  }
  return worst;
}

}  // namespace perfbench
