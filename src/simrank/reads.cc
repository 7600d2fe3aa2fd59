#include "simrank/reads.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <vector>

#include "util/failpoint.h"
#include "util/logging.h"

namespace crashsim {

Status ReadsOptions::Validate() const {
  if (!(c > 0.0 && c < 1.0)) {
    return InvalidArgumentError("READS decay factor c must be in (0, 1)");
  }
  if (r < 1) return InvalidArgumentError("READS r must be >= 1");
  if (t < 1) return InvalidArgumentError("READS t must be >= 1");
  if (r_q < 0 || r_q > r) {
    return InvalidArgumentError("READS r_q must be in [0, r]");
  }
  return OkStatus();
}

Reads::Reads(const ReadsOptions& options)
    : options_(options), sqrt_c_(std::sqrt(options.c)), rng_(options.seed) {
  const Status valid = options.Validate();
  CRASHSIM_CHECK(valid.ok()) << valid;
}

void Reads::Bind(const Graph* g) {
  const Status valid = options_.Validate();
  CRASHSIM_CHECK(valid.ok()) << valid;
  set_graph(g);
  const size_t n = static_cast<size_t>(g->num_nodes());
  next_.assign(static_cast<size_t>(options_.r) * n, -1);
  for (NodeId v = 0; v < g->num_nodes(); ++v) ResampleNode(v);
}

void Reads::ResampleNode(NodeId v) {
  const Graph& g = *graph();
  const auto in = g.InNeighbors(v);
  const size_t n = static_cast<size_t>(g.num_nodes());
  for (int j = 0; j < options_.r; ++j) {
    NodeId& slot = next_[static_cast<size_t>(j) * n + static_cast<size_t>(v)];
    if (in.empty() || !rng_.Bernoulli(sqrt_c_)) {
      slot = -1;
    } else {
      slot = in[rng_.NextBounded(in.size())];
    }
  }
}

void Reads::ApplyDelta(const EdgeDelta& delta, const Graph* updated) {
  set_graph(updated);
  // Only I(dst) changes for each event; repair those pointers. Resampling
  // consumes the shared rng_ stream, so the dirty nodes must be visited in a
  // deterministic order — sorted ascending, not hash order — or the post-delta
  // scores would depend on how the delta happened to hash (bit-identity
  // contract, DESIGN.md §3b).
  std::vector<NodeId> dirty;
  dirty.reserve(delta.added.size() + delta.removed.size());
  for (const Edge& e : delta.added) dirty.push_back(e.dst);
  for (const Edge& e : delta.removed) dirty.push_back(e.dst);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (NodeId v : dirty) ResampleNode(v);
}

PartialResult Reads::SingleSourceImpl(NodeId u, QueryContext* ctx) {
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
  const size_t n = static_cast<size_t>(g.num_nodes());
  const int steps = options_.t;
  result.trials_target = g.num_nodes();
  result.scores.assign(n, 0.0);

  // Source paths first (they consume the member RNG); the chases afterwards
  // are deterministic index reads.
  std::vector<NodeId> path(static_cast<size_t>(options_.r) *
                               static_cast<size_t>(steps + 1),
                           -1);
  for (int j = 0; j < options_.r; ++j) {
    NodeId* row = path.data() + static_cast<size_t>(j) * (steps + 1);
    row[0] = u;
    NodeId cur = u;
    for (int k = 1; k <= steps; ++k) {
      NodeId nxt;
      if (j < options_.r_q) {
        const auto in = g.InNeighbors(cur);
        if (in.empty() || !rng_.Bernoulli(sqrt_c_)) {
          nxt = -1;
        } else {
          nxt = in[rng_.NextBounded(in.size())];
        }
      } else {
        nxt = next_[static_cast<size_t>(j) * n + static_cast<size_t>(cur)];
      }
      row[k] = nxt;
      if (nxt < 0) break;
      cur = nxt;
    }
  }

  // Candidate sweep with a checkpoint every kChunk candidates. The first
  // chunk always completes, so even an expired deadline yields a non-empty
  // partial prefix.
  constexpr NodeId kChunk = 256;
  const double inv_r = 1.0 / static_cast<double>(options_.r);
  NodeId scored = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v > 0 && v % kChunk == 0) {
      if (ctx != nullptr) {
        if (Status s = ctx->Check(); !s.ok()) {
          result.status = s;
          break;
        }
      }
      if (Status s = CRASHSIM_FAILPOINT("reads.chunk"); !s.ok()) {
        result.status = s;
        break;
      }
    }
    if (v != u) {
      int meets = 0;
      for (int j = 0; j < options_.r; ++j) {
        const NodeId* row = path.data() + static_cast<size_t>(j) * (steps + 1);
        NodeId cur = v;
        for (int k = 1; k <= steps; ++k) {
          cur = next_[static_cast<size_t>(j) * n + static_cast<size_t>(cur)];
          if (cur < 0) break;
          const NodeId su = row[k];
          if (su < 0) break;
          if (su == cur) {
            ++meets;
            break;
          }
        }
      }
      result.scores[static_cast<size_t>(v)] =
          static_cast<double>(meets) * inv_r;
    }
    scored = v + 1;
    if (ctx != nullptr && (scored % kChunk == 0 || scored == g.num_nodes())) {
      ctx->ReportTrials(scored, g.num_nodes());
    }
  }
  result.scores[static_cast<size_t>(u)] = 1.0;
  result.trials_done = scored;
  return result;
}

int64_t Reads::IndexBytes() const {
  return static_cast<int64_t>(next_.size() * sizeof(NodeId));
}

namespace {
constexpr uint32_t kReadsIndexMagic = 0x52454144;  // "READ"
constexpr uint32_t kReadsIndexVersion = 1;

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}
}  // namespace

void Reads::SaveIndex(std::ostream& out) const {
  CRASHSIM_CHECK(graph() != nullptr) << "SaveIndex requires a bound graph";
  WritePod(out, kReadsIndexMagic);
  WritePod(out, kReadsIndexVersion);
  WritePod(out, static_cast<int32_t>(options_.r));
  WritePod(out, static_cast<int32_t>(options_.t));
  WritePod(out, graph()->num_nodes());
  out.write(reinterpret_cast<const char*>(next_.data()),
            static_cast<std::streamsize>(next_.size() * sizeof(NodeId)));
}

bool Reads::LoadIndex(std::istream& in, std::string* error) {
  CRASHSIM_CHECK(graph() != nullptr) << "LoadIndex requires a bound graph";
  uint32_t magic = 0;
  uint32_t version = 0;
  int32_t r = 0;
  int32_t t = 0;
  NodeId n = 0;
  if (!ReadPod(in, &magic) || magic != kReadsIndexMagic) {
    *error = "not a READS index (bad magic)";
    return false;
  }
  if (!ReadPod(in, &version) || version != kReadsIndexVersion) {
    *error = "unsupported READS index version";
    return false;
  }
  if (!ReadPod(in, &r) || !ReadPod(in, &t) || !ReadPod(in, &n)) {
    *error = "truncated READS index header";
    return false;
  }
  if (r != options_.r || n != graph()->num_nodes()) {
    *error = "READS index shape mismatch (r or node count differ)";
    return false;
  }
  std::vector<NodeId> loaded(static_cast<size_t>(r) * static_cast<size_t>(n));
  in.read(reinterpret_cast<char*>(loaded.data()),
          static_cast<std::streamsize>(loaded.size() * sizeof(NodeId)));
  if (!in) {
    *error = "truncated READS index body";
    return false;
  }
  for (NodeId pointer : loaded) {
    if (pointer < -1 || pointer >= n) {
      *error = "READS index contains out-of-range pointers";
      return false;
    }
  }
  options_.t = t;
  next_ = std::move(loaded);
  return true;
}

}  // namespace crashsim
