#include "workload.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "datasets/datasets.h"
#include "serve/json.h"

namespace perfbench {

using crashsim::JsonValue;
using crashsim::NodeId;
using crashsim::Rng;

std::optional<Workload> FindWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "topk_hot" || name == "topk_cold") {
    // Wiki-Vote stand-in at a quarter of its size (~1800 nodes, ~25k
    // edges): a top-k query samples n_r walks for every node, so walks
    // dominate; the source tree is the rest of a cold query. At full size
    // (7155 nodes) the same walk count spreads its probes over a 4x larger
    // tree and graph, and run-to-run spread on a shared host was 2-3x wider.
    w.dataset = "wiki-vote";
    w.scale = 0.25;
    w.snapshots = 1;
    w.trials = 200;
    w.oracle_sources = 16;
    w.oracle_trials = 20000;
    if (name == "topk_hot") {
      w.clients = 3;  // three clients on two executor slots: real queueing
      w.hot_sources = 16;
    } else {
      w.clients = 2;
      w.cache_mb = 1;  // a few trees; the working set is every source
    }
  } else if (name == "temporal") {
    // AS-733 stand-in over 20 snapshots; every snapshot of a window re-binds
    // the estimator (corrected mode estimates the diagonal each time).
    w.temporal = true;
    w.dataset = "as733";
    w.scale = 0.25;
    w.snapshots = 20;
    w.clients = 2;
    w.trials = 50;
    w.pool = 96;
    w.oracle_sources = 8;
    w.oracle_trials = 20000;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    w.scale = w.temporal ? 0.02 : 0.03;
    w.snapshots = w.temporal ? 5 : 1;
    w.trials = 20;
    w.hot_sources = std::min(w.hot_sources, 3);
    w.pool = std::min(w.pool, 6);
    w.oracle_sources = std::min(w.oracle_sources, 2);
    w.oracle_trials = 2000;
    w.setup_repeats = 2;
  }
  return w;
}

crashsim::CrashSimOptions EngineOptions(const Workload& w) {
  // Mirrors tools/crashsim_serve.cc for the flags ServerArgs passes; every
  // other field keeps its default on both sides.
  crashsim::CrashSimOptions o;
  o.mc.trials_override = w.trials;
  o.mc.seed = 42;
  o.mode = crashsim::RevReachMode::kCorrected;
  o.num_threads = 1;
  o.batch_size = 64;
  return o;
}

crashsim::ExecutorOptions ExecutorOptionsFor(const Workload& w) {
  crashsim::ExecutorOptions o;
  o.max_concurrent = w.max_concurrent;
  o.degrade_at = 0.0;
  return o;
}

std::vector<std::string> ServerArgs(const Workload& w, const Inputs& in,
                                    const std::string& port_file) {
  std::vector<std::string> args = {
      "--graph", in.graph_path,
      "--port", "0",
      "--metrics_port", "-1",
      "--port_file", port_file,
      "--max_concurrent", std::to_string(w.max_concurrent),
      "--degrade_at", "0",
      "--threads", "1",
      "--batch_size", "64",
      "--seed", "42",
      "--trials", std::to_string(w.trials),
      "--cache_mb", std::to_string(w.cache_mb),
  };
  if (!in.temporal_path.empty()) {
    args.push_back("--temporal");
    args.push_back(in.temporal_path);
  }
  return args;
}

namespace {

// Seeded partial Fisher-Yates: the first `count` entries of a permutation.
std::vector<int64_t> Sample(std::vector<int64_t> pool, size_t count, Rng* rng) {
  count = std::min(count, pool.size());
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng->NextBounded(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

}  // namespace

Inputs GenerateInputs(const Workload& w, const std::string& dir) {
  const crashsim::Dataset ds =
      crashsim::MakeDataset(w.dataset, w.scale, w.snapshots);
  Inputs in;
  in.graph_path = dir + "/graph.el";
  {
    std::ofstream out(in.graph_path);
    crashsim::WriteEdgeList(ds.static_graph, out);
    if (!out) throw std::runtime_error("cannot write " + in.graph_path);
  }
  in.graph = OrThrow(crashsim::LoadEdgeListFile(in.graph_path, false),
                     in.graph_path);
  if (w.temporal) {
    in.temporal_path = dir + "/graph.tel";
    {
      std::ofstream out(in.temporal_path);
      crashsim::WriteTemporalEdgeList(ds.temporal, out);
      if (!out) throw std::runtime_error("cannot write " + in.temporal_path);
    }
    in.temporal = OrThrow(
        crashsim::LoadTemporalEdgeListFile(in.temporal_path, false),
        in.temporal_path);
  }
  return in;
}

std::unordered_map<int64_t, NodeId> DenseIds(
    const std::vector<int64_t>& original_ids) {
  std::unordered_map<int64_t, NodeId> out;
  for (size_t i = 0; i < original_ids.size(); ++i) {
    out.emplace(original_ids[i], static_cast<NodeId>(i));
  }
  return out;
}

RequestPlan::RequestPlan(const Workload& w, const Inputs& in, uint64_t seed)
    : w_(w) {
  // The hot source set and the temporal pool are fixed draws, so every seed
  // sends the same mix of query costs; the seed picks the order in which
  // they are sent, and the cold permutation.
  Rng rng(seed ^ 0x5eedbe7c4a11ull);
  Rng fixed_rng(0xf1eed5e7ull);
  Rng oracle_rng(0x0c7ac1e5ull);
  BuildSet(w, in, &rng, &fixed_rng, &oracle_rng);
  const size_t set = w.temporal ? pool_.size() : sources_.size();
  if (!w.temporal && w.hot_sources == 0) {
    for (size_t i = 0; i < set; ++i) order_.push_back(i);
    return;
  }
  std::vector<size_t> round(set);
  for (size_t i = 0; i < set; ++i) round[i] = i;
  while (order_.size() < kOrderLength) {
    for (size_t i = set - 1; i > 0; --i) {
      std::swap(round[i], round[rng.NextBounded(i + 1)]);
    }
    order_.insert(order_.end(), round.begin(), round.end());
  }
}

void RequestPlan::BuildSet(const Workload& w, const Inputs& in, Rng* rng,
                           Rng* fixed_rng, Rng* oracle_rng) {
  if (!w.temporal) {
    // Sources with at least one in-neighbour (others score 0 everywhere).
    std::vector<int64_t> eligible;
    const crashsim::Graph& g = in.graph.graph;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.InDegree(v) > 0) {
        eligible.push_back(in.graph.original_ids[static_cast<size_t>(v)]);
      }
    }
    oracle_sources_ = Sample(eligible, static_cast<size_t>(w.oracle_sources),
                             oracle_rng);
    sources_ = w.hot_sources > 0
                   ? Sample(std::move(eligible),
                            static_cast<size_t>(w.hot_sources), fixed_rng)
                   : Sample(std::move(eligible),
                            std::numeric_limits<size_t>::max(), rng);
    return;
  }
  // Temporal sources: the best-connected tenth of the final snapshot, so a
  // window's candidate set survives past its first snapshot.
  const crashsim::LoadedTemporalGraph& t = *in.temporal;
  const crashsim::Graph last = t.graph.Snapshot(t.graph.num_snapshots() - 1);
  std::vector<std::pair<int32_t, int64_t>> by_degree;
  for (NodeId v = 0; v < last.num_nodes(); ++v) {
    by_degree.emplace_back(-last.InDegree(v),
                           t.original_ids[static_cast<size_t>(v)]);
  }
  std::sort(by_degree.begin(), by_degree.end());
  std::vector<int64_t> top;
  const size_t keep = std::max<size_t>(by_degree.size() / 10, 8);
  for (size_t i = 0; i < std::min(keep, by_degree.size()); ++i) {
    top.push_back(by_degree[i].second);
  }
  const int snapshots = t.graph.num_snapshots();
  for (int i = 0; i < w.pool; ++i) {
    TemporalSpec q;
    q.source = top[fixed_rng->NextBounded(top.size())];
    // Kinds cycle with i; sources and window starts are fixed draws.
    const int len = std::min(snapshots, w.window);
    q.begin = static_cast<int>(fixed_rng->UniformInt(0, snapshots - len));
    q.end = q.begin + len - 1;
    q.kind = kWireKinds[i % 3].second;
    q.theta = 0.01;
    q.tolerance = 0.02;
    pool_.push_back(q);
  }
  for (int i = 0; i < w.oracle_sources; ++i) {
    TemporalSpec q;
    q.source = top[oracle_rng->NextBounded(top.size())];
    q.begin = q.end = static_cast<int>(oracle_rng->NextBounded(
        static_cast<uint64_t>(snapshots)));
    oracle_snapshots_.push_back(q);
  }
}

Request RequestPlan::TopK(int64_t source) const {
  JsonValue r = JsonValue::Object();
  r.Set("op", JsonValue(std::string("topk")));
  r.Set("source", JsonValue(source));
  r.Set("k", JsonValue(static_cast<int64_t>(w_.k)));
  return {r.Write(), source};
}

Request RequestPlan::Temporal(size_t index) const {
  const TemporalSpec& q = pool_[index];
  JsonValue r = JsonValue::Object();
  r.Set("op", JsonValue(std::string("temporal")));
  r.Set("source", JsonValue(q.source));
  for (const auto& [name, kind] : kWireKinds) {
    if (kind == q.kind) r.Set("kind", JsonValue(std::string(name)));
  }
  r.Set("begin", JsonValue(static_cast<int64_t>(q.begin)));
  r.Set("end", JsonValue(static_cast<int64_t>(q.end)));
  r.Set("theta", JsonValue(q.theta));
  r.Set("tolerance", JsonValue(q.tolerance));
  return {r.Write(), static_cast<int64_t>(index)};
}

Request RequestPlan::Next() {
  const size_t i = order_[next_.fetch_add(1) % order_.size()];
  return w_.temporal ? Temporal(i) : TopK(sources_[i]);
}

std::vector<Request> RequestPlan::OracleRequests() const {
  std::vector<Request> out;
  for (const int64_t s : oracle_sources_) out.push_back(TopK(s));
  return out;
}

std::vector<Request> RequestPlan::WarmUp() const {
  std::vector<Request> out;
  if (!w_.temporal && w_.hot_sources > 0) {
    for (const int64_t s : sources_) out.push_back(TopK(s));
  }
  return out;
}

}  // namespace perfbench
