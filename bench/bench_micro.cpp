// Component microbenchmarks (google-benchmark): the primitive costs behind
// the paper-level experiments — walk sampling, revReach construction in both
// modes, sparse-tree Probability() lookup throughput (hit and miss paths),
// the corrected-mode d(w) estimate, CrashSim's single-source sweep, a
// ProbeSim trial, SLING/READS index
// construction and queries, the power-method iteration, and snapshot
// materialisation.
//
// Besides the standard --benchmark_* flags, the binary accepts
//   --json <path>       (or --json=<path>)
//   --trace_out <path>  (or --trace_out=<path>)
// --json also writes the results as a stable machine-readable schema: a JSON
// array of {"bench", "n", "m", "ns_per_op", "tree_bytes"} objects (0 for
// fields a benchmark does not populate; a benchmark run with repetitions
// adds its median, see WriteJson). tools/run_benchmarks.sh feeds the
// BENCH_*.json perf trajectory from it. --trace_out runs one instrumented
// CrashSim query AFTER the benchmarks finish (so span recording never
// pollutes the timings) and writes its Chrome trace-event timeline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/crashsim.h"
#include "core/query_context.h"
#include "core/query_stats.h"
#include "core/rev_reach.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/temporal_graph.h"
#include "simrank/power_method.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"
#include "simrank/sling.h"
#include "simrank/walk.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crashsim {
namespace {

const Graph& FixtureGraph(int64_t n) {
  static auto* const cache = new std::map<int64_t, Graph>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    Rng rng(42);
    it = cache->emplace(n, BarabasiAlbert(static_cast<NodeId>(n), 4,
                                          /*undirected=*/false, &rng))
             .first;
  }
  return it->second;
}

void SetGraphCounters(benchmark::State& state, const Graph& g) {
  state.counters["n"] = static_cast<double>(g.num_nodes());
  state.counters["m"] = static_cast<double>(g.num_edges());
}

void BM_SampleSqrtCWalk(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  Rng rng(1);
  std::vector<NodeId> walk;
  NodeId v = 0;
  for (auto _ : state) {
    SampleSqrtCWalk(g, v, 0.7746, 35, &rng, &walk);
    benchmark::DoNotOptimize(walk.data());
    v = static_cast<NodeId>((v + 1) % g.num_nodes());
  }
  state.SetItemsProcessed(state.iterations());
  SetGraphCounters(state, g);
}
BENCHMARK(BM_SampleSqrtCWalk)->Arg(1000)->Arg(10000);

void BM_BuildRevReachPaper(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  int64_t tree_bytes = 0;
  for (auto _ : state) {
    const auto tree =
        BuildRevReach(g, 1, 35, 0.6, RevReachMode::kPaper, 1e-9);
    benchmark::DoNotOptimize(tree.EntryCount());
    tree_bytes = tree.MemoryBytes();
  }
  SetGraphCounters(state, g);
  state.counters["tree_bytes"] = static_cast<double>(tree_bytes);
}
BENCHMARK(BM_BuildRevReachPaper)->Arg(1000)->Arg(10000);

void BM_BuildRevReachCorrected(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  int64_t tree_bytes = 0;
  for (auto _ : state) {
    const auto tree =
        BuildRevReach(g, 1, 35, 0.6, RevReachMode::kCorrected, 1e-9);
    benchmark::DoNotOptimize(tree.EntryCount());
    tree_bytes = tree.MemoryBytes();
  }
  SetGraphCounters(state, g);
  state.counters["tree_bytes"] = static_cast<double>(tree_bytes);
}
BENCHMARK(BM_BuildRevReachCorrected)->Arg(1000)->Arg(10000);

// The gated benches whose single measurements spread wider than the gate:
// the two probe benches, which time a few nanoseconds per op and move with
// code placement, and BM_WalkBatchScalar, the batch-floor denominator, which
// reads 6.6-9.2 ms across single runs of one binary on a shared 4-vCPU host.
// Each runs this many repetitions and --json gates on their median.
constexpr int kGateRepetitions = 9;

void BM_TreeProbabilityHit(benchmark::State& state) {
  // Lookup throughput on cells known to be present, one per level: a row
  // load on dense levels, the branchless search of the slice on sparse
  // ones.
  const Graph& g = FixtureGraph(state.range(0));
  const auto tree =
      BuildRevReach(g, 1, 35, 0.6, RevReachMode::kCorrected, 1e-9);
  std::vector<std::pair<int, NodeId>> probes;
  for (int level = 0; level <= tree.max_level(); ++level) {
    const auto entries = tree.LevelEntries(level);
    if (!entries.empty()) {
      probes.push_back({level, entries[entries.size() / 2].node});
    }
  }
  size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    const auto& [level, v] = probes[i];
    sink += tree.Probability(level, v);
    benchmark::DoNotOptimize(sink);
    // A compare, not `% size`: a 64-bit divide costs about as much as the
    // probe being timed.
    if (++i == probes.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  SetGraphCounters(state, g);
  state.counters["tree_bytes"] = static_cast<double>(tree.MemoryBytes());
}
BENCHMARK(BM_TreeProbabilityHit)
    ->Arg(1000)
    ->Arg(10000)
    ->Repetitions(kGateRepetitions);

void BM_TreeProbabilityMiss(benchmark::State& state) {
  // The common case in trial scoring: a walk step that is NOT in the tree.
  // Probes sweep nodes absent from each level: a row load that reads 0.0f
  // on dense levels, a full search of the slice on sparse ones.
  const Graph& g = FixtureGraph(state.range(0));
  const auto tree =
      BuildRevReach(g, 1, 35, 0.6, RevReachMode::kCorrected, 1e-9);
  std::vector<std::pair<int, NodeId>> probes;
  for (int level = 1; level <= tree.max_level(); ++level) {
    NodeId v = static_cast<NodeId>((7919 * level) % g.num_nodes());
    for (int guard = 0; guard < g.num_nodes(); ++guard) {
      if (tree.Probability(level, v) == 0.0) break;
      v = static_cast<NodeId>((v + 1) % g.num_nodes());
    }
    probes.push_back({level, v});
  }
  size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    const auto& [level, v] = probes[i];
    sink += tree.Probability(level, v);
    benchmark::DoNotOptimize(sink);
    // A compare, not `% size`: a 64-bit divide costs about as much as the
    // probe being timed.
    if (++i == probes.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  SetGraphCounters(state, g);
  state.counters["tree_bytes"] = static_cast<double>(tree.MemoryBytes());
}
BENCHMARK(BM_TreeProbabilityMiss)
    ->Arg(1000)
    ->Arg(10000)
    ->Repetitions(kGateRepetitions);

void BM_EstimateDiagonal(benchmark::State& state) {
  // Corrected mode's d(w) estimate at the default options (100 walk pairs
  // per node, one thread): the Bind cost perfbench reports as
  // crashsim.bind_ms. Reported, not gated.
  const Graph& g = FixtureGraph(state.range(0));
  CrashSimOptions opt;
  opt.mode = RevReachMode::kCorrected;
  const CrashSim algo(opt);
  for (auto _ : state) {
    const SharedDiagonal diag = algo.EstimateDiagonal(g);
    benchmark::DoNotOptimize(diag->data());
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_EstimateDiagonal)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_CrashSimTrialBatch(benchmark::State& state) {
  // 100 trials over a 64-candidate set against a prebuilt tree.
  const Graph& g = FixtureGraph(state.range(0));
  CrashSimOptions opt;
  opt.mc.trials_override = 100;
  CrashSim algo(opt);
  CRASHSIM_CHECK(algo.Bind(&g).ok());
  const auto tree = algo.BuildTree(1);
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < 64; ++v) candidates.push_back(v);
  for (auto _ : state) {
    auto scores = algo.PartialWithTree(tree, candidates, nullptr).scores;
    benchmark::DoNotOptimize(scores.data());
  }
  SetGraphCounters(state, g);
  state.counters["tree_bytes"] = static_cast<double>(tree.MemoryBytes());
}
BENCHMARK(BM_CrashSimTrialBatch)->Arg(1000)->Arg(10000);

// CrashSim's sweep over a prebuilt tree: the full single-source query
// served top-k runs (l_max passes over the in-CSR, every node scored).
// Gated on the median of its repetitions, like the probe benches.
void BM_SingleSourceSweep(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  CrashSimOptions opt;
  opt.mode = RevReachMode::kCorrected;
  CrashSim algo(opt);
  CRASHSIM_CHECK(algo.Bind(&g).ok());
  const auto tree = algo.BuildTree(1);
  for (auto _ : state) {
    auto scores = algo.SweepWithTree(tree, nullptr).scores;
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
  SetGraphCounters(state, g);
  state.counters["tree_bytes"] = static_cast<double>(tree.MemoryBytes());
}
BENCHMARK(BM_SingleSourceSweep)->Arg(10000)->Repetitions(kGateRepetitions);

// The walk-engine trio behind run_benchmarks.sh's batch-speedup gate, all
// on the same TreeProbabilityHit-heavy query workload: 512 candidates, 50
// trials, one prebuilt tree on the 10k fixture (~100k walks, ~350k probes
// per iteration — the mix the QueryStatsProbe blob records for real
// queries).
//
//   BM_WalkBatchScalar  the pre-SoA query loop, reconstructed verbatim: one
//                       walk at a time via SampleSqrtCWalk (per-step
//                       Bernoulli stop on a generic Rng, walk materialised
//                       into a vector) with an immediate probe per
//                       position through FrozenSliceProbe, the tree probe
//                       that shipped with it — kept as the gate's
//                       denominator workload.
//   BM_WalkBatchSoA     the production path: WalkBatchEngine sweeping
//                       256 walks per tile (alias-sampled lengths, one
//                       tree level per step, dense rows or a batched
//                       search per level).
//   BM_WalkBatchLanes   walks-per-tile sweep (including 1 = the engine's
//                       scalar twin used by the differential suite) for
//                       tuning the batch_size default; not gated. The
//                       names predate the step-major kernel and stay, as
//                       the baseline and the CI floor key on them.
//
// The denominator owns its probe so that a faster production
// ReverseReachableTree::Probability() cannot move the ratio on its own. On
// a shared 4-vCPU host (RelWithDebInfo, 4 runs each), a denominator that
// called the dense-row Probability() read 2.2-3.5 ms and a ratio of
// 1.6-2.2x; with FrozenSliceProbe it reads 7.3-8.7 ms and 4.5-6.0x, as the
// bitset-and-search Probability() it froze did (6.6-8.5 ms, 3.8-6.2x).

// The tree probe as it stood when the batch engine replaced the scalar
// loop: every level a sorted Entry slice, levels holding at least n/256
// entries also a membership bitset that rejects a miss in one load, and a
// branchless binary search. Built from LevelEntries(), so it answers
// exactly what the tree does.
class FrozenSliceProbe {
 public:
  explicit FrozenSliceProbe(const ReverseReachableTree& tree) {
    const size_t n = static_cast<size_t>(tree.num_nodes());
    offsets_.push_back(0);
    for (int level = 0; level <= tree.max_level(); ++level) {
      const auto cells = tree.LevelEntries(level);
      entries_.insert(entries_.end(), cells.begin(), cells.end());
      offsets_.push_back(static_cast<int64_t>(entries_.size()));
      if (cells.empty() || cells.size() * 256 < n) {
        bits_offset_.push_back(-1);
        continue;
      }
      bits_offset_.push_back(static_cast<int64_t>(bits_.size()));
      bits_.resize(bits_.size() + (n + 63) / 64, 0);
      uint64_t* bits = bits_.data() + bits_offset_.back();
      for (const auto& e : cells) {
        bits[static_cast<size_t>(e.node) >> 6] |=
            uint64_t{1} << (static_cast<uint64_t>(e.node) & 63);
      }
    }
  }

  double Probability(int level, NodeId v) const {
    if (level < 0 || static_cast<size_t>(level) >= bits_offset_.size()) {
      return 0.0;
    }
    const size_t l = static_cast<size_t>(level);
    const int64_t bits = bits_offset_[l];
    if (bits >= 0 &&
        !((bits_[static_cast<size_t>(bits) + (static_cast<size_t>(v) >> 6)] >>
           (static_cast<uint64_t>(v) & 63)) &
          1)) {
      return 0.0;
    }
    const ReverseReachableTree::Entry* base = entries_.data() + offsets_[l];
    size_t len = static_cast<size_t>(offsets_[l + 1] - offsets_[l]);
    if (len == 0) return 0.0;
    while (len > 1) {
      const size_t half = len / 2;
      base += (base[half - 1].node < v) ? half : 0;
      len -= half;
    }
    return base->node == v ? base->prob : 0.0;
  }

 private:
  std::vector<ReverseReachableTree::Entry> entries_;
  std::vector<int64_t> offsets_;
  std::vector<uint64_t> bits_;
  std::vector<int64_t> bits_offset_;
};

void BM_WalkBatchScalar(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  CrashSimOptions opt;
  CrashSim algo(opt);
  CRASHSIM_CHECK(algo.Bind(&g).ok());
  const FrozenSliceProbe probe(algo.BuildTree(1));
  const int l_max = algo.LMax();
  const double sqrt_c = std::sqrt(opt.mc.c);
  Rng rng(opt.mc.seed);
  std::vector<NodeId> walk;
  std::vector<double> scores(512);
  for (auto _ : state) {
    std::fill(scores.begin(), scores.end(), 0.0);
    for (int64_t trial = 0; trial < 50; ++trial) {
      for (NodeId v = 0; v < 512; ++v) {
        const int len =
            SampleSqrtCWalk(g, v, sqrt_c, l_max + 1, &rng, &walk);
        double score = 0.0;
        for (int pos = 1; pos < len; ++pos) {
          score += probe.Probability(pos, walk[static_cast<size_t>(pos)]);
        }
        scores[static_cast<size_t>(v)] += score;
      }
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * 50 * 512);  // walks sampled
  SetGraphCounters(state, g);
}
BENCHMARK(BM_WalkBatchScalar)->Arg(10000)->Repetitions(kGateRepetitions);

void RunWalkBatchWorkload(benchmark::State& state, int batch_size) {
  const Graph& g = FixtureGraph(state.range(0));
  CrashSimOptions opt;
  opt.mc.trials_override = 50;
  opt.batch_size = batch_size;
  CrashSim algo(opt);
  CRASHSIM_CHECK(algo.Bind(&g).ok());
  const auto tree = algo.BuildTree(1);
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < 512; ++v) candidates.push_back(v);
  for (auto _ : state) {
    auto scores = algo.PartialWithTree(tree, candidates, nullptr).scores;
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * 50 * 512);  // walks sampled
  SetGraphCounters(state, g);
  state.counters["batch"] = static_cast<double>(batch_size);
}

void BM_WalkBatchSoA(benchmark::State& state) {
  RunWalkBatchWorkload(state, /*batch_size=*/256);
}
BENCHMARK(BM_WalkBatchSoA)->Arg(10000);

void BM_WalkBatchLanes(benchmark::State& state) {
  RunWalkBatchWorkload(state, static_cast<int>(state.range(1)));
}
BENCHMARK(BM_WalkBatchLanes)
    ->Args({10000, 1})
    ->Args({10000, 16})
    ->Args({10000, 64})
    ->Args({10000, 1024});

void BM_ProbeSimTrialBatch(benchmark::State& state) {
  // 100 full ProbeSim trials (walk + probes): the per-trial cost CrashSim's
  // design removes.
  const Graph& g = FixtureGraph(state.range(0));
  SimRankOptions mc;
  mc.trials_override = 100;
  ProbeSim algo(mc);
  CRASHSIM_CHECK(algo.Bind(&g).ok());
  for (auto _ : state) {
    auto scores = algo.SingleSource(1);
    benchmark::DoNotOptimize(scores.data());
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_ProbeSimTrialBatch)->Arg(1000)->Arg(10000);

void BM_SlingIndexBuild(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  SimRankOptions mc;
  for (auto _ : state) {
    Sling algo(mc);
    CRASHSIM_CHECK(algo.Bind(&g).ok());
    benchmark::DoNotOptimize(algo.index_stats().reverse_entries);
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_SlingIndexBuild)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_ReadsIndexBuild(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  ReadsOptions ro;
  for (auto _ : state) {
    Reads algo(ro);
    CRASHSIM_CHECK(algo.Bind(&g).ok());
    benchmark::DoNotOptimize(algo.IndexBytes());
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_ReadsIndexBuild)->Arg(1000)->Arg(10000);

void BM_ReadsQuery(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  ReadsOptions ro;
  Reads algo(ro);
  CRASHSIM_CHECK(algo.Bind(&g).ok());
  NodeId u = 0;
  for (auto _ : state) {
    auto scores = algo.SingleSource(u);
    benchmark::DoNotOptimize(scores.data());
    u = static_cast<NodeId>((u + 1) % g.num_nodes());
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_ReadsQuery)->Arg(1000)->Arg(10000);

void BM_PowerMethodIteration(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  for (auto _ : state) {
    const auto m = PowerMethodAllPairs(g, 0.6, 1);
    benchmark::DoNotOptimize(m.At(0, 1));
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_PowerMethodIteration)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_SnapshotCursorSweep(benchmark::State& state) {
  static const TemporalGraph* const tg = [] {
    auto* out = new TemporalGraph(MakeDataset("as733", 0.05, 50, 7).temporal);
    return out;
  }();
  for (auto _ : state) {
    SnapshotCursor cursor(tg);
    int64_t edges = 0;
    do {
      edges += cursor.graph().num_edges();
    } while (cursor.Advance());
    benchmark::DoNotOptimize(edges);
  }
}
BENCHMARK(BM_SnapshotCursorSweep)->Unit(benchmark::kMillisecond);

void BM_GraphBuild(benchmark::State& state) {
  const Graph& g = FixtureGraph(state.range(0));
  const std::vector<Edge> edges = g.Edges();
  for (auto _ : state) {
    const Graph rebuilt = BuildGraph(g.num_nodes(), edges);
    benchmark::DoNotOptimize(rebuilt.num_edges());
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_GraphBuild)->Arg(10000)->Unit(benchmark::kMillisecond);

// Console output as usual, plus a copy of every run for the --json export.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) runs_.push_back(r);
    benchmark::ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

double CounterOrZero(const benchmark::UserCounters& counters,
                     const std::string& key) {
  const auto it = counters.find(key);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

// Every node of g: the candidate set of the walking queries below (a
// SingleSource query would sweep and walk nothing).
std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

// One instrumented CrashSim query whose crashsim.query_stats.v1 blob rides
// along with every --json export, so a perf trajectory can correlate ns/op
// with the trial/tree/hit counts that produced it. Returned as a complete
// array element; the only schema change versus the plain records is the
// additive "query_stats" key.
std::string QueryStatsProbeRecord() {
  const Graph& g = FixtureGraph(1000);
  CrashSimOptions opt;
  opt.mc.trials_override = 200;
  CrashSim algo(opt);
  CRASHSIM_CHECK(algo.Bind(&g).ok());
  QueryContext ctx;
  QueryStats qs;
  ctx.set_stats(&qs);
  const Stopwatch timer;
  const PartialResult result = algo.Partial(1, AllNodes(g), &ctx);
  benchmark::DoNotOptimize(result.trials_done);
  QueryStatsEnvelope env;
  env.query = "bench";
  env.algo = "crashsim";
  env.n = static_cast<int64_t>(g.num_nodes());
  env.m = g.num_edges();
  env.elapsed_seconds = timer.ElapsedSeconds();
  std::string out = "{\"bench\": \"QueryStatsProbe\", \"n\": ";
  out += std::to_string(env.n);
  out += ", \"m\": ";
  out += std::to_string(env.m);
  out += ", \"ns_per_op\": 0, \"tree_bytes\": ";
  out += std::to_string(qs.tree_bytes);
  out += ", \"query_stats\": ";
  out += QueryStatsJson(env, qs);
  out += "}";
  return out;
}

// Stable schema consumed by tools/run_benchmarks.sh: a JSON array of
// {bench, n, m, ns_per_op, tree_bytes}. A benchmark registered with
// repetitions is one record, named without its "/repeats:N" suffix, whose
// ns_per_op is the mean over the repetitions and which adds "repetitions"
// and "ns_per_op_median" (what tools/compare_bench.py gates on). Additive
// changes only.
bool WriteJson(const std::string& path,
               const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open --json path %s\n", path.c_str());
    return false;
  }
  // Per-repetition ns/op of each benchmark, in first-run order; the
  // library's own aggregate runs are skipped.
  std::vector<std::pair<const benchmark::BenchmarkReporter::Run*,
                        std::vector<double>>>
      benches;
  std::map<std::string, size_t> index;
  for (const auto& run : runs) {
    if (run.error_occurred ||
        run.run_type != benchmark::BenchmarkReporter::Run::RT_Iteration) {
      continue;
    }
    const auto [it, added] =
        index.emplace(run.benchmark_name(), benches.size());
    if (added) benches.push_back({&run, {}});
    benches[it->second].second.push_back(
        run.iterations == 0 ? 0.0
                            : run.real_accumulated_time * 1e9 /
                                  static_cast<double>(run.iterations));
  }
  out << "[\n";
  for (auto& [run, ns] : benches) {
    benchmark::BenchmarkName run_name = run->run_name;
    run_name.repetitions.clear();
    std::string name;
    AppendJsonString(run_name.str(), &name);
    double mean = 0.0;
    for (double x : ns) mean += x / static_cast<double>(ns.size());
    out << "  {\"bench\": " << name << ", \"n\": "
        << static_cast<int64_t>(CounterOrZero(run->counters, "n"))
        << ", \"m\": "
        << static_cast<int64_t>(CounterOrZero(run->counters, "m"))
        << ", \"ns_per_op\": " << mean << ", \"tree_bytes\": "
        << static_cast<int64_t>(CounterOrZero(run->counters, "tree_bytes"));
    if (ns.size() > 1) {
      std::sort(ns.begin(), ns.end());
      const size_t mid = ns.size() / 2;
      const double median =
          ns.size() % 2 == 1 ? ns[mid] : (ns[mid - 1] + ns[mid]) / 2.0;
      out << ", \"repetitions\": " << ns.size()
          << ", \"ns_per_op_median\": " << median;
    }
    out << "},\n";
  }
  out << "  " << QueryStatsProbeRecord();
  out << "\n]\n";
  return static_cast<bool>(out);
}

// One traced, walking CrashSim query over every node (num_threads = 2 so
// the pool emits parallel_for.shard spans even on a single-core host),
// exported as Chrome trace-event JSON. Runs after the benchmark loop: no
// collector is installed while anything is being timed.
bool WriteTrace(const std::string& path) {
  RequestTrace trace(/*request_id=*/0, RequestTrace::kRunCapacity);
  {
    const TraceRequestScope scope(&trace);
    const Graph& g = FixtureGraph(1000);
    CrashSimOptions opt;
    opt.mc.trials_override = 200;
    opt.num_threads = 2;
    CrashSim algo(opt);
    CRASHSIM_CHECK(algo.Bind(&g).ok());
    QueryContext ctx;
    const PartialResult result = algo.Partial(1, AllNodes(g), &ctx);
    benchmark::DoNotOptimize(result.trials_done);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open --trace_out path %s\n", path.c_str());
    return false;
  }
  out << ExportChromeTrace(trace);
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace crashsim

int main(int argc, char** argv) {
  // Extract --json <path> / --json=<path> (and --trace_out, same shapes)
  // before google-benchmark sees the command line (it rejects flags it does
  // not own).
  std::string json_path;
  std::string trace_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--trace_out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg.rfind("--trace_out=", 0) == 0) {
      trace_path = arg.substr(12);
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  crashsim::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    if (!crashsim::WriteJson(json_path, reporter.runs())) return 1;
    std::printf("[json written to %s]\n", json_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!crashsim::WriteTrace(trace_path)) return 1;
    std::printf("[trace written to %s]\n", trace_path.c_str());
  }
  return 0;
}
