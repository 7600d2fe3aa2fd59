// Durable Top-k SimRank: rank nodes by their *minimum* similarity to a
// source across a whole query interval — the library's extension query
// (core/durable_topk.h). Compares the durable ranking against the
// final-snapshot instantaneous ranking to show how they differ: nodes that
// spike late rank high instantaneously but poorly durably.
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/durable_topk.h"
#include "datasets/datasets.h"
#include "util/string_util.h"
#include "util/top_k.h"

int main() {
  using namespace crashsim;

  const Dataset ds = MakeDataset("as733", 0.02, /*snapshots_override=*/15,
                                 /*seed=*/3);
  std::printf("network: %d nodes, %lld edges, %d snapshots\n\n", ds.spec.nodes,
              static_cast<long long>(ds.spec.edges), ds.spec.snapshots);

  CrashSimOptions options;
  options.mc.c = 0.6;
  options.mc.trials_override = 4000;
  options.mc.seed = 11;
  options.mode = RevReachMode::kCorrected;

  DurableTopKQuery query;
  query.source = 10;
  query.begin_snapshot = 0;
  query.end_snapshot = 14;
  query.k = 8;

  CrashSimDurableTopK durable_engine(options);
  const DurableTopKAnswer durable = durable_engine.Answer(ds.temporal, query);

  // Instantaneous ranking on the final snapshot for contrast.
  CrashSim instant(options);
  const Graph last = ds.temporal.Snapshot(ds.temporal.num_snapshots() - 1);
  instant.Bind(&last);
  using Ranking = std::vector<std::pair<double, NodeId>>;
  const Ranking now = SelectTopK<NodeId>(instant.SingleSource(query.source),
                                         query.source,
                                         static_cast<size_t>(query.k));

  std::printf("top-%d by durable similarity (min over %d snapshots) vs by\n"
              "final-snapshot similarity, to node %d:\n\n",
              query.k, ds.spec.snapshots, query.source);
  auto entry = [](const Ranking& list, int i) {
    if (i >= static_cast<int>(list.size())) return std::string("-");
    const auto& [score, node] = list[static_cast<size_t>(i)];
    return StrFormat("node %-5d s=%.4f", node, score);
  };
  std::printf("  %-24s %-24s\n", "durable ranking", "final-snapshot ranking");
  for (int i = 0; i < query.k; ++i) {
    std::printf("  %-24s %-24s\n", entry(durable.result, i).c_str(),
                entry(now, i).c_str());
  }

  int overlap = 0;
  for (const auto& [ds_score, dv] : durable.result) {
    for (const auto& [ns_score, nv] : now) {
      if (dv == nv) ++overlap;
    }
  }
  std::printf("\noverlap between the two rankings: %d of %d — the difference\n"
              "is exactly the set a recommendation engine should treat with\n"
              "care (similar now, but not durably).\n",
              overlap, query.k);
  return 0;
}
