// Quickstart: compute single-source SimRank with CrashSim on the paper's
// 8-node example graph (Fig. 2) and print the most similar nodes.
//
//   $ ./quickstart
//
// Walks through the three core calls of the public API:
//   1. build a Graph,
//   2. configure + bind a CrashSim instance,
//   3. query SingleSource / Partial.
#include <cstdio>

#include "core/crashsim.h"
#include "graph/generators.h"
#include "util/top_k.h"

int main() {
  using namespace crashsim;

  // 1. The paper's running-example graph; any Graph built via GraphBuilder,
  //    the generators, or graph_io works the same way.
  const Graph g = PaperExampleGraph();
  std::printf("graph: %d nodes, %lld directed edges\n", g.num_nodes(),
              static_cast<long long>(g.num_edges()));

  // 2. Configure CrashSim. Corrected mode gives the consistent estimator
  //    (see DESIGN.md §3); epsilon/delta drive the trial count of Theorem 1.
  CrashSimOptions options;
  options.mc.c = 0.6;
  options.mc.epsilon = 0.05;
  options.mc.delta = 0.01;
  options.mc.seed = 2020;
  options.mode = RevReachMode::kCorrected;
  CrashSim crashsim(options);
  // Bind checks the options; a bad one (c = 1.2, epsilon <= 0) comes back
  // as kInvalidArgument.
  if (Status s = crashsim.Bind(&g); !s.ok()) {
    std::fprintf(stderr, "bind: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("l_max = %d, trials = %lld\n", crashsim.LMax(),
              static_cast<long long>(crashsim.TrialsFor(g.num_nodes())));

  // 3a. Full single-source query from node A.
  const NodeId source = 0;  // "A"
  const std::vector<double> scores = crashsim.SingleSource(source);

  TopK<NodeId> top(3);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v != source) top.Offer(scores[static_cast<size_t>(v)], v);
  }
  std::printf("\nnodes most similar to %s:\n", PaperExampleNodeName(source));
  for (const auto& [score, v] : top.Sorted()) {
    std::printf("  %s  s(A,%s) = %.4f\n", PaperExampleNodeName(v),
                PaperExampleNodeName(v), score);
  }

  // 3b. Partial evaluation: score only a candidate subset. This is the
  //     capability CrashSim-T exploits on temporal graphs.
  const std::vector<NodeId> candidates{1, 3};  // B and D
  const std::vector<double> partial = crashsim.Partial(source, candidates);
  std::printf("\npartial query: s(A,B) = %.4f, s(A,D) = %.4f\n", partial[0],
              partial[1]);
  return 0;
}
