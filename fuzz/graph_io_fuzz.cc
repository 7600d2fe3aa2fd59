// libFuzzer harness for the graph_io edge-list loaders: arbitrary bytes fed
// through ReadEdgeList and ReadTemporalEdgeList must produce either a
// parsed result that respects the configured limits or a clean Status from
// the documented taxonomy (kInvalidArgument for malformed rows,
// kResourceExhausted for limit breaches) — never a crash, an out-of-range
// id, or silent acceptance of garbage. Both column-strictness modes run on
// every input, for both formats.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_io.h"
#include "util/status.h"

namespace {

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "graph_io_fuzz: %s\n", what);
    std::abort();
  }
}

void RequireTaxonomy(const crashsim::Status& status) {
  const crashsim::StatusCode code = status.code();
  Require(code == crashsim::StatusCode::kInvalidArgument ||
              code == crashsim::StatusCode::kResourceExhausted,
          "loader errors must be kInvalidArgument or kResourceExhausted");
}

crashsim::EdgeListLimits Limits(bool allow_extra_columns) {
  crashsim::EdgeListLimits limits;
  limits.max_nodes = 4096;
  limits.max_edges = 4096;
  limits.allow_extra_columns = allow_extra_columns;
  return limits;
}

void CheckOneMode(const std::string& text, bool allow_extra_columns) {
  const crashsim::EdgeListLimits limits = Limits(allow_extra_columns);
  std::istringstream in(text);
  auto edges = crashsim::ReadEdgeList(in, limits);
  if (!edges.ok()) {
    RequireTaxonomy(edges.status());
    return;
  }
  Require(static_cast<int64_t>(edges.value().size()) <= limits.max_edges,
          "edge count must respect max_edges");
  for (const auto& [src, dst] : edges.value()) {
    Require(src >= 0 && dst >= 0, "accepted ids must be non-negative");
  }
}

void CheckTemporalMode(const std::string& text, bool allow_extra_columns) {
  const crashsim::EdgeListLimits limits = Limits(allow_extra_columns);
  std::istringstream in(text);
  auto loaded =
      crashsim::ReadTemporalEdgeList(in, /*undirected=*/false, limits);
  if (!loaded.ok()) {
    RequireTaxonomy(loaded.status());
    return;
  }
  const crashsim::TemporalGraph& tg = loaded->graph;
  Require(tg.num_snapshots() >= 1, "a loaded temporal graph has a snapshot");
  Require(static_cast<int64_t>(tg.num_nodes()) <= limits.max_nodes,
          "node count must respect max_nodes");
  Require(loaded->original_ids.size() == static_cast<size_t>(tg.num_nodes()),
          "every dense id has an original id");
  for (const int64_t id : loaded->original_ids) {
    Require(id >= 0, "accepted ids must be non-negative");
  }
  for (int t = 0; t < tg.num_snapshots(); ++t) {
    for (const auto* edges : {&tg.Delta(t).added, &tg.Delta(t).removed}) {
      for (const crashsim::Edge& e : *edges) {
        Require(e.src >= 0 && e.src < tg.num_nodes() && e.dst >= 0 &&
                    e.dst < tg.num_nodes(),
                "delta edges must be in range");
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);
  CheckOneMode(text, /*allow_extra_columns=*/false);
  CheckOneMode(text, /*allow_extra_columns=*/true);
  CheckTemporalMode(text, /*allow_extra_columns=*/false);
  CheckTemporalMode(text, /*allow_extra_columns=*/true);
  return 0;
}
