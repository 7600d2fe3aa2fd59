#ifndef CRASHSIM_GRAPH_GRAPH_IO_H_
#define CRASHSIM_GRAPH_GRAPH_IO_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge.h"
#include "graph/graph.h"
#include "graph/temporal_graph.h"
#include "util/status.h"

namespace crashsim {

// Plain-text edge list IO in the SNAP format the paper's datasets ship in:
// one "src dst" pair per line, '#' or '%' comments, arbitrary non-contiguous
// ids (remapped densely on load). Temporal files carry a third column
// "src dst snapshot".
//
// All loaders are strict: every malformed line is rejected with a Status
// whose message pins the line number and the offending token (overflowing
// ids, negative ids, wrong column counts, ...). They never crash and never
// silently accept garbage; see docs/ERRORS.md for the code taxonomy.

// Longest accepted line, in bytes without its '\n'. A longer line is
// kInvalidArgument naming the line, so a file without newlines costs a
// bounded buffer, not a string as long as the file.
inline constexpr size_t kMaxEdgeListLineBytes = size_t{64} << 10;

// Caller-configurable safety rails for untrusted input.
struct EdgeListLimits {
  // Reject files that would materialise more than this many distinct nodes /
  // edge rows (0 = unlimited). Exceeding a limit is kResourceExhausted.
  int64_t max_nodes = 0;
  int64_t max_edges = 0;
  // Accept rows with trailing extra columns (some SNAP exports append
  // weights or timestamps we ignore). Off by default: a static row must have
  // exactly 2 fields and a temporal row exactly 3, so column-count typos
  // fail loudly instead of dropping data.
  bool allow_extra_columns = false;
};

// Result of loading a static edge list.
struct LoadedGraph {
  Graph graph;
  // Maps dense internal NodeId -> original id from the file.
  std::vector<int64_t> original_ids;
};

// Parses "src dst" lines from a stream. Node ids must be non-negative and
// fit in int64 (overflow is a per-line kInvalidArgument, not UB).
[[nodiscard]] StatusOr<std::vector<std::pair<int64_t, int64_t>>> ReadEdgeList(
    std::istream& in, const EdgeListLimits& limits = {});

// Loads a static graph from a file (kNotFound if it cannot be opened).
[[nodiscard]] StatusOr<LoadedGraph> LoadEdgeListFile(
    const std::string& path, bool undirected,
    const EdgeListLimits& limits = {});

// Writes "src dst" lines (dense internal ids).
void WriteEdgeList(const Graph& g, std::ostream& out);

// Result of loading a temporal edge list.
struct LoadedTemporalGraph {
  TemporalGraph graph;
  std::vector<int64_t> original_ids;
};

// Parses "src dst snapshot" lines from a stream; snapshot indices must be
// non-negative and are remapped to dense 0..T-1 preserving order, and each
// snapshot's edge set is *cumulative over listed rows for that snapshot
// only* (i.e. a row states the edge exists in that snapshot). Node ids are
// remapped densely in first-appearance order. A stream with no data rows is
// kInvalidArgument (a temporal graph needs at least one snapshot).
[[nodiscard]] StatusOr<LoadedTemporalGraph> ReadTemporalEdgeList(
    std::istream& in, bool undirected, const EdgeListLimits& limits = {});

// Loads a temporal graph from a file with ReadTemporalEdgeList (kNotFound if
// it cannot be opened).
[[nodiscard]] StatusOr<LoadedTemporalGraph> LoadTemporalEdgeListFile(
    const std::string& path, bool undirected,
    const EdgeListLimits& limits = {});

// Writes one "src dst snapshot" row per edge per snapshot.
void WriteTemporalEdgeList(const TemporalGraph& tg, std::ostream& out);

}  // namespace crashsim

#endif  // CRASHSIM_GRAPH_GRAPH_IO_H_
