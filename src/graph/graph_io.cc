#include "graph/graph_io.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <new>
#include <ostream>
#include <string_view>

#include "graph/graph_builder.h"
#include "graph/id_remapper.h"
#include "util/failpoint.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace crashsim {
namespace {

constexpr size_t kBlockBytes = size_t{64} << 10;

// The one edge-list reader. It reads the stream in kBlockBytes blocks,
// splits each line's fields in place and parses them with ParseInt64, so a
// row allocates nothing; only a line that spans two blocks is copied, into
// a carry buffer of at most kMaxEdgeListLineBytes plus one block. Lines are
// what std::getline returns: split at '\n', the last one needs no '\n', and
// a trailing '\r' is whitespace (CRLF files load like LF files).
class RowReader {
 public:
  // Rows must have exactly `want` (<= 3) integer fields, or more with
  // limits.allow_extra_columns; `what` names the row shape in diagnostics.
  RowReader(std::istream& in, size_t want, const char* what,
            const EdgeListLimits& limits)
      : in_(in),
        want_(want),
        what_(what),
        allow_extra_columns_(limits.allow_extra_columns) {}

  // Advances to the next data row, skipping comments and blank lines.
  // Returns false at the end of input or at the first bad line; status()
  // then tells which (OK, the bad line, or DATA_LOSS when the stream failed).
  bool Next() {
    std::string_view line;
    while (NextLine(&line)) {
      bool is_row = false;
      if (!ParseRow(line, &is_row)) return false;
      if (is_row) return true;
    }
    return false;
  }

  // Field i of the current row.
  int64_t operator[](size_t i) const { return values_[i]; }
  int lineno() const { return lineno_; }
  const Status& status() const { return status_; }

 private:
  static constexpr size_t kMaxFields = 3;

  bool NextLine(std::string_view* line) {
    carry_.clear();
    while (true) {
      if (pos_ != end_) {
        const auto avail = static_cast<size_t>(end_ - pos_);
        const auto* nl =
            static_cast<const char*>(std::memchr(pos_, '\n', avail));
        if (nl != nullptr) {
          std::string_view piece(pos_, static_cast<size_t>(nl - pos_));
          pos_ = nl + 1;
          ++lineno_;
          if (!carry_.empty()) {
            carry_.append(piece);
            piece = carry_;
          }
          if (piece.size() > kMaxEdgeListLineBytes) return LineTooLong();
          *line = piece;
          return true;
        }
        carry_.append(pos_, avail);
        pos_ = end_;
        if (carry_.size() > kMaxEdgeListLineBytes) {
          ++lineno_;
          return LineTooLong();
        }
      }
      if (!Refill()) {
        // bad() means the underlying stream failed mid-read (I/O error,
        // truncated device, ...); its unterminated tail is not a line.
        if (in_.bad()) {
          status_ = DataLossError("stream read error before EOF");
          return false;
        }
        if (carry_.empty()) return false;
        ++lineno_;
        *line = carry_;
        return true;
      }
    }
  }

  // Fills the block with up to kBlockBytes. peek() makes the stream's own
  // buffer deliver more bytes (or sets eofbit/badbit), and readsome() copies
  // only bytes already delivered, so when the device fails every byte read
  // before the failure is still parsed, as with std::getline
  // (istream::read would drop a partially filled count).
  bool Refill() {
    // Allocated on first use, inside the callers' bad_alloc boundary.
    if (!block_) block_ = std::make_unique<char[]>(kBlockBytes);
    char* block = block_.get();
    size_t got = 0;
    while (got < kBlockBytes &&
           in_.peek() != std::istream::traits_type::eof()) {
      const std::streamsize n = in_.readsome(
          block + got, static_cast<std::streamsize>(kBlockBytes - got));
      if (n > 0) {
        got += static_cast<size_t>(n);
      } else {
        block[got++] = static_cast<char>(in_.get());  // unbuffered stream
      }
    }
    pos_ = block;
    end_ = block + got;
    return got > 0;
  }

  bool LineTooLong() {
    status_ = InvalidArgumentError(StrFormat(
        "line %d: longer than %zu bytes", lineno_, kMaxEdgeListLineBytes));
    return false;
  }

  // Parses one line into exactly want_ fields, or into none for a comment
  // or blank line (*is_row = false). The column count is checked before any
  // field is parsed. False (with status_ set) on a bad line.
  bool ParseRow(std::string_view line, bool* is_row) {
    std::string_view tokens[kMaxFields];
    size_t count = 0;
    size_t i = 0;
    while (i < line.size() && IsAsciiSpace(line[i])) ++i;
    if (i == line.size() || line[i] == '#' || line[i] == '%') {
      *is_row = false;
      return true;
    }
    while (i < line.size()) {
      const size_t start = i;
      while (i < line.size() && !IsAsciiSpace(line[i])) ++i;
      if (count < want_) tokens[count] = line.substr(start, i - start);
      ++count;
      while (i < line.size() && IsAsciiSpace(line[i])) ++i;
    }
    if (count != want_ && !(allow_extra_columns_ && count > want_)) {
      status_ = InvalidArgumentError(
          StrFormat("line %d: expected '%s' (%zu fields), got %zu field%s",
                    lineno_, what_, want_, count, count == 1 ? "" : "s"));
      return false;
    }
    for (size_t f = 0; f < want_; ++f) {
      if (!ParseInt64(tokens[f], &values_[f])) {
        status_ = InvalidArgumentError(
            StrFormat("line %d: field %zu '%s' is not a valid 64-bit integer "
                      "(overflow or garbage)",
                      lineno_, f + 1, std::string(tokens[f]).c_str()));
        return false;
      }
    }
    *is_row = true;
    return true;
  }

  std::istream& in_;
  const size_t want_;
  const char* const what_;
  const bool allow_extra_columns_;
  std::unique_ptr<char[]> block_;
  const char* pos_ = nullptr;
  const char* end_ = nullptr;
  std::string carry_;
  int lineno_ = 0;
  int64_t values_[kMaxFields] = {};
  Status status_;
};

Status CheckNodeLimit(const IdRemapper& remap, const EdgeListLimits& limits,
                      int lineno) {
  if (limits.max_nodes > 0 &&
      static_cast<int64_t>(remap.size()) > limits.max_nodes) {
    return ResourceExhaustedError(
        StrFormat("line %d: node limit exceeded (max_nodes = %lld)", lineno,
                  static_cast<long long>(limits.max_nodes)));
  }
  return OkStatus();
}

Status CheckEdgeLimit(int64_t edges, const EdgeListLimits& limits,
                      int lineno) {
  if (limits.max_edges > 0 && edges > limits.max_edges) {
    return ResourceExhaustedError(
        StrFormat("line %d: edge limit exceeded (max_edges = %lld)", lineno,
                  static_cast<long long>(limits.max_edges)));
  }
  return OkStatus();
}

// Loader-OOM contract (docs/ROBUSTNESS.md): allocation failure while
// buffering `path` surfaces as kResourceExhausted with the byte counts,
// never as an uncaught std::bad_alloc.
Status LoadOutOfMemoryError(const std::string& path, const char* stage) {
  std::error_code ec;
  const auto file_bytes = std::filesystem::file_size(path, ec);
  if (ec) {
    return ResourceExhaustedError(
        StrFormat("out of memory %s %s", stage, path.c_str()));
  }
  return ResourceExhaustedError(
      StrFormat("out of memory %s %s (file is %lld bytes)", stage,
                path.c_str(), static_cast<long long>(file_bytes)));
}

// ReadTemporalEdgeList without the bad_alloc boundary: the file loader
// reports an allocation failure with its path and size instead.
StatusOr<LoadedTemporalGraph> ReadTemporalRows(std::istream& in,
                                               bool undirected,
                                               const EdgeListLimits& limits) {
  RowReader row(in, 3, "src dst snapshot", limits);
  int64_t rows = 0;
  IdRemapper remap;
  // snapshot original index -> rows. A file lists a snapshot's rows
  // together, so the last snapshot's list is kept at hand.
  std::map<int64_t, std::vector<Edge>> snapshots;
  std::vector<Edge>* snapshot = nullptr;
  int64_t snapshot_index = -1;
  while (row.Next()) {
    RETURN_IF_ERROR(CRASHSIM_FAILPOINT("graph_io.alloc"));
    if (row[0] < 0 || row[1] < 0) {
      return InvalidArgumentError(
          StrFormat("line %d: negative node id %lld", row.lineno(),
                    static_cast<long long>(row[0] < 0 ? row[0] : row[1])));
    }
    if (row[2] < 0) {
      return InvalidArgumentError(
          StrFormat("line %d: negative snapshot index %lld", row.lineno(),
                    static_cast<long long>(row[2])));
    }
    if (row[2] != snapshot_index) {
      snapshot_index = row[2];
      snapshot = &snapshots[snapshot_index];
    }
    snapshot->push_back(Edge{remap.Map(row[0]), remap.Map(row[1])});
    ++rows;
    RETURN_IF_ERROR(CheckNodeLimit(remap, limits, row.lineno()));
    RETURN_IF_ERROR(CheckEdgeLimit(rows, limits, row.lineno()));
  }
  RETURN_IF_ERROR(row.status());
  if (snapshots.empty()) {
    return InvalidArgumentError("no snapshots (file has no data rows)");
  }
  TemporalGraphBuilder builder(remap.size(), undirected);
  for (auto& [t, edges] : snapshots) builder.AddSnapshot(std::move(edges));
  LoadedTemporalGraph out;
  out.graph = std::move(builder).Build();
  out.original_ids = remap.TakeOriginals();
  return out;
}

}  // namespace

StatusOr<std::vector<std::pair<int64_t, int64_t>>> ReadEdgeList(
    std::istream& in, const EdgeListLimits& limits) {
  RETURN_IF_ERROR(CRASHSIM_FAILPOINT("graph_io.load"));
  std::vector<std::pair<int64_t, int64_t>> edges;
  RowReader row(in, 2, "src dst", limits);
  try {
    while (row.Next()) {
      if (row[0] < 0 || row[1] < 0) {
        return InvalidArgumentError(
            StrFormat("line %d: negative node id %lld", row.lineno(),
                      static_cast<long long>(row[0] < 0 ? row[0] : row[1])));
      }
      RETURN_IF_ERROR(CRASHSIM_FAILPOINT("graph_io.alloc"));
      edges.emplace_back(row[0], row[1]);
      RETURN_IF_ERROR(CheckEdgeLimit(static_cast<int64_t>(edges.size()),
                                     limits, row.lineno()));
    }
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError(StrFormat(
        "line %d: out of memory buffering edge list (~%lld bytes for %lld "
        "edges so far)",
        row.lineno(),
        static_cast<long long>(edges.capacity() * sizeof(edges.front())),
        static_cast<long long>(edges.size())));
  }
  RETURN_IF_ERROR(row.status());
  return edges;
}

StatusOr<LoadedGraph> LoadEdgeListFile(const std::string& path,
                                       bool undirected,
                                       const EdgeListLimits& limits) {
  TRACE_SPAN("graph_io.load_edge_list");
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open " + path);
  StatusOr<std::vector<std::pair<int64_t, int64_t>>> raw =
      ReadEdgeList(in, limits);
  if (!raw.ok()) return raw.status().WithContext(path);
  try {
    IdRemapper remap;
    std::vector<Edge> edges;
    edges.reserve(raw->size());
    for (const auto& [src, dst] : *raw) {
      edges.push_back(Edge{remap.Map(src), remap.Map(dst)});
      if (limits.max_nodes > 0 &&
          static_cast<int64_t>(remap.size()) > limits.max_nodes) {
        return ResourceExhaustedError(
                   StrFormat("node limit exceeded (max_nodes = %lld)",
                             static_cast<long long>(limits.max_nodes)))
            .WithContext(path);
      }
    }
    LoadedGraph out;
    out.graph = BuildGraph(remap.size(), edges, undirected);
    out.original_ids = remap.TakeOriginals();
    return out;
  } catch (const std::bad_alloc&) {
    return LoadOutOfMemoryError(path, "building graph from");
  }
}

void WriteEdgeList(const Graph& g, std::ostream& out) {
  out << "# nodes " << g.num_nodes() << " directed-edges " << g.num_edges()
      << "\n";
  for (const Edge& e : g.Edges()) out << e.src << ' ' << e.dst << '\n';
}

StatusOr<LoadedTemporalGraph> ReadTemporalEdgeList(
    std::istream& in, bool undirected, const EdgeListLimits& limits) {
  try {
    return ReadTemporalRows(in, undirected, limits);
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("out of memory loading temporal edge list");
  }
}

StatusOr<LoadedTemporalGraph> LoadTemporalEdgeListFile(
    const std::string& path, bool undirected, const EdgeListLimits& limits) {
  TRACE_SPAN("graph_io.load_temporal_edge_list");
  if (Status s = CRASHSIM_FAILPOINT("graph_io.load"); !s.ok()) {
    return s.WithContext(path);
  }
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open " + path);
  try {
    StatusOr<LoadedTemporalGraph> out =
        ReadTemporalRows(in, undirected, limits);
    if (!out.ok()) return out.status().WithContext(path);
    return out;
  } catch (const std::bad_alloc&) {
    return LoadOutOfMemoryError(path, "loading temporal edge list");
  }
}

void WriteTemporalEdgeList(const TemporalGraph& tg, std::ostream& out) {
  out << "# nodes " << tg.num_nodes() << " snapshots " << tg.num_snapshots()
      << "\n";
  for (int t = 0; t < tg.num_snapshots(); ++t) {
    for (const Edge& e : tg.SnapshotEdges(t)) {
      out << e.src << ' ' << e.dst << ' ' << t << '\n';
    }
  }
}

}  // namespace crashsim
