#include "ledger.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/crashsim_t.h"
#include "core/executor.h"
#include "core/query_stats.h"
#include "core/tree_cache.h"
#include "graph/temporal_graph.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/top_k.h"

namespace perfbench {

using crashsim::JsonValue;
using crashsim::NodeId;
using crashsim::Stopwatch;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

namespace {

// One request's timings, in the order the server makes the calls.
struct Trace {
  int64_t key = 0;
  double total_ms = 0.0;
  double read_frame_us = 0.0;
  double parse_us = 0.0;
  double queue_wait_ms = 0.0;
  double cache_get_ms = 0.0;
  double dense_rows_ms = 0.0;
  double partial_ms = 0.0;
  double select_us = 0.0;  // candidate vector + heap selection
  double answer_ms = 0.0;  // CrashSimT::Answer
  double json_write_us = 0.0;
  double write_frame_us = 0.0;
  double response_bytes = 0.0;
  double tree_entries = 0.0;
  double tree_bytes = 0.0;
  crashsim::QueryStats stats;
};

// Socketpair endpoints: [0] is the client, [1] the server side.
class SocketPair {
 public:
  SocketPair() {
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      throw std::runtime_error("socketpair failed");
    }
  }
  ~SocketPair() {
    close(fds_[0]);
    close(fds_[1]);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  int client() const { return fds_[0]; }
  int server() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

// The fields the server's handlers put on every OK response.
void SetCommonFields(const crashsim::QueryOutcome& outcome, JsonValue* r) {
  r->Set("retries", JsonValue(static_cast<int64_t>(outcome.retries)));
  r->Set("queue_wait_ms", JsonValue(outcome.queue_wait_seconds * 1e3));
  r->Set("run_ms", JsonValue(outcome.run_seconds * 1e3));
  JsonValue stages = JsonValue::Object();
  stages.Set("queue_ms", JsonValue(outcome.queue_wait_seconds * 1e3));
  stages.Set("cache_ms", JsonValue(0.0));
  stages.Set("walk_ms", JsonValue(outcome.run_seconds * 1e3));
  stages.Set("serialize_ms", JsonValue(0.0));
  r->Set("stages", std::move(stages));
}

// The in-process stand-in for Server: the same engine, cache and executor
// options, and the same per-request call sequence.
class Ledger {
 public:
  Ledger(const Workload& w, const Inputs& in)
      : w_(w),
        in_(in),
        engine_options_(EngineOptions(w)),
        ids_(DenseIds(in.graph.original_ids)),
        executor_(ExecutorOptionsFor(w)) {
    if (in.temporal.has_value()) {
      temporal_ids_ = DenseIds(in.temporal->original_ids);
    }
    // Setup cost of the static engine (the server Binds once at start).
    for (int i = 0; i < 3; ++i) {
      engine_ = std::make_unique<crashsim::CrashSim>(engine_options_);
      const Stopwatch t;
      engine_->Bind(&in_.graph.graph);
      bind_ms_.push_back(t.ElapsedMillis());
    }
    crashsim::TreeCacheOptions cache;
    cache.capacity_bytes = static_cast<int64_t>(w.cache_mb) << 20;
    cache.c = engine_options_.mc.c;
    cache.prune_threshold = engine_options_.tree_prune_threshold;
    cache_ = std::make_unique<crashsim::TreeCache>(&in_.graph.graph, cache);
  }

  // Serves one framed request from `fd` and writes the response back.
  void Serve(int fd, Trace* tr) {
    Stopwatch t;
    const std::string payload = OrThrow(crashsim::ReadFrame(fd), "ReadFrame");
    tr->read_frame_us = t.ElapsedMicros();
    t.Reset();
    const JsonValue request =
        OrThrow(crashsim::ParseJson(payload), "ParseJson");
    tr->parse_us = t.ElapsedMicros();
    const std::string response =
        w_.temporal ? Temporal(request, tr) : TopK(request, tr);
    t.Reset();
    OrThrow(crashsim::WriteFrame(fd, response), "WriteFrame");
    tr->write_frame_us = t.ElapsedMicros();
    tr->response_bytes = static_cast<double>(response.size());
  }

  const crashsim::TreeCache& cache() const { return *cache_; }
  const crashsim::QueryExecutor& executor() const { return executor_; }
  const std::vector<double>& bind_ms() const { return bind_ms_; }

 private:
  std::string TopK(const JsonValue& request, Trace* tr) {
    const int64_t original = request.GetInt("source", -1);
    const NodeId source = ids_.at(original);
    const int64_t k = request.GetInt("k", 10);
    crashsim::QueryContext ctx;
    ctx.set_stats(&tr->stats);
    crashsim::QueryRequest query;
    query.ctx = &ctx;
    query.run = [&](crashsim::QueryContext* run_ctx) {
      Stopwatch t;
      crashsim::StatusOr<crashsim::TreeCache::TreePtr> tree =
          cache_->GetOrBuild(source, engine_->LMax(), engine_options_.mode,
                             run_ctx);
      tr->cache_get_ms = t.ElapsedMillis();
      if (!tree.ok()) {
        crashsim::PartialResult r;
        r.status = tree.status();
        return r;
      }
      t.Reset();
      (*tree)->EnsureDenseRows();
      tr->dense_rows_ms = t.ElapsedMillis();
      tr->tree_entries = static_cast<double>((*tree)->EntryCount());
      tr->tree_bytes = static_cast<double>((*tree)->MemoryBytes());
      t.Reset();
      std::vector<NodeId> all(static_cast<size_t>(in_.graph.graph.num_nodes()));
      std::iota(all.begin(), all.end(), 0);
      tr->select_us = t.ElapsedMicros();
      t.Reset();
      crashsim::PartialResult r =
          engine_->PartialWithTree(**tree, all, run_ctx);
      tr->partial_ms = t.ElapsedMillis();
      return r;
    };
    const crashsim::QueryOutcome outcome = executor_.Execute(query);
    tr->queue_wait_ms = outcome.queue_wait_seconds * 1e3;
    OrThrow(outcome.result.status, "topk query");

    Stopwatch t;
    crashsim::TopK<NodeId> selector(static_cast<size_t>(k));
    for (NodeId v = 0; v < in_.graph.graph.num_nodes(); ++v) {
      if (v != source) {
        selector.Offer(outcome.result.scores[static_cast<size_t>(v)], v);
      }
    }
    const auto top = selector.Sorted();
    tr->select_us += t.ElapsedMicros();

    t.Reset();
    crashsim::QueryStatsEnvelope envelope;
    envelope.query = "topk";
    envelope.algo = "crashsim";
    const std::string stats_json =
        crashsim::QueryStatsJson(envelope, tr->stats);
    JsonValue nodes = JsonValue::Array();
    JsonValue scores = JsonValue::Array();
    for (const auto& [score, v] : top) {
      nodes.Append(JsonValue(in_.graph.original_ids[static_cast<size_t>(v)]));
      scores.Append(JsonValue(score));
    }
    JsonValue r = JsonValue::Object();
    r.Set("status", JsonValue(std::string("OK")));
    r.Set("op", JsonValue(std::string("topk")));
    r.Set("request_id", JsonValue(++next_id_));
    r.Set("stats_bytes", JsonValue(static_cast<int64_t>(stats_json.size())));
    r.Set("source", JsonValue(original));
    r.Set("k", JsonValue(k));
    r.Set("nodes", std::move(nodes));
    r.Set("scores", std::move(scores));
    r.Set("trials_done", JsonValue(outcome.result.trials_done));
    r.Set("trials_target", JsonValue(outcome.result.trials_target));
    r.Set("epsilon_achieved", JsonValue(outcome.result.epsilon_achieved));
    r.Set("degraded", JsonValue(outcome.degraded));
    r.Set("trial_fraction", JsonValue(outcome.trial_fraction));
    SetCommonFields(outcome, &r);
    std::string out = r.Write();
    tr->json_write_us = t.ElapsedMicros();
    return out;
  }

  std::string Temporal(const JsonValue& request, Trace* tr) {
    const crashsim::TemporalGraph& tg = in_.temporal->graph;
    const int64_t original = request.GetInt("source", -1);
    crashsim::TemporalQuery query;
    query.source = temporal_ids_.at(original);
    query.begin_snapshot = static_cast<int>(request.GetInt("begin", 0));
    query.end_snapshot = static_cast<int>(request.GetInt("end", -1));
    query.theta = request.GetDouble("theta", 0.05);
    query.trend_tolerance = request.GetDouble("tolerance", 0.0);
    const std::string kind = request.GetString("kind", "threshold");
    for (const auto& [name, value] : kWireKinds) {
      if (kind == name) query.kind = value;
    }
    crashsim::QueryContext ctx;
    ctx.set_stats(&tr->stats);
    crashsim::CrashSimTOptions options;
    options.crashsim = engine_options_;
    crashsim::TemporalAnswer answer;
    crashsim::QueryRequest q;
    q.ctx = &ctx;
    q.run = [&](crashsim::QueryContext* run_ctx) {
      const Stopwatch t;
      crashsim::CrashSimT engine(options);
      answer = engine.Answer(tg, query, run_ctx);
      tr->answer_ms = t.ElapsedMillis();
      crashsim::PartialResult r;
      r.status = answer.status;
      return r;
    };
    const crashsim::QueryOutcome outcome = executor_.Execute(q);
    tr->queue_wait_ms = outcome.queue_wait_seconds * 1e3;
    OrThrow(outcome.result.status, "temporal query");

    const Stopwatch t;
    crashsim::QueryStatsEnvelope envelope;
    envelope.query = "temporal";
    envelope.algo = "crashsim-t";
    const std::string stats_json =
        crashsim::QueryStatsJson(envelope, tr->stats);
    JsonValue nodes = JsonValue::Array();
    for (const NodeId v : answer.nodes) {
      nodes.Append(
          JsonValue(in_.temporal->original_ids[static_cast<size_t>(v)]));
    }
    JsonValue r = JsonValue::Object();
    r.Set("status", JsonValue(std::string("OK")));
    r.Set("op", JsonValue(std::string("temporal")));
    r.Set("request_id", JsonValue(++next_id_));
    r.Set("stats_bytes", JsonValue(static_cast<int64_t>(stats_json.size())));
    r.Set("source", JsonValue(original));
    r.Set("kind", JsonValue(kind));
    r.Set("begin", JsonValue(static_cast<int64_t>(query.begin_snapshot)));
    r.Set("end", JsonValue(static_cast<int64_t>(query.end_snapshot)));
    r.Set("nodes", std::move(nodes));
    r.Set("snapshots_processed",
          JsonValue(static_cast<int64_t>(answer.stats.snapshots_processed)));
    r.Set("scores_computed", JsonValue(answer.stats.scores_computed));
    SetCommonFields(outcome, &r);
    std::string out = r.Write();
    tr->json_write_us = t.ElapsedMicros();
    return out;
  }

  const Workload& w_;
  const Inputs& in_;
  const crashsim::CrashSimOptions engine_options_;
  const std::unordered_map<int64_t, NodeId> ids_;
  std::unordered_map<int64_t, NodeId> temporal_ids_;
  std::vector<double> bind_ms_;
  std::unique_ptr<crashsim::CrashSim> engine_;
  std::unique_ptr<crashsim::TreeCache> cache_;
  crashsim::QueryExecutor executor_;
  std::atomic<int64_t> next_id_{0};
};

// Times the snapshot walk of one temporal query the way CrashSimT::Answer
// makes it: position the cursor at the window's first snapshot, then per
// processed snapshot one Advance and one Bind.
void ReplaySnapshots(const crashsim::TemporalGraph& tg,
                     const crashsim::CrashSimOptions& options, int begin,
                     int snapshots, double* advance_ms, double* bind_ms) {
  *advance_ms = 0.0;
  *bind_ms = 0.0;
  crashsim::CrashSim engine(options);
  Stopwatch t;
  crashsim::SnapshotCursor cursor(&tg);
  while (cursor.snapshot_index() < begin) cursor.Advance();
  *advance_ms += t.ElapsedMillis();
  for (int i = 0; i < snapshots; ++i) {
    if (i > 0) {
      t.Reset();
      cursor.Advance();
      *advance_ms += t.ElapsedMillis();
    }
    t.Reset();
    engine.Bind(&cursor.graph());
    *bind_ms += t.ElapsedMillis();
  }
}

}  // namespace

std::vector<Metric> RunLedger(const Workload& w, const Inputs& in,
                              RequestPlan* plan, double seconds,
                              double served_p50_ms) {
  // graph.load_ms: the server's start-up parse of the files it is given.
  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    const Stopwatch t;
    OrThrow(crashsim::LoadEdgeListFile(in.graph_path, false), "load graph");
    if (!in.temporal_path.empty()) {
      OrThrow(crashsim::LoadTemporalEdgeListFile(in.temporal_path, false),
              "load temporal graph");
    }
    load_ms.push_back(t.ElapsedMillis());
  }

  Ledger ledger(w, in);
  plan->Rewind();
  for (const Request& r : plan->WarmUp()) {
    SocketPair sp;
    Trace tr;
    OrThrow(crashsim::WriteFrame(sp.client(), r.payload), "WriteFrame");
    ledger.Serve(sp.server(), &tr);
    OrThrow(crashsim::ReadFrame(sp.client()), "ReadFrame");
  }
  const crashsim::TreeCache::Stats cache0 = ledger.cache().stats();
  const crashsim::QueryExecutor::Stats exec0 = ledger.executor().stats();

  std::vector<std::vector<Trace>> per_client(static_cast<size_t>(w.clients));
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  std::vector<std::string> errors(static_cast<size_t>(w.clients));
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        SocketPair sp;
        while (std::chrono::steady_clock::now() < until) {
          const Request req = plan->Next();
          Trace tr;
          tr.key = req.key;
          const Stopwatch total;
          OrThrow(crashsim::WriteFrame(sp.client(), req.payload),
                  "WriteFrame");
          ledger.Serve(sp.server(), &tr);
          OrThrow(crashsim::ReadFrame(sp.client()), "ReadFrame");
          tr.total_ms = total.ElapsedMillis();
          per_client[static_cast<size_t>(c)].push_back(std::move(tr));
        }
      } catch (const std::exception& e) {
        errors[static_cast<size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("traced run: " + e);
  }
  std::vector<Trace> traces;
  for (auto& v : per_client) {
    for (Trace& t : v) traces.push_back(std::move(t));
  }
  const crashsim::TreeCache::Stats cache1 = ledger.cache().stats();
  const crashsim::QueryExecutor::Stats exec1 = ledger.executor().stats();

  auto median = [&](auto field) {
    std::vector<double> v;
    for (const Trace& t : traces) v.push_back(field(t));
    return Quantile(std::move(v), 0.5);
  };
  std::vector<double> queue;
  for (const Trace& t : traces) queue.push_back(t.queue_wait_ms);

  // Temporal: per-query Advance and Bind totals over the processed window.
  std::map<int64_t, std::pair<double, double>> replay;  // key -> (adv, bind)
  if (w.temporal) {
    for (const Trace& t : traces) {
      if (replay.count(t.key) > 0) continue;
      const TemporalSpec& s = plan->pool()[static_cast<size_t>(t.key)];
      double advance = 0.0;
      double bind = 0.0;
      ReplaySnapshots(in.temporal->graph, EngineOptions(w), s.begin,
                      t.stats.snapshots_processed, &advance, &bind);
      replay[t.key] = {advance, bind};
    }
  }
  auto replayed = [&](const Trace& t, bool bind) {
    const auto it = replay.find(t.key);
    if (it == replay.end()) return 0.0;
    return bind ? it->second.second : it->second.first;
  };
  // Temporal trial-loop time is not separable inside Answer: report the
  // remainder after tree builds, Binds and Advances.
  auto partial_ms = [&](const Trace& t) {
    if (!w.temporal) return t.partial_ms;
    return std::max(0.0, t.answer_ms - t.stats.tree_build_seconds * 1e3 -
                             replayed(t, true) - replayed(t, false));
  };

  double steps = 0.0;
  double hits = 0.0;
  double partial_total = 0.0;
  for (const Trace& t : traces) {
    steps += static_cast<double>(t.stats.walk_steps);
    hits += static_cast<double>(t.stats.tree_hits);
    partial_total += partial_ms(t);
  }
  const double lookups = static_cast<double>(
      (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses) +
      (cache1.coalesced - cache0.coalesced));

  std::vector<Metric> m;
  auto add = [&](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  add("graph.load_ms", Quantile(load_ms, 0.5), "ms");
  add("graph.snapshot_advance_ms",
      median([&](const Trace& t) { return replayed(t, false); }), "ms");
  add("crashsim.bind_ms",
      w.temporal ? median([&](const Trace& t) { return replayed(t, true); })
                 : Quantile(ledger.bind_ms(), 0.5),
      "ms");
  add("protocol.read_frame_us",
      median([](const Trace& t) { return t.read_frame_us; }), "us");
  add("protocol.write_frame_us",
      median([](const Trace& t) { return t.write_frame_us; }), "us");
  add("protocol.response_bytes",
      median([](const Trace& t) { return t.response_bytes; }), "bytes");
  add("json.parse_us", median([](const Trace& t) { return t.parse_us; }),
      "us");
  add("json.write_us", median([](const Trace& t) { return t.json_write_us; }),
      "us");
  add("executor.queue_wait_ms.p50", Quantile(queue, 0.5), "ms");
  add("executor.queue_wait_ms.p95", Quantile(queue, 0.95), "ms");
  add("executor.shed",
      static_cast<double>(
          (exec1.shed_queue_full + exec1.shed_deadline +
           exec1.expired_in_queue + exec1.cancelled_in_queue) -
          (exec0.shed_queue_full + exec0.shed_deadline +
           exec0.expired_in_queue + exec0.cancelled_in_queue)),
      "count");
  add("executor.degraded", static_cast<double>(exec1.degraded - exec0.degraded),
      "count");
  add("executor.retries", static_cast<double>(exec1.retries - exec0.retries),
      "count");
  add("tree_cache.get_ms",
      median([](const Trace& t) { return t.cache_get_ms; }), "ms");
  add("tree_cache.hit_ratio",
      lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups
                  : 0.0,
      "ratio");
  add("tree_cache.misses", static_cast<double>(cache1.misses - cache0.misses),
      "count");
  add("tree_cache.coalesced",
      static_cast<double>(cache1.coalesced - cache0.coalesced), "count");
  add("tree_cache.evictions",
      static_cast<double>(cache1.evictions - cache0.evictions), "count");
  add("tree_cache.bytes", static_cast<double>(cache1.bytes), "bytes");
  add("rev_reach.build_ms", median([](const Trace& t) {
        return t.stats.tree_build_seconds * 1e3;
      }),
      "ms");
  add("rev_reach.dense_rows_ms",
      median([](const Trace& t) { return t.dense_rows_ms; }), "ms");
  add("rev_reach.entries", median([&](const Trace& t) {
        return w.temporal ? static_cast<double>(t.stats.tree_entries)
                          : t.tree_entries;
      }),
      "count");
  add("rev_reach.tree_bytes", median([&](const Trace& t) {
        return w.temporal ? static_cast<double>(t.stats.tree_bytes)
                          : t.tree_bytes;
      }),
      "bytes");
  add("crashsim.partial_ms", median(partial_ms), "ms");
  add("walk.walks", median([](const Trace& t) {
        return static_cast<double>(t.stats.walks_sampled);
      }),
      "count");
  add("walk.steps", median([](const Trace& t) {
        return static_cast<double>(t.stats.walk_steps);
      }),
      "count");
  add("walk.tree_hits", median([](const Trace& t) {
        return static_cast<double>(t.stats.tree_hits);
      }),
      "count");
  add("walk.hit_ratio", steps > 0 ? hits / steps : 0.0, "ratio");
  add("walk.ns_per_step", steps > 0 ? partial_total * 1e6 / steps : 0.0,
      "ns");
  add("top_k.select_us", median([](const Trace& t) { return t.select_us; }),
      "us");
  add("crashsim_t.answer_ms",
      median([](const Trace& t) { return t.answer_ms; }), "ms");
  add("crashsim_t.snapshots", median([](const Trace& t) {
        return static_cast<double>(t.stats.snapshots_processed);
      }),
      "count");
  add("crashsim_t.scores_computed", median([](const Trace& t) {
        return static_cast<double>(t.stats.scores_computed);
      }),
      "count");
  add("crashsim_t.pruned_delta", median([](const Trace& t) {
        return static_cast<double>(t.stats.delta_prune_hits);
      }),
      "count");
  add("crashsim_t.pruned_difference", median([](const Trace& t) {
        return static_cast<double>(t.stats.difference_prune_hits);
      }),
      "count");
  add("crashsim_t.tree_reuses", median([](const Trace& t) {
        return static_cast<double>(t.stats.source_tree_reuses);
      }),
      "count");

  // Coverage: the blocking steps' medians against the untraced client p50.
  double covered = 0.0;
  for (const Metric& x : m) {
    const std::string& n = x.name;
    if (n == "protocol.read_frame_us" || n == "json.parse_us" ||
        n == "json.write_us" || n == "protocol.write_frame_us" ||
        n == "top_k.select_us") {
      covered += x.value / 1e3;
    } else if (n == "executor.queue_wait_ms.p50" ||
               (!w.temporal && (n == "tree_cache.get_ms" ||
                                n == "rev_reach.dense_rows_ms" ||
                                n == "crashsim.partial_ms")) ||
               (w.temporal && n == "crashsim_t.answer_ms")) {
      covered += x.value;
    }
  }
  const double traced_p50 = median([](const Trace& t) { return t.total_ms; });
  add("ledger.coverage", served_p50_ms > 0 ? covered / served_p50_ms : 0.0,
      "ratio");
  add("trace.overhead_frac",
      served_p50_ms > 0 ? traced_p50 / served_p50_ms - 1.0 : 0.0, "ratio");
  add("ledger.requests", static_cast<double>(traces.size()), "count");
  return m;
}

}  // namespace perfbench
