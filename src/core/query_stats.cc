#include "core/query_stats.h"

#include <cmath>

#include "util/string_util.h"

namespace crashsim {
namespace {

std::string JsonDouble(double v) {
  // JSON has no Infinity/NaN literal; a not-yet-achieved bound reads null.
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.9g", v);
}

void AppendRow(std::string* out, const char* label, const std::string& value) {
  *out += StrFormat("  %-28s %s\n", label, value.c_str());
}

std::string I64(int64_t v) {
  return StrFormat("%lld", static_cast<long long>(v));
}

}  // namespace

std::string QueryStats::ToTable() const {
  std::string out = "query stats:\n";
  AppendRow(&out, "trials target (n_r)", I64(trials_target));
  AppendRow(&out, "trials run", I64(trials_run));
  AppendRow(&out, "trials truncated", trials_truncated ? "yes" : "no");
  AppendRow(&out, "epsilon achieved",
            std::isfinite(epsilon_achieved)
                ? StrFormat("%.6g", epsilon_achieved)
                : "inf");
  AppendRow(&out, "tree builds", I64(tree_builds));
  AppendRow(&out, "tree build seconds",
            StrFormat("%.6f", tree_build_seconds));
  AppendRow(&out, "tree entries (last)", I64(tree_entries));
  AppendRow(&out, "tree bytes (last)", I64(tree_bytes));
  AppendRow(&out, "tree levels (last)", I64(tree_levels));
  AppendRow(&out, "candidates evaluated", I64(candidates_evaluated));
  AppendRow(&out, "walks sampled", I64(walks_sampled));
  AppendRow(&out, "walk steps", I64(walk_steps));
  AppendRow(&out, "tree hits", I64(tree_hits));
  if (CacheTouched()) {
    AppendRow(&out, "cache hits/misses/coalesced",
              I64(cache_hits) + "/" + I64(cache_misses) + "/" +
                  I64(cache_coalesced));
    AppendRow(&out, "cache wait seconds",
              StrFormat("%.6f", cache_wait_seconds));
  }
  if (had_deadline) {
    AppendRow(&out, "deadline slack seconds",
              StrFormat("%.6f", deadline_slack_seconds));
  }
  if (snapshots_processed > 0) {
    AppendRow(&out, "snapshots processed", I64(snapshots_processed));
    AppendRow(&out, "stable tree snapshots", I64(stable_tree_snapshots));
    AppendRow(&out, "source tree rebuilds", I64(source_tree_rebuilds));
    AppendRow(&out, "source tree reuses", I64(source_tree_reuses));
    AppendRow(&out, "delta prune checks/hits",
              I64(delta_prune_checks) + "/" + I64(delta_prune_hits));
    AppendRow(&out, "diff prune checks/hits",
              I64(difference_prune_checks) + "/" + I64(difference_prune_hits));
    AppendRow(&out, "diff prefilter skips", I64(difference_prefilter_skips));
    AppendRow(&out, "diff tree rebuilds", I64(difference_tree_rebuilds));
    AppendRow(&out, "candidates skipped", I64(CandidatesSkipped()));
    AppendRow(&out, "scores computed", I64(scores_computed));
  }
  return out;
}

std::string QueryStatsJson(const QueryStatsEnvelope& envelope,
                           const QueryStats& stats) {
  std::string out = "{";
  out += "\"schema\": \"crashsim.query_stats.v1\"";
  out += ", \"query\": ";
  AppendJsonString(envelope.query, &out);
  out += ", \"algo\": ";
  AppendJsonString(envelope.algo, &out);
  out += ", \"n\": " + I64(envelope.n);
  out += ", \"m\": " + I64(envelope.m);
  out += ", \"elapsed_seconds\": " + JsonDouble(envelope.elapsed_seconds);

  out += ", \"trials\": {\"target\": " + I64(stats.trials_target) +
         ", \"run\": " + I64(stats.trials_run) +
         ", \"truncated\": " + (stats.trials_truncated ? "true" : "false") +
         ", \"epsilon_achieved\": " + JsonDouble(stats.epsilon_achieved) + "}";

  out += ", \"tree\": {\"builds\": " + I64(stats.tree_builds) +
         ", \"build_seconds\": " + JsonDouble(stats.tree_build_seconds) +
         ", \"entries\": " + I64(stats.tree_entries) +
         ", \"bytes\": " + I64(stats.tree_bytes) +
         ", \"levels\": " + I64(stats.tree_levels) + "}";

  out += ", \"work\": {\"candidates\": " + I64(stats.candidates_evaluated) +
         ", \"walks\": " + I64(stats.walks_sampled) +
         ", \"walk_steps\": " + I64(stats.walk_steps) +
         ", \"tree_hits\": " + I64(stats.tree_hits) + "}";

  // Additive since the v1 schema shipped: present exactly when the query
  // went through a TreeCache, so cache-less exports stay byte-identical.
  if (stats.CacheTouched()) {
    out += ", \"cache\": {\"hits\": " + I64(stats.cache_hits) +
           ", \"misses\": " + I64(stats.cache_misses) +
           ", \"coalesced\": " + I64(stats.cache_coalesced) +
           ", \"wait_seconds\": " + JsonDouble(stats.cache_wait_seconds) + "}";
  }

  out += std::string(", \"deadline\": {\"present\": ") +
         (stats.had_deadline ? "true" : "false") + ", \"slack_seconds\": " +
         JsonDouble(stats.had_deadline ? stats.deadline_slack_seconds : 0.0) +
         "}";

  if (stats.snapshots_processed > 0) {
    out += ", \"temporal\": {\"snapshots_processed\": " +
           I64(stats.snapshots_processed) +
           ", \"stable_tree_snapshots\": " + I64(stats.stable_tree_snapshots) +
           ", \"source_tree_rebuilds\": " + I64(stats.source_tree_rebuilds) +
           ", \"source_tree_reuses\": " + I64(stats.source_tree_reuses) +
           ", \"delta_prune_checks\": " + I64(stats.delta_prune_checks) +
           ", \"delta_prune_hits\": " + I64(stats.delta_prune_hits) +
           ", \"difference_prune_checks\": " +
           I64(stats.difference_prune_checks) +
           ", \"difference_prune_hits\": " + I64(stats.difference_prune_hits) +
           ", \"difference_prefilter_skips\": " +
           I64(stats.difference_prefilter_skips) +
           ", \"difference_tree_rebuilds\": " +
           I64(stats.difference_tree_rebuilds) +
           ", \"candidates_skipped\": " + I64(stats.CandidatesSkipped()) +
           ", \"scores_computed\": " + I64(stats.scores_computed) +
           ", \"per_snapshot\": [";
    for (size_t i = 0; i < stats.snapshots.size(); ++i) {
      const QueryStats::SnapshotStats& s = stats.snapshots[i];
      if (i > 0) out += ", ";
      out += "{\"snapshot\": " + I64(s.snapshot) +
             ", \"candidates\": " + I64(s.candidates) +
             ", \"delta_pruned\": " + I64(s.delta_pruned) +
             ", \"difference_pruned\": " + I64(s.difference_pruned) +
             ", \"recomputed\": " + I64(s.recomputed) +
             ", \"tree_stable\": " + (s.tree_stable ? "true" : "false") + "}";
    }
    out += "]}";
  }

  out += "}";
  return out;
}

}  // namespace crashsim
