#ifndef CRASHSIM_CORE_TREE_CACHE_H_
#define CRASHSIM_CORE_TREE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/query_context.h"
#include "core/rev_reach.h"
#include "graph/graph.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace crashsim {

// Shared reverse-reachable-tree cache for the serving path (ROADMAP item 1).
//
// CrashSim's per-query cost splits into one BuildRevReach for the source
// plus the Monte-Carlo trials; on a hot source the tree is identical across
// queries (builds are deterministic in the bound parameters), so a server
// answering N concurrent queries for one source should build it once, not N
// times. The cache provides exactly that:
//
//  - Keyed by (source, l_max, mode) — the full set of inputs that, together
//    with the per-cache constants (graph, c, prune_threshold), determine the
//    built tree bit for bit.
//  - Single-flight build deduplication: the first query for an absent key
//    becomes the builder; concurrent queries for the same key wait for that
//    one build instead of starting their own (counted by cache.coalesced).
//    Waiters honour their own deadline/cancellation while they wait.
//  - LRU eviction by tree bytes once the configured capacity is exceeded.
//    Evicted trees stay alive for queries still holding them (shared_ptr);
//    the cache just forgets them.
//
// Failure semantics: a build that fails (deadline, cancellation, or
// kResourceExhausted from the builder's MemoryBudget) is NOT cached — the
// slot is removed and waiters wake; the first waiter still inside its own
// deadline retries as the new builder. A shed build therefore never poisons
// the key for later, healthier queries.
//
// Thread safety: all methods are safe from any number of threads. Builds run
// outside the cache mutex; only map/LRU bookkeeping happens under it.

struct TreeCacheOptions {
  // Shared Monte-Carlo decay constant and revReach prune threshold; must
  // match the engine the trees are fed to (CrashSimOptions.mc.c and
  // .tree_prune_threshold).
  double c = 0.6;
  double prune_threshold = 1e-9;
  // Total tree bytes retained; the least-recently-used trees are dropped
  // once exceeded. 0 disables eviction (unbounded cache).
  int64_t capacity_bytes = 256ll << 20;

  [[nodiscard]] Status Validate() const;
};

class TreeCache {
 public:
  using TreePtr = std::shared_ptr<const ReverseReachableTree>;

  // The graph is borrowed and must outlive the cache (same contract as
  // CrashSim::Bind). CHECK-fails on invalid options — validate untrusted
  // flag values with options.Validate() first.
  TreeCache(const Graph* g, const TreeCacheOptions& options);

  TreeCache(const TreeCache&) = delete;
  TreeCache& operator=(const TreeCache&) = delete;

  // Returns the cached tree for (source, l_max, mode), building it (or
  // waiting for the in-flight build) when absent. The context — nullptr for
  // unbounded — bounds both the build (checked per level, charged to
  // ctx->memory_budget()) and the wait on someone else's build. Errors:
  // kInvalidArgument (bad source), kDeadlineExceeded / kCancelled,
  // kResourceExhausted (budget hit during the build).
  [[nodiscard]] StatusOr<TreePtr> GetOrBuild(NodeId source, int l_max,
                                             RevReachMode mode,
                                             QueryContext* ctx);

  // Point-in-time counters: the only copy of the cache ledger, rendered by
  // /statusz and /metrics through Values().
  struct Stats {
    int64_t hits = 0;       // tree was resident
    int64_t misses = 0;     // this query became the builder
    int64_t coalesced = 0;  // this query waited on another query's build
    int64_t evictions = 0;
    int64_t bytes = 0;      // resident tree bytes
    int64_t trees = 0;      // resident tree count

    // Every field above in declaration order, named as /statusz keys them
    // and as the cache.* /metrics families; bytes and trees are gauges.
    std::vector<LedgerValue> Values() const;
  };
  Stats stats() const;

  const TreeCacheOptions& options() const { return options_; }

 private:
  struct Key {
    NodeId source;
    int l_max;
    RevReachMode mode;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Slot {
    TreePtr tree;  // null while the build is in flight
    int64_t bytes = 0;
    bool building = true;
    // Position in lru_ (valid only once built).
    std::list<Key>::iterator lru_it;
  };

  // Drops LRU-tail entries until bytes_ fits capacity again. Never touches
  // in-flight builds (they are not in lru_ yet).
  void EvictOverCapacityLocked() CRASHSIM_REQUIRES(mu_);

  const Graph* const graph_;
  const TreeCacheOptions options_;

  mutable Mutex mu_;
  CondVar built_;  // notified when a build publishes or fails
  std::unordered_map<Key, Slot, KeyHash> slots_ CRASHSIM_GUARDED_BY(mu_);
  // front = hottest
  std::list<Key> lru_ CRASHSIM_GUARDED_BY(mu_);
  int64_t bytes_ CRASHSIM_GUARDED_BY(mu_) = 0;
  int64_t hits_ CRASHSIM_GUARDED_BY(mu_) = 0;
  int64_t misses_ CRASHSIM_GUARDED_BY(mu_) = 0;
  int64_t coalesced_ CRASHSIM_GUARDED_BY(mu_) = 0;
  int64_t evictions_ CRASHSIM_GUARDED_BY(mu_) = 0;
};

}  // namespace crashsim

#endif  // CRASHSIM_CORE_TREE_CACHE_H_
