#include "core/tree_cache.h"

#include <chrono>
#include <new>
#include <utility>

#include "core/query_stats.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crashsim {
Status TreeCacheOptions::Validate() const {
  if (!(c > 0.0 && c < 1.0)) {
    return InvalidArgumentError(StrFormat("c must be in (0, 1), got %g", c));
  }
  if (prune_threshold < 0.0) {
    return InvalidArgumentError(StrFormat(
        "prune_threshold must be >= 0, got %g", prune_threshold));
  }
  if (capacity_bytes < 0) {
    return InvalidArgumentError(
        StrFormat("capacity_bytes must be >= 0, got %lld",
                  static_cast<long long>(capacity_bytes)));
  }
  return OkStatus();
}

size_t TreeCache::KeyHash::operator()(const Key& k) const {
  SplitMix64 mix((static_cast<uint64_t>(static_cast<uint32_t>(k.source))
                  << 32) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(k.l_max))
                  << 1) ^
                 static_cast<uint64_t>(k.mode));
  return static_cast<size_t>(mix.Next());
}

TreeCache::TreeCache(const Graph* g, const TreeCacheOptions& options)
    : graph_(g), options_(options) {
  CRASHSIM_CHECK(g != nullptr) << "TreeCache requires a bound graph";
  if (Status s = options_.Validate(); !s.ok()) {
    CRASHSIM_CHECK(false) << "invalid TreeCacheOptions: " << s.ToString();
  }
}

StatusOr<TreeCache::TreePtr> TreeCache::GetOrBuild(NodeId source, int l_max,
                                                   RevReachMode mode,
                                                   QueryContext* ctx) {
  TRACE_SPAN("tree_cache.get");
  // Per-request attribution (the cache-wide Stats cannot say which query
  // paid for a build): outcome counts plus the wall time this
  // query spent inside the cache, recorded on every exit path.
  QueryStats* const qstats = ctx != nullptr ? ctx->stats() : nullptr;
  struct WaitRecorder {
    QueryStats* stats;
    Stopwatch sw;
    ~WaitRecorder() {
      if (stats != nullptr) stats->cache_wait_seconds += sw.ElapsedSeconds();
    }
  } wait_recorder{qstats, {}};
  const Key key{source, l_max, mode};
  MutexLock lock(mu_);
  for (;;) {
    auto it = slots_.find(key);
    if (it != slots_.end() && !it->second.building) {
      ++hits_;
      if (qstats != nullptr) ++qstats->cache_hits;
      // Refresh LRU position: this key is hot again.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.tree;
    }
    if (it != slots_.end()) {
      // Another query is building this tree right now: coalesce onto it.
      // Bounded waits so this query's own deadline/cancellation is honoured
      // promptly even if the builder stalls.
      ++coalesced_;
      if (qstats != nullptr) ++qstats->cache_coalesced;
      for (;;) {
        built_.WaitFor(mu_, std::chrono::milliseconds(5));
        if (ctx != nullptr) {
          if (Status s = ctx->Check(); !s.ok()) {
            return s.WithContext("waiting for shared revReach build");
          }
        }
        auto again = slots_.find(key);
        if (again == slots_.end()) break;  // build failed: retry from the top
        if (!again->second.building) {
          lru_.splice(lru_.begin(), lru_, again->second.lru_it);
          return again->second.tree;
        }
      }
      continue;
    }

    // This query becomes the builder. Publish the in-flight slot, then build
    // outside the lock so waiters and unrelated keys are not serialised
    // behind an O(l_max * m) build.
    ++misses_;
    if (qstats != nullptr) ++qstats->cache_misses;
    slots_.emplace(key, Slot{});
    lock.Unlock();
    // Everything that can fail runs outside the lock and funnels into
    // build_status: a failure that escaped here (the old code let
    // std::bad_alloc from the build or from make_shared propagate) would
    // leave the in-flight slot behind with building == true forever, and
    // every later query for this key would coalesce onto a build that no
    // longer exists.
    Status build_status = OkStatus();
    TreePtr tree;
    try {
      if (Status s = CRASHSIM_FAILPOINT("tree_cache.build"); !s.ok()) {
        build_status = std::move(s);
      } else if (StatusOr<ReverseReachableTree> built = BuildRevReach(
                     *graph_, source, l_max, options_.c, mode,
                     options_.prune_threshold, ctx);
                 !built.ok()) {
        build_status = built.status();
      } else {
        tree = std::make_shared<const ReverseReachableTree>(
            std::move(built).value());
      }
    } catch (const std::bad_alloc&) {
      build_status =
          ResourceExhaustedError("out of memory building shared revReach tree");
    } catch (...) {
      // Unexpected escape (e.g. a fault hoisted out of a parallel region the
      // builder did not convert): still remove the in-flight slot so the key
      // is not poisoned, then let the exception propagate.
      lock.Lock();
      slots_.erase(key);
      built_.NotifyAll();
      throw;
    }
    lock.Lock();
    if (!build_status.ok()) {
      // Never cache a failed/partial build; wake waiters so one of them can
      // retry as the new builder.
      slots_.erase(key);
      built_.NotifyAll();
      return build_status.WithContext("shared revReach build");
    }
    Slot& slot = slots_[key];
    slot.tree = tree;
    slot.bytes = tree->MemoryBytes();
    slot.building = false;
    lru_.push_front(key);
    slot.lru_it = lru_.begin();
    bytes_ += slot.bytes;
    EvictOverCapacityLocked();
    built_.NotifyAll();
    return tree;
  }
}

void TreeCache::EvictOverCapacityLocked() {
  if (options_.capacity_bytes == 0) return;
  while (bytes_ > options_.capacity_bytes && !lru_.empty()) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = slots_.find(victim);
    CRASHSIM_CHECK(it != slots_.end() && !it->second.building)
        << "LRU entry without a built slot";
    bytes_ -= it->second.bytes;
    slots_.erase(it);
    ++evictions_;
  }
}

std::vector<LedgerValue> TreeCache::Stats::Values() const {
  return {{"hits", hits},
          {"misses", misses},
          {"coalesced", coalesced},
          {"evictions", evictions},
          {"bytes", bytes, /*gauge=*/true},
          {"trees", trees, /*gauge=*/true}};
}

TreeCache::Stats TreeCache::stats() const {
  const MutexLock lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.coalesced = coalesced_;
  s.evictions = evictions_;
  s.bytes = bytes_;
  s.trees = static_cast<int64_t>(lru_.size());
  return s;
}

}  // namespace crashsim
