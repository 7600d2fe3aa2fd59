#include "util/failpoint.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <new>
#include <string>
#include <thread>

#include "util/metrics.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace crashsim {
namespace {

// Catalog of every failpoint site compiled into the library, sorted. The
// failpoint-catalog lint rule parses this array and rejects any
// CRASHSIM_FAILPOINT whose literal is missing here, so the catalog can never
// drift from the call sites. Document new entries in docs/ROBUSTNESS.md.
const char* const kFailpointCatalog[] = {
    "crashsim.sweep_level",  // before each level of CrashSim's sweep
    "crashsim.trial_block",  // between CrashSim trial blocks
    "crashsim_t.snapshot",   // before each CrashSim-T snapshot is answered
    "executor.admit",        // QueryExecutor admission decision
    "graph_io.alloc",        // edge-buffer growth inside the loaders
    "graph_io.load",         // start of every edge-list load
    "parallel.worker",       // pool worker about to run a shard (throws)
    "probesim.trial_block",  // between ProbeSim trial blocks
    "reads.chunk",           // between READS candidate chunks
    "rev_reach.alloc",       // allocations inside the revReach tree build
    "rev_reach.build",       // start of every revReach build
    "snapshot_diagonals.fill",  // shared d(w) table about to estimate (throws)
    "tree_cache.build",      // TreeCache miss about to build a shared tree
};

// FNV-1a, mixes the site name into the fire-decision stream.
uint64_t HashName(std::string_view name) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct ArmedFailpoint {
  FailpointSpec spec;
  int64_t hits = 0;
  int64_t fires = 0;
};

struct Registry {
  Mutex mu;
  // All three mirror/armed fields are authoritative under mu; the separate
  // g_enabled atomic only gates the fast path.
  bool enabled CRASHSIM_GUARDED_BY(mu) = false;
  uint64_t seed CRASHSIM_GUARDED_BY(mu) = 0;
  std::map<std::string, ArmedFailpoint, std::less<>> armed
      CRASHSIM_GUARDED_BY(mu);
};

Registry& GlobalRegistry() {
  static Registry* r = new Registry();  // leaked: alive for process lifetime
  return *r;
}

Counter& HitsCounter() {
  static Counter& c = MetricsRegistry::Global().counter("failpoint.hits");
  return c;
}
Counter& FiresCounter() {
  static Counter& c = MetricsRegistry::Global().counter("failpoint.fires");
  return c;
}

bool InCatalog(std::string_view name) {
  return std::binary_search(std::begin(kFailpointCatalog),
                            std::end(kFailpointCatalog), name,
                            [](std::string_view a, std::string_view b) {
                              return a < b;
                            });
}

// Deterministic fire decision for hit number `hit_index` of site `name`:
// a pure function of (seed, name, hit_index), independent of threads and
// wall clock. SplitMix64 decorrelates the three inputs; the top 53 bits
// become a uniform double in [0, 1).
bool FiresAt(uint64_t seed, std::string_view name, int64_t hit_index,
             double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  SplitMix64 mix(seed ^ HashName(name) ^
                 (static_cast<uint64_t>(hit_index) * 0x9e3779b97f4a7c15ULL));
  const double u =
      static_cast<double>(mix.Next() >> 11) * 0x1.0p-53;  // [0, 1)
  return u < probability;
}

}  // namespace

namespace failpoint_internal {

std::atomic<bool> g_enabled{false};

Status Hit(const char* name) {
  FailpointSpec spec;
  int64_t hit_index = 0;
  {
    Registry& reg = GlobalRegistry();
    const MutexLock lock(reg.mu);
    if (!reg.enabled) return OkStatus();  // raced with DisableFailpoints
    const auto it = reg.armed.find(std::string_view(name));
    if (it == reg.armed.end()) return OkStatus();  // site not armed
    ArmedFailpoint& fp = it->second;
    hit_index = fp.hits++;
    HitsCounter().Add(1);
    if (fp.spec.max_fires > 0 && fp.fires >= fp.spec.max_fires) {
      return OkStatus();
    }
    if (!FiresAt(reg.seed, name, hit_index, fp.spec.probability)) {
      return OkStatus();
    }
    fp.fires++;
    FiresCounter().Add(1);
    spec = fp.spec;
  }

  // Actions run outside the registry lock: sleeping or throwing with the
  // mutex held would serialise every other site.
  TRACE_SPAN("failpoint.fire");
  switch (spec.action) {
    case FailpointAction::kError:
      return Status(spec.code,
                    StrFormat("failpoint %s fired (hit %lld)", name,
                              static_cast<long long>(hit_index)));
    case FailpointAction::kLatency:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.latency_ms));
      return OkStatus();
    case FailpointAction::kBadAlloc:
      throw std::bad_alloc();
  }
  return OkStatus();
}

}  // namespace failpoint_internal

bool FailpointsEnabled() {
  return failpoint_internal::g_enabled.load(std::memory_order_relaxed);
}

void EnableFailpoints(uint64_t seed) {
  Registry& reg = GlobalRegistry();
  const MutexLock lock(reg.mu);
  reg.enabled = true;
  reg.seed = seed;
  reg.armed.clear();
  failpoint_internal::g_enabled.store(true, std::memory_order_relaxed);
}

void DisableFailpoints() {
  Registry& reg = GlobalRegistry();
  const MutexLock lock(reg.mu);
  reg.enabled = false;
  reg.armed.clear();
  failpoint_internal::g_enabled.store(false, std::memory_order_relaxed);
}

Status ConfigureFailpoint(std::string_view name, const FailpointSpec& spec) {
  if (!InCatalog(name)) {
    return NotFoundError(
        StrFormat("failpoint \"%.*s\" is not in the catalog "
                  "(src/util/failpoint.cc)",
                  static_cast<int>(name.size()), name.data()));
  }
  if (!(spec.probability >= 0.0 && spec.probability <= 1.0)) {
    return InvalidArgumentError(
        StrFormat("failpoint probability %g outside [0, 1]",
                  spec.probability));
  }
  if (spec.latency_ms < 0) {
    return InvalidArgumentError(
        StrFormat("failpoint latency_ms %lld is negative",
                  static_cast<long long>(spec.latency_ms)));
  }
  if (spec.max_fires < 0) {
    return InvalidArgumentError(
        StrFormat("failpoint max_fires %lld is negative",
                  static_cast<long long>(spec.max_fires)));
  }
  Registry& reg = GlobalRegistry();
  const MutexLock lock(reg.mu);
  if (!reg.enabled) {
    return InvalidArgumentError(
        "ConfigureFailpoint requires EnableFailpoints() first");
  }
  ArmedFailpoint& fp = reg.armed[std::string(name)];
  fp.spec = spec;
  fp.hits = 0;
  fp.fires = 0;
  return OkStatus();
}

const std::vector<std::string_view>& FailpointCatalog() {
  static const std::vector<std::string_view>* catalog = [] {
    auto* v = new std::vector<std::string_view>(std::begin(kFailpointCatalog),
                                                std::end(kFailpointCatalog));
    return v;
  }();
  return *catalog;
}

int64_t FailpointHits(std::string_view name) {
  Registry& reg = GlobalRegistry();
  const MutexLock lock(reg.mu);
  const auto it = reg.armed.find(name);
  return it == reg.armed.end() ? 0 : it->second.hits;
}

int64_t FailpointFires(std::string_view name) {
  Registry& reg = GlobalRegistry();
  const MutexLock lock(reg.mu);
  const auto it = reg.armed.find(name);
  return it == reg.armed.end() ? 0 : it->second.fires;
}

}  // namespace crashsim
