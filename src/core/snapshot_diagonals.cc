#include "core/snapshot_diagonals.h"

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace crashsim {
namespace {

Counter& EstimatesCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("temporal.diag_estimates");
  return c;
}

}  // namespace

SnapshotDiagonals::SnapshotDiagonals(const TemporalGraph* tg,
                                     const CrashSimOptions& options)
    : tg_(tg),
      estimator_(options),
      slots_(static_cast<size_t>(tg->num_snapshots())) {
  // Register the counter up front so /metrics shows it at 0 before the
  // first temporal query.
  (void)EstimatesCounter();
}

bool SnapshotDiagonals::Matches(const CrashSimOptions& options) const {
  const CrashSimOptions& own = estimator_.options();
  return options.mode == own.mode && options.mc.c == own.mc.c &&
         options.diag_samples == own.diag_samples &&
         options.lmax_override == own.lmax_override &&
         options.mc.seed == own.mc.seed;
}

SharedDiagonal SnapshotDiagonals::Get(int t, const Graph& g) {
  CRASHSIM_CHECK(t >= 0 && t < static_cast<int>(slots_.size()))
      << "snapshot " << t << " out of range";
  if (estimator_.options().mode != RevReachMode::kCorrected) return nullptr;
  Slot& slot = slots_[static_cast<size_t>(t)];
  // Holding the slot's lock across the estimate is the single-flight: a
  // concurrent Get for the same snapshot waits here and then finds the
  // slot filled. Other snapshots' slots stay independent.
  const MutexLock lock(slot.mu);
  if (slot.diag == nullptr) {
    TRACE_SPAN("snapshot_diagonals.fill");
    CRASHSIM_FAILPOINT_THROW("snapshot_diagonals.fill");
    slot.diag = estimator_.EstimateDiagonal(g);
    EstimatesCounter().Add(1);
  }
  return slot.diag;
}

}  // namespace crashsim
