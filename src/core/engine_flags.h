#ifndef CRASHSIM_CORE_ENGINE_FLAGS_H_
#define CRASHSIM_CORE_ENGINE_FLAGS_H_

#include "core/crashsim.h"
#include "core/executor.h"
#include "util/flags.h"
#include "util/status.h"

namespace crashsim {

// The command-line surface shared by crashsim_cli and crashsim_serve: one
// definition of each engine and executor flag, and one conversion from the
// parsed flags to options that have already passed Validate(). A bad value
// therefore comes back as kInvalidArgument before any engine is built.

// --c --epsilon --delta --trials --threads --batch_size --seed --paper_mode:
// Theorem 1's (c, epsilon, delta, n_r) plus CrashSim's execution knobs. The
// baselines read the SimRankOptions part (`mc`).
void DefineEngineFlags(FlagSet* flags);
[[nodiscard]] StatusOr<CrashSimOptions> EngineOptionsFromFlags(
    const FlagSet& flags);

// --max_concurrent --max_queue --degrade_at --degrade_min_fraction
// --max_retries --memory_budget_mb. The default deadline is left at 0: each
// binary names its own deadline flag.
void DefineExecutorFlags(FlagSet* flags);
[[nodiscard]] StatusOr<ExecutorOptions> ExecutorOptionsFromFlags(
    const FlagSet& flags);

}  // namespace crashsim

#endif  // CRASHSIM_CORE_ENGINE_FLAGS_H_
