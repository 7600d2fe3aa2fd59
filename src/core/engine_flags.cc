#include "core/engine_flags.h"

namespace crashsim {

void DefineEngineFlags(FlagSet* flags) {
  flags->DefineDouble("c", 0.6, "SimRank decay factor");
  flags->DefineDouble("epsilon", 0.025, "max absolute error");
  flags->DefineDouble("delta", 0.01, "failure probability");
  flags->DefineInt("trials", 0, "Monte-Carlo trials (0 = from epsilon/delta)");
  flags->DefineInt("threads", 1, "CrashSim candidate-evaluation threads");
  flags->DefineInt("batch_size", 64,
                   "CrashSim walks per tile of the batched walk kernel "
                   "(1 = scalar loop; scores are identical at every "
                   "setting)");
  flags->DefineInt("seed", 42, "RNG seed");
  flags->DefineBool("paper_mode", false,
                    "use the paper-verbatim revReach recurrence");
}

StatusOr<CrashSimOptions> EngineOptionsFromFlags(const FlagSet& flags) {
  CrashSimOptions options;
  options.mc.c = flags.GetDouble("c");
  options.mc.epsilon = flags.GetDouble("epsilon");
  options.mc.delta = flags.GetDouble("delta");
  options.mc.trials_override = flags.GetInt("trials");
  options.mc.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.mode = flags.GetBool("paper_mode") ? RevReachMode::kPaper
                                             : RevReachMode::kCorrected;
  options.num_threads = static_cast<int>(flags.GetInt("threads"));
  options.batch_size = static_cast<int>(flags.GetInt("batch_size"));
  RETURN_IF_ERROR(options.Validate());
  return options;
}

void DefineExecutorFlags(FlagSet* flags) {
  flags->DefineIntInRange("max_concurrent", 4, 1, 1024,
                          "queries allowed to run concurrently");
  flags->DefineIntInRange("max_queue", 16, 0, 1 << 20,
                          "admission queue capacity");
  flags->DefineDouble("degrade_at", 2.0,
                      "load factor where trial-budget degradation starts "
                      "(<= 0 disables; keep 0 for bit-exact serving)");
  flags->DefineDouble("degrade_min_fraction", 0.25,
                      "floor for the degraded trial fraction");
  flags->DefineIntInRange("max_retries", 2, 0, 100,
                          "retry budget for transient (UNAVAILABLE) failures");
  flags->DefineIntInRange("memory_budget_mb", 0, 0, 1 << 20,
                          "per-query memory budget in MiB (0 = unlimited)");
}

StatusOr<ExecutorOptions> ExecutorOptionsFromFlags(const FlagSet& flags) {
  ExecutorOptions options;
  options.max_concurrent = static_cast<int>(flags.GetInt("max_concurrent"));
  options.max_queue = static_cast<int>(flags.GetInt("max_queue"));
  options.degrade_at = flags.GetDouble("degrade_at");
  options.degrade_min_fraction = flags.GetDouble("degrade_min_fraction");
  options.max_retries = static_cast<int>(flags.GetInt("max_retries"));
  options.memory_budget_bytes = flags.GetInt("memory_budget_mb") * (1 << 20);
  RETURN_IF_ERROR(options.Validate());
  return options;
}

}  // namespace crashsim
