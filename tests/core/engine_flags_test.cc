#include "core/engine_flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace crashsim {
namespace {

// Parses `args` (after a program name) against the engine and executor
// flags.
FlagSet Parsed(std::vector<std::string> args) {
  FlagSet flags;
  DefineEngineFlags(&flags);
  DefineExecutorFlags(&flags);
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  EXPECT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  return flags;
}

TEST(EngineFlagsTest, DefaultsGiveTheCorrectedModeEngine) {
  const StatusOr<CrashSimOptions> options = EngineOptionsFromFlags(Parsed({}));
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->mc.c, 0.6);
  EXPECT_EQ(options->mc.epsilon, 0.025);
  EXPECT_EQ(options->mc.delta, 0.01);
  EXPECT_EQ(options->mc.trials_override, 0);
  EXPECT_EQ(options->mc.seed, 42u);
  EXPECT_EQ(options->mode, RevReachMode::kCorrected);
  EXPECT_EQ(options->num_threads, 1);
  EXPECT_EQ(options->batch_size, 64);
}

TEST(EngineFlagsTest, FlagsReachEveryField) {
  const StatusOr<CrashSimOptions> options = EngineOptionsFromFlags(
      Parsed({"--c", "0.8", "--epsilon", "0.05", "--delta", "0.1",
              "--trials", "300", "--seed", "9", "--paper_mode", "--threads",
              "3", "--batch_size", "8"}));
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->mc.c, 0.8);
  EXPECT_EQ(options->mc.epsilon, 0.05);
  EXPECT_EQ(options->mc.delta, 0.1);
  EXPECT_EQ(options->mc.trials_override, 300);
  EXPECT_EQ(options->mc.seed, 9u);
  EXPECT_EQ(options->mode, RevReachMode::kPaper);
  EXPECT_EQ(options->num_threads, 3);
  EXPECT_EQ(options->batch_size, 8);
}

TEST(EngineFlagsTest, OutOfDomainValuesAreInvalidArgument) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--c", "1.5"},
                                             {"--epsilon", "0"},
                                             {"--delta", "1"},
                                             {"--trials", "-1"},
                                             {"--threads", "0"},
                                             {"--batch_size", "0"}}) {
    const StatusOr<CrashSimOptions> options =
        EngineOptionsFromFlags(Parsed(args));
    ASSERT_FALSE(options.ok()) << args[0];
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument)
        << args[0];
  }
}

TEST(ExecutorFlagsTest, DefaultsMatchExecutorOptions) {
  const StatusOr<ExecutorOptions> options =
      ExecutorOptionsFromFlags(Parsed({}));
  ASSERT_TRUE(options.ok()) << options.status();
  const ExecutorOptions defaults;
  EXPECT_EQ(options->max_concurrent, defaults.max_concurrent);
  EXPECT_EQ(options->max_queue, defaults.max_queue);
  EXPECT_EQ(options->default_deadline_ms, 0);
  EXPECT_EQ(options->degrade_at, defaults.degrade_at);
  EXPECT_EQ(options->degrade_min_fraction, defaults.degrade_min_fraction);
  EXPECT_EQ(options->max_retries, defaults.max_retries);
  EXPECT_EQ(options->memory_budget_bytes, 0);
}

TEST(ExecutorFlagsTest, FlagsReachEveryFieldAndAreValidated) {
  const StatusOr<ExecutorOptions> options = ExecutorOptionsFromFlags(
      Parsed({"--max_concurrent", "2", "--max_queue", "0", "--degrade_at",
              "0", "--max_retries", "5", "--memory_budget_mb", "3"}));
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->max_concurrent, 2);
  EXPECT_EQ(options->max_queue, 0);
  EXPECT_EQ(options->degrade_at, 0.0);
  EXPECT_EQ(options->max_retries, 5);
  EXPECT_EQ(options->memory_budget_bytes, int64_t{3} << 20);

  const StatusOr<ExecutorOptions> bad =
      ExecutorOptionsFromFlags(Parsed({"--degrade_min_fraction", "0"}));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace crashsim
