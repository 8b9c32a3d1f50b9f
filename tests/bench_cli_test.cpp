// Tests for the strict referbench flag parsers (bench/bench_common.hpp
// and `referbench fuzz` in tools/verify_commands.cpp): every accepted
// flag round-trips into BenchOptions, and any typo -- unknown flag,
// missing value, non-numeric or out-of-range value -- exits with code 2
// instead of silently running a different experiment.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "verify_commands.hpp"

namespace refer::bench {
namespace {

/// parse_options mutates nothing but reads argv[1..argc-1]; build a
/// mutable argv the way main() would hand it over.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "referbench");
    pointers_.reserve(storage_.size());
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(ParseOptions, Defaults) {
  Argv a({});
  const BenchOptions opt = parse_options(a.argc(), a.argv());
  EXPECT_EQ(opt.reps, 3);
  EXPECT_EQ(opt.jobs, 1);
  EXPECT_TRUE(opt.csv_prefix.empty());
  EXPECT_TRUE(opt.json_path.empty());
  EXPECT_EQ(opt.base.measure_s, 60);
  EXPECT_EQ(opt.base.packets_per_second, 10);
  EXPECT_EQ(opt.base.seed, 1u);
}

TEST(ParseOptions, ParsesEveryFlag) {
  Argv a({"--reps", "5", "--measure", "30", "--pps", "8", "--bytes", "1000",
          "--seed", "7", "--jobs", "4", "--csv", "out/prefix", "--json",
          "results.json"});
  const BenchOptions opt = parse_options(a.argc(), a.argv());
  EXPECT_EQ(opt.reps, 5);
  EXPECT_EQ(opt.base.measure_s, 30);
  EXPECT_EQ(opt.base.packets_per_second, 8);
  EXPECT_EQ(opt.base.packet_bytes, 1000u);
  EXPECT_EQ(opt.base.seed, 7u);
  EXPECT_EQ(opt.jobs, 4);
  EXPECT_EQ(opt.csv_prefix, "out/prefix");
  EXPECT_EQ(opt.json_path, "results.json");
}

TEST(ParseOptions, QuickAndFullPresets) {
  Argv quick({"--quick"});
  const BenchOptions q = parse_options(quick.argc(), quick.argv());
  EXPECT_EQ(q.reps, 1);
  EXPECT_EQ(q.base.measure_s, 45);

  Argv full({"--full"});
  const BenchOptions f = parse_options(full.argc(), full.argv());
  EXPECT_EQ(f.reps, 5);
  EXPECT_EQ(f.base.measure_s, 200);

  // Later flags win over presets, like any argv order would suggest.
  Argv mixed({"--quick", "--reps", "2"});
  const BenchOptions m = parse_options(mixed.argc(), mixed.argv());
  EXPECT_EQ(m.reps, 2);
  EXPECT_EQ(m.base.measure_s, 45);
}

TEST(ParseOptionsDeathTest, UnknownFlagExits2) {
  Argv a({"--repz", "3"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown flag: --repz");
}

TEST(ParseOptionsDeathTest, MissingValueExits2) {
  Argv a({"--reps"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--reps requires a value");
}

TEST(ParseOptionsDeathTest, MissingStringValueExits2) {
  Argv a({"--json"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--json requires a value");
}

TEST(ParseOptionsDeathTest, NonNumericValueExits2) {
  Argv a({"--jobs", "many"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--jobs: not a number: 'many'");
}

TEST(ParseOptionsDeathTest, TrailingGarbageInNumberExits2) {
  Argv a({"--measure", "60s"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "not a number: '60s'");
}

TEST(ParseOptions, SeedRoundTripsPastTwoToThe53) {
  // 2^53 + 1 is the first integer a double cannot hold; a repro file can
  // name it, so the CLI must too.
  Argv a({"--seed", "9007199254740993"});
  EXPECT_EQ(parse_options(a.argc(), a.argv()).base.seed,
            9007199254740993ULL);
  Argv max({"--seed", "18446744073709551615"});
  EXPECT_EQ(parse_options(max.argc(), max.argv()).base.seed,
            18446744073709551615ULL);
}

TEST(ParseOptionsDeathTest, RemovedKernelFlagsAreUnknown) {
  Argv index({"--no-spatial-index"});
  EXPECT_EXIT(parse_options(index.argc(), index.argv()),
              ::testing::ExitedWithCode(2), "unknown flag: --no-spatial-index");
  Argv cache({"--no-neighbor-cache"});
  EXPECT_EXIT(parse_options(cache.argc(), cache.argv()),
              ::testing::ExitedWithCode(2),
              "unknown flag: --no-neighbor-cache");
}

TEST(ParseOptionsDeathTest, IntegralFlagsRejectBadValuesWithExit2) {
  const std::vector<std::vector<std::string>> bad = {
      {"--seed", "-1"},      {"--seed", "1.5"},
      {"--seed", "18446744073709551616"},
      {"--bytes", "-5"},     {"--bytes", "0"},    {"--bytes", "2.5"},
      {"--reps", "0"},       {"--reps", "-2"},    {"--reps", "1.5"},
      {"--reps", "1e10"},    {"--jobs", "-1"},    {"--jobs", "0.5"},
      {"--jobs", "3000000000"}};
  for (const std::vector<std::string>& args : bad) {
    Argv a(args);
    EXPECT_EXIT(parse_options(a.argc(), a.argv()),
                ::testing::ExitedWithCode(2),
                args[0] + ": expected a whole number >= ")
        << args[0] << " " << args[1];
  }
}

TEST(ParseOptionsDeathTest, RealFlagsRejectNonFiniteAndNonPositiveWithExit2) {
  const std::vector<std::vector<std::string>> bad = {
      {"--measure", "nan"}, {"--measure", "inf"},  {"--measure", "0"},
      {"--measure", "-5"},  {"--measure", "1e999"}, {"--pps", "nan"},
      {"--pps", "-inf"},    {"--pps", "0"},         {"--timeline", "nan"},
      {"--timeline", "0"},  {"--timeline", "-1"}};
  for (const std::vector<std::string>& args : bad) {
    Argv a(args);
    EXPECT_EXIT(parse_options(a.argc(), a.argv()),
                ::testing::ExitedWithCode(2), args[0] + ": ")
        << args[0] << " " << args[1];
  }
}

TEST(FuzzArgsDeathTest, BadValuesExit2BeforeAnyCaseRuns) {
  // `referbench fuzz` shares the value parsers above: a typo must not
  // run a different (or an empty) campaign and report it clean.
  const std::vector<std::vector<std::string>> bad = {
      {"--seeds", "abc"}, {"--seeds", "0"},       {"--jobs", "-3"},
      {"--seed", "1.5"},  {"--seed", "-1"},       {"--plant", "x"},
      {"--plant", "-1"},  {"--plant", "0"},       {"--plant", "7"},
      {"--budget-s", "nan"},  {"--budget-s", "0"}};
  for (const std::vector<std::string>& args : bad) {
    Argv a(args);
    // run_fuzz_command's argv starts after the `fuzz` word.
    EXPECT_EXIT(tools::run_fuzz_command(a.argc() - 1, a.argv() + 1),
                ::testing::ExitedWithCode(2), args[0] + ": ")
        << args[0] << " " << args[1];
  }
}

TEST(FuzzArgsDeathTest, UnknownPlantedBugIdExits2) {
  // Only the ids in verify::kPlantedBugs exist; any other whole number
  // used to run an ordinary campaign and report it clean.
  Argv a({"--plant", "7"});
  EXPECT_EXIT(tools::run_fuzz_command(a.argc() - 1, a.argv() + 1),
              ::testing::ExitedWithCode(2),
              "--plant: expected a planted bug id \\(1, 2\\), got '7'");
}

}  // namespace
}  // namespace refer::bench
