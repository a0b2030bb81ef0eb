// The lcda_run command-line contract: which flag combinations are
// rejected (exit status and message), a few accepted combinations, and the
// byte-identity of quiet stdout, --trace and --json (without "dist") between
// the in-process and the distributed execution of each study mode.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lcda/util/json_lite.h"
#include "lcda/util/subprocess.h"

namespace {

using namespace lcda;

/// The lcda_run binary next to this test binary (both live in the build
/// root); empty when it is not there, so the tests skip instead of failing
/// in exotic build layouts.
std::string lcda_run_path() {
  const std::string self = util::self_executable_path(nullptr);
  if (self.empty()) return "";
  const std::filesystem::path candidate =
      std::filesystem::path(self).parent_path() / "lcda_run";
  std::error_code ec;
  return std::filesystem::exists(candidate, ec) ? candidate.string() : "";
}

std::string temp_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("lcda_cli_test_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct CliResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::string& runner, std::vector<std::string> args) {
  args.insert(args.begin(), runner);
  util::Subprocess::Options opts;
  opts.pipe_stdout = true;
  util::Subprocess child(std::move(args), opts);
  const util::Subprocess::Result r = child.wait();
  return {r.exit_code, child.read_stdout(), r.stderr_output};
}

/// A --json document re-rendered without its "dist" object, the one part
/// of a distributed document that is not reproducible by design.
std::string json_without_dist(const std::string& path) {
  const util::Json doc = util::Json::parse(slurp(path));
  util::Json out = util::Json::object();
  for (const auto& [key, value] : doc.items()) {
    if (key != "dist") out[key] = value;
  }
  return out.dump(2);
}

// ----------------------------------------------------------- rejections

struct Rejection {
  const char* name;
  std::vector<std::string> args;
  int exit_code;
  const char* message;  ///< substring of stderr
};

void PrintTo(const Rejection& row, std::ostream* os) { *os << row.name; }

class CliRejects : public ::testing::TestWithParam<Rejection> {};

TEST_P(CliRejects, WithStatusAndMessage) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) GTEST_SKIP() << "lcda_run binary not next to the test";
  const Rejection& row = GetParam();
  const std::string dir = temp_dir(row.name);
  std::vector<std::string> args = row.args;
  for (std::string& a : args) {
    // Directory arguments point at a per-row scratch directory.
    if (a == "--cache-dir=@") a = "--cache-dir=" + dir;
  }
  const CliResult r = run_cli(runner, args);
  EXPECT_EQ(r.exit_code, row.exit_code) << r.err;
  EXPECT_NE(r.err.find(row.message), std::string::npos) << r.err;
  std::filesystem::remove_all(dir);
}

const std::string kPaper = "--scenario=paper-energy";
const char* const kDistributeOnly = "require --distribute";

INSTANTIATE_TEST_SUITE_P(
    Rules, CliRejects,
    ::testing::Values(
        // Parse errors: strict values fail loudly (exit 1).
        Rejection{"seeds_zero", {kPaper, "--seeds=0"}, 1,
                  "bad value for --seeds: \"0\" (want an integer >= 1)"},
        Rejection{"episodes_garbage", {kPaper, "--episodes=3x"}, 1,
                  "bad value for --episodes"},
        Rejection{"parallelism_negative", {kPaper, "--parallelism=-1"}, 1,
                  "(want an integer >= 0)"},
        Rejection{"max_entries_negative",
                  {"--cache-dir=@", "--store-compact", "--store-max-entries=-1"},
                  1, "bad value for --store-max-entries"},
        Rejection{"metrics_interval_zero", {kPaper, "--metrics-interval=0"}, 1,
                  "(want seconds > 0)"},
        Rejection{"metrics_interval_garbage",
                  {kPaper, "--metrics-interval=abc"}, 1,
                  "(want a finite number)"},
        Rejection{"steal_threshold_below_one",
                  {kPaper, "--distribute=2", "--steal-threshold=0.5"}, 1,
                  "(want a number >= 1)"},
        Rejection{"threshold_infinite", {kPaper, "--aggregate", "--threshold=inf"},
                  1, "bad value for --threshold"},
        Rejection{"unknown_scenario", {"--scenario=no-such-scenario"}, 1,
                  "unknown scenario"},
        Rejection{"unknown_override", {kPaper, "--set", "bogus.key=1"}, 1,
                  "unknown key \"bogus.key\""},
        Rejection{"override_out_of_range",
                  {kPaper, "--set", "space.conv_layers=4294967300",
                   "--print-config"},
                  1, "config.space.conv_layers: out of range"},
        Rejection{"override_wrong_type", {kPaper, "--set", "seed=true"}, 1,
                  "config.seed: Json::as_double: not a number"},
        Rejection{"unknown_strategy", {kPaper, "--strategy=lcda,nosuch"}, 1,
                  "unknown strategy \"nosuch\""},
        // Usage errors (exit 2).
        Rejection{"unknown_flag", {kPaper, "--bogus"}, 2,
                  "unknown argument \"--bogus\""},
        Rejection{"switch_with_value", {kPaper, "--quiet=1"}, 2,
                  "unknown argument \"--quiet=1\""},
        Rejection{"value_flag_without_value", {kPaper, "--json"}, 2,
                  "unknown argument \"--json\""},
        Rejection{"set_without_value", {kPaper, "--set"}, 2,
                  "unknown argument \"--set\""},
        Rejection{"no_scenario", {"--quiet"}, 2,
                  "exactly one of --scenario / --scenario-file"},
        Rejection{"two_scenarios", {kPaper, "--scenario-file=x.json"}, 2,
                  "exactly one of --scenario / --scenario-file"},
        Rejection{"aggregate_and_speedup", {kPaper, "--aggregate", "--speedup"},
                  2, "--aggregate and --speedup are exclusive"},
        Rejection{"speedup_episodes", {kPaper, "--speedup", "--episodes=4"}, 2,
                  "--speedup uses the scenario's episode budgets"},
        Rejection{"speedup_threshold", {kPaper, "--speedup", "--threshold=0.2"},
                  2, "--speedup takes --threshold-fraction"},
        // The speedup study always pairs LCDA with NACIM, so any strategy
        // list would be ignored; it is refused before it is even parsed.
        Rejection{"speedup_unknown_strategy",
                  {kPaper, "--speedup", "--strategy=nosuch"}, 2,
                  "--speedup always pairs LCDA with NACIM"},
        Rejection{"speedup_strategy",
                  {kPaper, "--speedup", "--strategy=lcda", "--set",
                   "lcda_episodes=4", "--set", "nacim_episodes=8"},
                  2, "--speedup always pairs LCDA with NACIM"},
        Rejection{"speedup_strategy_genetic",
                  {kPaper, "--speedup", "--strategy=genetic"}, 2,
                  "--speedup always pairs LCDA with NACIM"},
        Rejection{"threshold_fraction_runs",
                  {kPaper, "--threshold-fraction=0.9"}, 2,
                  "--threshold-fraction requires --speedup"},
        Rejection{"threshold_fraction_aggregate",
                  {kPaper, "--aggregate", "--threshold-fraction=0.9"}, 2,
                  "--threshold-fraction requires --speedup"},
        Rejection{"threshold_fraction_default_value",
                  {kPaper, "--threshold-fraction=0.95"}, 2,
                  "--threshold-fraction requires --speedup"},
        Rejection{"threshold_runs", {kPaper, "--threshold=0.2"}, 2,
                  "--threshold requires --aggregate"},
        Rejection{"shard_dir", {kPaper, "--shard-dir=x"}, 2, kDistributeOnly},
        Rejection{"max_retries", {kPaper, "--max-retries=2"}, 2,
                  kDistributeOnly},
        Rejection{"keep_shard_dir", {kPaper, "--keep-shard-dir"}, 2,
                  kDistributeOnly},
        Rejection{"no_steal", {kPaper, "--no-steal"}, 2, kDistributeOnly},
        Rejection{"steal_threshold", {kPaper, "--steal-threshold=2"}, 2,
                  kDistributeOnly},
        Rejection{"store_compact_no_cache_dir", {"--store-compact"}, 2,
                  "--store-compact/--store-fsck require --cache-dir=DIR"},
        Rejection{"store_fsck_no_cache_dir", {"--store-fsck"}, 2,
                  "--store-compact/--store-fsck require --cache-dir=DIR"},
        // An empty directory (an unset $DIR in a script) is no directory:
        // compacting "" would rewrite /index and /segments.
        Rejection{"store_compact_empty_cache_dir",
                  {"--cache-dir=", "--store-compact"}, 2,
                  "--store-compact/--store-fsck require --cache-dir=DIR"},
        Rejection{"store_fsck_empty_cache_dir", {"--cache-dir=", "--store-fsck"},
                  2, "--store-compact/--store-fsck require --cache-dir=DIR"},
        Rejection{"store_buckets_without_compact",
                  {"--cache-dir=@", "--store-fsck", "--store-buckets=4"}, 2,
                  "--store-buckets requires --store-compact"},
        Rejection{"store_max_entries_without_compact",
                  {"--cache-dir=@", "--store-fsck", "--store-max-entries=9"}, 2,
                  "--store-max-entries requires --store-compact"},
        Rejection{"store_max_bytes_without_compact",
                  {"--cache-dir=@", "--store-fsck", "--store-max-bytes=9"}, 2,
                  "--store-max-bytes requires --store-compact"},
        Rejection{"checkpoint_every_no_dir", {kPaper, "--checkpoint-every=2"},
                  2, "require --checkpoint-dir"},
        Rejection{"resume_no_dir", {kPaper, "--resume"}, 2,
                  "require --checkpoint-dir"}),
    [](const ::testing::TestParamInfo<Rejection>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------------------ acceptance

struct Acceptance {
  const char* name;
  std::vector<std::string> args;
  const char* output;  ///< substring of stdout
};

void PrintTo(const Acceptance& row, std::ostream* os) { *os << row.name; }

class CliAccepts : public ::testing::TestWithParam<Acceptance> {};

TEST_P(CliAccepts, AndRuns) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) GTEST_SKIP() << "lcda_run binary not next to the test";
  const Acceptance& row = GetParam();
  const std::string dir = temp_dir(row.name);
  std::vector<std::string> args = row.args;
  for (std::string& a : args) {
    const std::size_t at = a.find('@');
    if (at != std::string::npos) a = a.substr(0, at) + dir;
  }
  const CliResult r = run_cli(runner, args);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find(row.output), std::string::npos) << r.out;
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Combinations, CliAccepts,
    ::testing::Values(
        Acceptance{"list", {"--list"}, "paper-energy"},
        Acceptance{"print_config", {"--print-config", "--scenario=tight-area"},
                   "\"name\": \"tight-area\""},
        Acceptance{"runs_with_overrides",
                   {kPaper, "--episodes=3", "--quiet", "--set", "batch_size=1",
                    "--set=objective=latency"},
                   "(3 episodes)"},
        Acceptance{"aggregate_threshold",
                   {kPaper, "--aggregate", "--seeds=2", "--episodes=4",
                    "--threshold=0.1", "--quiet"},
                   "threshold +0.1000"},
        Acceptance{"speedup_threshold_fraction",
                   {kPaper, "--speedup", "--seeds=2", "--threshold-fraction=0.9",
                    "--set", "lcda_episodes=6", "--set", "nacim_episodes=12"},
                   "mean speedup over"},
        Acceptance{"empty_shard_dir_without_distribute",
                   {kPaper, "--episodes=3", "--quiet", "--shard-dir="},
                   "(3 episodes)"},
        Acceptance{"distribute_flags",
                   {kPaper, "--episodes=3", "--quiet", "--distribute=1",
                    "--max-retries=0", "--no-steal", "--steal-threshold=3",
                    "--shard-dir=@"},
                   "(3 episodes)"},
        Acceptance{"checkpoint_flags",
                   {kPaper, "--strategy=genetic", "--episodes=4", "--quiet",
                    "--checkpoint-dir=@", "--checkpoint-every=2", "--resume"},
                   "(4 episodes)"},
        Acceptance{"store_compact_budget",
                   {"--cache-dir=@", "--store-compact", "--store-buckets=4",
                    "--store-max-entries=10", "--store-max-bytes=100000"},
                   "store-compact"},
        Acceptance{"store_fsck", {"--cache-dir=@", "--store-fsck"}, "clean"}),
    [](const ::testing::TestParamInfo<Acceptance>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------- in-process == distributed, per mode

struct ModeCase {
  const char* name;
  std::vector<std::string> args;
};

void PrintTo(const ModeCase& mode, std::ostream* os) { *os << mode.name; }

class CliDistributedParity : public ::testing::TestWithParam<ModeCase> {};

TEST_P(CliDistributedParity, QuietStdoutTraceAndJsonMatch) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) GTEST_SKIP() << "lcda_run binary not next to the test";
  const ModeCase& mode = GetParam();
  const std::string dir = temp_dir(std::string("parity_") + mode.name);
  const std::string json = dir + "/out.json";
  const std::string trace = dir + "/out.csv";

  struct Outputs {
    std::string out, trace, json;
  };
  const auto run = [&](bool distribute) {
    std::vector<std::string> args = mode.args;
    args.insert(args.end(), {kPaper, "--quiet", "--json=" + json,
                             "--trace=" + trace});
    if (distribute) args.push_back("--distribute=2");
    const CliResult r = run_cli(runner, args);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    Outputs o{r.out, slurp(trace), json_without_dist(json)};
    std::filesystem::remove(json);
    std::filesystem::remove(trace);
    return o;
  };
  const Outputs single = run(false);
  const Outputs distributed = run(true);
  EXPECT_FALSE(single.trace.empty());
  EXPECT_EQ(single.out, distributed.out);
  EXPECT_EQ(single.trace, distributed.trace);
  EXPECT_EQ(single.json, distributed.json);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CliDistributedParity,
    ::testing::Values(
        ModeCase{"runs", {"--strategy=lcda,genetic", "--seeds=3", "--episodes=6"}},
        ModeCase{"aggregate",
                 {"--aggregate", "--seeds=4", "--episodes=6", "--threshold=0.3"}},
        ModeCase{"speedup",
                 {"--speedup", "--seeds=3", "--set", "lcda_episodes=8", "--set",
                  "nacim_episodes=16"}}),
    [](const ::testing::TestParamInfo<ModeCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
