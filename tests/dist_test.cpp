// The distributed study runner: shard planning, spec round trips, the
// subprocess helper, coordinator retries, and — the load-bearing contract —
// merged results byte-identical to single-process runs of the same study.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <chrono>
#include <thread>

#include "lcda/core/report.h"
#include "lcda/core/stats_runner.h"
#include "lcda/dist/coordinator.h"
#include "lcda/dist/merge.h"
#include "lcda/dist/progress.h"
#include "lcda/dist/protocol.h"
#include "lcda/dist/shard.h"
#include "lcda/util/subprocess.h"

namespace {

using namespace lcda;

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("lcda_dist_test_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A small but non-trivial study: two strategies' worth of signal is not
/// needed, one strategy over several seeds is the sharding axis.
core::Scenario small_scenario() {
  core::Scenario s = core::scenario_by_name("paper-energy");
  s.config.lcda_episodes = 6;
  s.config.nacim_episodes = 16;
  return s;
}

/// The lcda_run binary next to this test binary (both live in the build
/// root); empty when it is not there, so end-to-end tests skip instead of
/// failing in exotic build layouts.
std::string lcda_run_path() {
  const std::string self = util::self_executable_path(nullptr);
  if (self.empty()) return "";
  const std::filesystem::path candidate =
      std::filesystem::path(self).parent_path() / "lcda_run";
  std::error_code ec;
  return std::filesystem::exists(candidate, ec) ? candidate.string() : "";
}

/// Scoped setenv for the worker-injection variables: set for the tests
/// that spawn injected workers, guaranteed unset afterwards so later
/// tests' workers run clean.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// Runs every shard in-process (run_shard — the exact worker body) and
/// returns the manifests after a JSON dump/parse round trip, exactly the
/// path bytes take through a real worker's result file.
std::vector<util::Json> run_shards_in_process(
    const std::vector<dist::ShardSpec>& specs) {
  std::vector<util::Json> manifests;
  for (const dist::ShardSpec& spec : specs) {
    manifests.push_back(util::Json::parse(dist::run_shard(spec).dump(1)));
  }
  return manifests;
}

// ----------------------------------------------------------- subprocess

TEST(Subprocess, CapturesExitStatusAndStderr) {
  const auto result =
      util::Subprocess::run({"/bin/sh", "-c", "echo boom >&2; exit 3"});
  EXPECT_EQ(result.exit_code, 3);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.stderr_output, "boom\n");
  EXPECT_EQ(result.describe(), "exit 3");
}

TEST(Subprocess, SuccessAndMissingProgram) {
  EXPECT_TRUE(util::Subprocess::run({"/bin/true"}).ok());
  // exec failure surfaces as the shell's 127, with a message.
  const auto result =
      util::Subprocess::run({"/definitely/not/a/program-xyz"});
  EXPECT_EQ(result.exit_code, 127);
  EXPECT_NE(result.stderr_output.find("exec failed"), std::string::npos);
}

TEST(Subprocess, SignalDeathIsReported) {
  const auto result =
      util::Subprocess::run({"/bin/sh", "-c", "kill -KILL $$"});
  EXPECT_EQ(result.exit_code, -1);
  EXPECT_EQ(result.term_signal, 9);
  EXPECT_EQ(result.describe(), "signal 9");
}

/// Polls `condition` with short sleeps until it holds or ~10s elapse.
template <typename F>
bool eventually(F condition) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return condition();
}

TEST(Subprocess, PipedStdinStdoutRoundTrip) {
  util::Subprocess::Options popts;
  popts.pipe_stdin = true;
  popts.pipe_stdout = true;
  util::Subprocess cat({"/bin/cat"}, popts);
  EXPECT_TRUE(cat.write_stdin("hello pipe\n"));
  std::string got;
  EXPECT_TRUE(eventually([&] {
    got += cat.read_stdout();
    return got == "hello pipe\n";
  })) << "got: " << got;
  // EOF on stdin ends cat; the exit is visible to the non-blocking poll.
  cat.close_stdin();
  std::optional<util::Subprocess::Result> result;
  EXPECT_TRUE(eventually([&] {
    result = cat.try_wait();
    return result.has_value();
  }));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
}

TEST(Subprocess, WriteToDeadReaderReturnsFalseNotSignal) {
  util::Subprocess::Options popts;
  popts.pipe_stdin = true;
  util::Subprocess child({"/bin/true"}, popts);  // never reads stdin
  // Once the child is gone the pipe breaks; the write must surface that
  // as `false` (SIGPIPE is ignored), not kill the test process.
  EXPECT_TRUE(eventually([&] { return !child.write_stdin("x"); }));
  EXPECT_FALSE(child.write_stdin("y"));  // stays broken
  std::optional<util::Subprocess::Result> result;
  EXPECT_TRUE(eventually([&] {
    result = child.try_wait();
    return result.has_value();
  }));
}

// ------------------------------------------------- worker pipe protocol

TEST(Protocol, CommandAndReplyRoundTrip) {
  dist::WorkerCommand run;
  run.kind = dist::WorkerCommand::Kind::kRun;
  run.spec_path = "/tmp/spec with spaces.json";
  const std::string line = dist::encode_worker_command(run);
  EXPECT_EQ(line.back(), '\n');
  const auto back = dist::parse_worker_command(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, dist::WorkerCommand::Kind::kRun);
  EXPECT_EQ(back->spec_path, run.spec_path);

  dist::WorkerCommand shutdown;
  shutdown.kind = dist::WorkerCommand::Kind::kShutdown;
  const auto shutdown_back =
      dist::parse_worker_command(dist::encode_worker_command(shutdown));
  ASSERT_TRUE(shutdown_back.has_value());
  EXPECT_EQ(shutdown_back->kind, dist::WorkerCommand::Kind::kShutdown);

  dist::WorkerReply done;
  done.kind = dist::WorkerReply::Kind::kDone;
  done.manifest_path = "/tmp/manifest.json";
  const auto done_back = dist::parse_worker_reply(dist::encode_worker_reply(done));
  ASSERT_TRUE(done_back.has_value());
  EXPECT_EQ(done_back->kind, dist::WorkerReply::Kind::kDone);
  EXPECT_EQ(done_back->manifest_path, done.manifest_path);

  dist::WorkerReply failed;
  failed.kind = dist::WorkerReply::Kind::kFailed;
  failed.reason = "store exploded: \"quote\"";
  const auto failed_back =
      dist::parse_worker_reply(dist::encode_worker_reply(failed));
  ASSERT_TRUE(failed_back.has_value());
  EXPECT_EQ(failed_back->kind, dist::WorkerReply::Kind::kFailed);
  EXPECT_EQ(failed_back->reason, failed.reason);
}

TEST(Protocol, MalformedLinesParseToNullopt) {
  EXPECT_FALSE(dist::parse_worker_command("").has_value());
  EXPECT_FALSE(dist::parse_worker_command("not json\n").has_value());
  EXPECT_FALSE(dist::parse_worker_command("[1,2,3]\n").has_value());
  EXPECT_FALSE(dist::parse_worker_command("{\"cmd\":\"run\"}\n").has_value());
  EXPECT_FALSE(
      dist::parse_worker_command(
          "{\"format\":\"other-v1\",\"cmd\":\"shutdown\"}\n")
          .has_value());
  // A well-formed line naming a command v1 does not have is unknown.
  EXPECT_FALSE(
      dist::parse_worker_command(
          "{\"format\":\"lcda-worker-cmd-v1\",\"cmd\":\"ping\"}\n")
          .has_value());
  // `run` without a spec_path is incomplete, not a default-empty run.
  EXPECT_FALSE(
      dist::parse_worker_command(
          "{\"format\":\"lcda-worker-cmd-v1\",\"cmd\":\"run\"}\n")
          .has_value());
  EXPECT_FALSE(dist::parse_worker_reply("{\"reply\":\"done\"}\n").has_value());
  // `done` without its manifest path is torn, not an empty success.
  EXPECT_FALSE(
      dist::parse_worker_reply(
          "{\"format\":\"lcda-worker-cmd-v1\",\"reply\":\"done\"}\n")
          .has_value());
}

TEST(Protocol, LineBufferReassemblesTornLines) {
  dist::LineBuffer lines;
  lines.feed("first li");
  EXPECT_FALSE(lines.next_line().has_value());  // incomplete: keep waiting
  lines.feed("ne\nsecond\nthi");
  auto line = lines.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "first line");
  line = lines.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "second");
  EXPECT_FALSE(lines.next_line().has_value());
  EXPECT_EQ(lines.pending(), "thi");
  lines.feed("rd\n");
  line = lines.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "third");
  EXPECT_TRUE(lines.pending().empty());
}

TEST(Protocol, WorkerLoopReassemblesTornCommandsAndDrainsOnShutdown) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }
  util::Subprocess::Options popts;
  popts.pipe_stdin = true;
  popts.pipe_stdout = true;
  util::Subprocess worker({runner, "--worker-loop"}, popts);

  dist::LineBuffer lines;
  const auto next_reply = [&]() -> std::optional<dist::WorkerReply> {
    std::optional<std::string> line;
    if (!eventually([&] {
          lines.feed(worker.read_stdout());
          line = lines.next_line();
          return line.has_value();
        })) {
      return std::nullopt;
    }
    return dist::parse_worker_reply(*line);
  };

  // A spec the worker cannot load is a `failed` reply with a reason, not a
  // dead process. Torn across two writes, the `run` still parses once the
  // newline lands: the reason names the load, not a malformed line.
  dist::WorkerCommand run;
  run.kind = dist::WorkerCommand::Kind::kRun;
  run.spec_path = temp_dir("loop_missing_spec") + "/no-such-spec.json";
  const std::string run_line = dist::encode_worker_command(run);
  ASSERT_TRUE(worker.write_stdin(run_line.substr(0, 5)));
  ASSERT_TRUE(worker.write_stdin(run_line.substr(5)));
  auto reply = next_reply();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, dist::WorkerReply::Kind::kFailed);
  EXPECT_FALSE(reply->reason.empty());
  EXPECT_NE(reply->reason, "malformed command line");

  // Garbage does not kill the loop; it reports and keeps serving.
  ASSERT_TRUE(worker.write_stdin("definitely not json\n"));
  reply = next_reply();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, dist::WorkerReply::Kind::kFailed);
  EXPECT_EQ(reply->reason, "malformed command line");
  ASSERT_TRUE(worker.write_stdin(run_line));
  reply = next_reply();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, dist::WorkerReply::Kind::kFailed);
  EXPECT_NE(reply->reason, "malformed command line");

  // `shutdown` drains the loop: clean exit 0, no kill needed.
  dist::WorkerCommand shutdown;
  shutdown.kind = dist::WorkerCommand::Kind::kShutdown;
  ASSERT_TRUE(worker.write_stdin(dist::encode_worker_command(shutdown)));
  std::optional<util::Subprocess::Result> result;
  EXPECT_TRUE(eventually([&] {
    result = worker.try_wait();
    return result.has_value();
  }));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->describe();
}

// ------------------------------------------------------- specs and plans

TEST(ShardSpec, RoundTripsThroughJson) {
  dist::ShardSpec spec;
  spec.index = 2;
  spec.count = 4;
  spec.mode = dist::ShardMode::kAggregate;
  spec.scenario = small_scenario();
  spec.strategy = core::Strategy::kNacimRl;
  spec.episodes = 16;
  spec.total_seeds = 8;
  spec.seeds = {4, 5};
  spec.threshold = 0.25;
  spec.threshold_fraction = 0.9;
  spec.result_path = "/tmp/r.json";
  spec.attempt = 1;

  const dist::ShardSpec back =
      dist::shard_spec_from_json(dist::shard_spec_to_json(spec));
  EXPECT_EQ(back.index, spec.index);
  EXPECT_EQ(back.count, spec.count);
  EXPECT_EQ(back.mode, spec.mode);
  EXPECT_EQ(back.strategy, spec.strategy);
  EXPECT_EQ(back.episodes, spec.episodes);
  EXPECT_EQ(back.total_seeds, spec.total_seeds);
  EXPECT_EQ(back.seeds, spec.seeds);
  EXPECT_EQ(back.threshold, spec.threshold);
  EXPECT_EQ(back.threshold_fraction, spec.threshold_fraction);
  EXPECT_EQ(back.result_path, spec.result_path);
  EXPECT_EQ(back.attempt, spec.attempt);
  EXPECT_EQ(dist::shard_spec_checksum(back), dist::shard_spec_checksum(spec));

  // A NaN threshold ("no threshold") round-trips through key absence.
  spec.threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(
      dist::shard_spec_from_json(dist::shard_spec_to_json(spec)).threshold));
}

TEST(ShardSpec, TamperedSpecIsRejected) {
  dist::ShardSpec spec;
  spec.scenario = small_scenario();
  spec.seeds = {0};
  util::Json j = dist::shard_spec_to_json(spec);
  j["episodes"] = 999;  // body no longer matches the embedded checksum
  EXPECT_THROW((void)dist::shard_spec_from_json(j), std::invalid_argument);
  // Deleting the checksum along with the edit does not get it through.
  util::Json stripped = util::Json::object();
  for (const auto& [key, value] : j.items()) {
    if (key != "spec_checksum") stripped[key] = value;
  }
  EXPECT_THROW((void)dist::shard_spec_from_json(stripped),
               std::invalid_argument);
  EXPECT_THROW((void)dist::shard_spec_from_json(util::Json::parse("{}")),
               std::invalid_argument);
}

TEST(ShardPlan, PartitionsSeedsExactlyOnce) {
  const core::Scenario scenario = small_scenario();
  const auto plan = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, 6}, {core::Strategy::kRandom, 16}},
      /*seeds=*/5, /*shards=*/3, /*threshold=*/NAN, 0.95);
  // Two strategies x min(3, 5) chunks each.
  ASSERT_EQ(plan.size(), 6u);
  for (const auto& spec : plan) EXPECT_EQ(spec.count, 6);
  std::vector<int> seen;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan[i].strategy, core::Strategy::kLcda);
    EXPECT_EQ(plan[i].episodes, 6);
    for (int s : plan[i].seeds) seen.push_back(s);
  }
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(plan[3].strategy, core::Strategy::kRandom);
  EXPECT_EQ(plan[3].episodes, 16);

  // Never more shards than seeds.
  const auto tight = dist::plan_shards(scenario, dist::ShardMode::kRuns,
                                       {{core::Strategy::kLcda, 6}},
                                       /*seeds=*/2, /*shards=*/8, NAN, 0.95);
  EXPECT_EQ(tight.size(), 2u);
}

// ------------------------------------------------- merge == single process

TEST(Merge, AggregateIsByteIdenticalToSingleProcess) {
  core::Scenario scenario = small_scenario();
  const int kSeeds = 5;
  const double kThreshold = 0.0;
  const core::AggregateResult reference =
      core::run_aggregate(core::Strategy::kLcda, scenario.config.lcda_episodes,
                          kSeeds, scenario.config, kThreshold);

  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, kThreshold, 0.95);
  ASSERT_EQ(specs.size(), 2u);
  const core::AggregateResult merged =
      dist::merge_aggregate(specs, run_shards_in_process(specs));

  EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
            core::aggregate_to_json(reference).dump(2));
}

TEST(Merge, AggregateWithoutThresholdMatchesToo) {
  core::Scenario scenario = small_scenario();
  const core::AggregateResult reference = core::run_aggregate(
      core::Strategy::kRandom, scenario.config.nacim_episodes, 4,
      scenario.config, NAN);
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kRandom, scenario.config.nacim_episodes}}, 4,
      /*shards=*/4, NAN, 0.95);
  const core::AggregateResult merged =
      dist::merge_aggregate(specs, run_shards_in_process(specs));
  EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
            core::aggregate_to_json(reference).dump(2));
}

TEST(Merge, SpeedupIsByteIdenticalToSingleProcess) {
  core::Scenario scenario = small_scenario();
  const auto reference = core::speedup_study(scenario.config, 3, 0.95);
  auto specs = dist::plan_shards(scenario, dist::ShardMode::kSpeedup,
                                 {{core::Strategy::kLcda, 0}}, 3,
                                 /*shards=*/2, NAN, 0.95);
  const auto merged = dist::merge_speedup(specs, run_shards_in_process(specs));
  EXPECT_EQ(core::speedup_study_to_json(merged).dump(2),
            core::speedup_study_to_json(reference).dump(2));
}

TEST(Merge, AggregateAndSpeedupEntriesRoundTrip) {
  core::SeedSummary s;
  s.running_max = {-1.0, 0.1, 1.0 / 3.0};
  s.final_best = 1.0 / 3.0;
  s.cache_hits = 1;
  s.cache_misses = 2;
  s.persistent_hits = 3;
  s.persistent_shared_hits = 4;
  s.persistent_skipped = 5;
  s.persistent_save_failures = 6;
  s.threshold_episode = 2;
  const auto same = [](const core::SeedSummary& a, const core::SeedSummary& b) {
    return a.running_max == b.running_max && a.final_best == b.final_best &&
           a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
           a.persistent_hits == b.persistent_hits &&
           a.persistent_shared_hits == b.persistent_shared_hits &&
           a.persistent_skipped == b.persistent_skipped &&
           a.persistent_save_failures == b.persistent_save_failures &&
           a.threshold_episode == b.threshold_episode;
  };
  const util::Json entry = dist::aggregate_entry(7, s, 0.2);
  EXPECT_EQ(entry.at("seed").as_int(), 7);
  EXPECT_TRUE(same(dist::seed_summary(entry, 0.2), s));
  // Without a threshold the episode neither travels nor comes back.
  const util::Json bare = dist::aggregate_entry(7, s, NAN);
  EXPECT_FALSE(bare.contains("threshold_episode"));
  s.threshold_episode = -1;
  EXPECT_TRUE(same(dist::seed_summary(bare, NAN), s));

  core::SpeedupReport r;
  r.threshold = 0.4;
  r.lcda_episodes = 9;
  r.nacim_episodes = 120;
  r.lcda_best = 0.45;
  r.nacim_best = 1.0 / 7.0;
  const core::SpeedupReport back =
      dist::speedup_report(dist::speedup_entry(3, r));
  EXPECT_EQ(back.threshold, r.threshold);
  EXPECT_EQ(back.lcda_episodes, r.lcda_episodes);
  EXPECT_EQ(back.nacim_episodes, r.nacim_episodes);
  EXPECT_EQ(back.lcda_best, r.lcda_best);
  EXPECT_EQ(back.nacim_best, r.nacim_best);
}

TEST(Merge, RunsModeReassemblesTracesVerbatim) {
  core::Scenario scenario = small_scenario();
  // Reference: the CLI's plain path — seed offsets, labels, CSV.
  std::string reference_csv;
  std::string reference_runs_json;
  {
    util::Json arr = util::Json::array();
    std::ostringstream csv;
    for (int s = 0; s < 3; ++s) {
      core::ExperimentConfig cfg = scenario.config;
      cfg.seed = scenario.config.seed + static_cast<std::uint64_t>(s);
      const core::RunResult run = core::run_strategy(
          core::Strategy::kLcda, scenario.config.lcda_episodes, cfg);
      const std::string label = "LCDA/seed" + std::to_string(cfg.seed);
      core::write_run_csv(csv, run, label);
      arr.push_back(core::run_to_json(run, label));
    }
    reference_csv = csv.str();
    reference_runs_json = arr.dump(2);
  }

  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kRuns,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, 3,
      /*shards=*/3, NAN, 0.95);
  const auto merged = dist::merge_runs(specs, run_shards_in_process(specs));
  ASSERT_EQ(merged.size(), 3u);
  std::string csv;
  util::Json arr = util::Json::array();
  for (const dist::MergedRun& run : merged) {
    csv += run.csv;
    arr.push_back(run.run_json);
  }
  EXPECT_EQ(csv, reference_csv);
  EXPECT_EQ(arr.dump(2), reference_runs_json);
}

TEST(Merge, IncompleteOrForeignManifestsAreRejected) {
  core::Scenario scenario = small_scenario();
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, 4,
      /*shards=*/2, NAN, 0.95);
  auto manifests = run_shards_in_process(specs);

  // A lost shard: merging one manifest over a 4-seed study must throw.
  EXPECT_THROW((void)dist::merge_aggregate({specs[0]}, {manifests[0]}),
               std::runtime_error);
  // A duplicated shard: the same seeds twice must throw, not double-count.
  EXPECT_THROW(
      (void)dist::merge_aggregate({specs[0], specs[0]},
                                  {manifests[0], manifests[0]}),
      std::runtime_error);
}

/// `manifest` with `edit` applied to each of its entries for `seed`.
template <typename Edit>
util::Json edit_entries(const util::Json& manifest, int seed, Edit edit) {
  util::Json out = manifest;
  util::Json entries = util::Json::array();
  for (util::Json entry : manifest.at("entries").elements()) {
    if (entry.at("seed").as_int() == seed) edit(entries, entry);
    entries.push_back(std::move(entry));
  }
  out["entries"] = entries;
  return out;
}

TEST(Merge, DuplicateSeedsKeepTheLowerShardIndex) {
  core::Scenario scenario = small_scenario();
  const int kSeeds = 4;
  const std::string reference =
      core::aggregate_to_json(
          core::run_aggregate(core::Strategy::kLcda,
                              scenario.config.lcda_episodes, kSeeds,
                              scenario.config, NAN))
          .dump(2);
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, NAN, 0.95);
  ASSERT_EQ(specs.size(), 2u);
  ASSERT_EQ(specs[0].seeds, (std::vector<int>{0, 1}));
  // The steal race: shard 0 had already started seed 1 when it was
  // revoked, so both shard 0 and the thief (index 2) publish seed 1.
  dist::ShardSpec thief = specs[0];
  thief.index = 2;
  thief.seeds = {1};
  thief.stolen_from = 0;
  specs.push_back(thief);
  const std::vector<util::Json> manifests = run_shards_in_process(specs);

  // Poison one copy of seed 1 so the merge shows which copy it kept.
  const auto poison = [](util::Json&, util::Json& entry) {
    entry["final_best"] = 1e9;
  };
  const auto merged = [&](const std::vector<std::size_t>& order,
                          const std::vector<util::Json>& ms) {
    std::vector<dist::ShardSpec> s;
    std::vector<util::Json> m;
    for (std::size_t i : order) {
      s.push_back(specs[i]);
      m.push_back(ms[i]);
    }
    return core::aggregate_to_json(dist::merge_aggregate(s, m)).dump(2);
  };
  std::vector<util::Json> thief_poisoned = manifests;
  thief_poisoned[2] = edit_entries(manifests[2], 1, poison);
  const std::vector<std::vector<std::size_t>> orders = {
      {0, 1, 2}, {2, 1, 0}, {1, 2, 0}};
  for (const std::vector<std::size_t>& order : orders) {
    EXPECT_EQ(merged(order, thief_poisoned), reference);
  }
  // Poisoning the lower index's copy instead does show in the merge.
  std::vector<util::Json> parent_poisoned = manifests;
  parent_poisoned[0] = edit_entries(manifests[0], 1, poison);
  EXPECT_NE(merged({2, 1, 0}, parent_poisoned), reference);

  // One shard listing a seed twice is a hard error, never a dedupe.
  std::vector<util::Json> listed_twice = {manifests[0], manifests[1]};
  listed_twice[1] = edit_entries(
      manifests[1], 2,
      [](util::Json& entries, const util::Json& entry) {
        entries.push_back(entry);
      });
  try {
    (void)dist::merge_aggregate({specs[0], specs[1]}, listed_twice);
    ADD_FAILURE() << "a seed listed twice by one shard was merged";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("appears in more than one shard"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------- end-to-end worker processes

TEST(Distributed, WorkersAndRetriesConvergeToReferenceBytes) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }

  // 2 workers x parallelism 2, shared persistent-cache directory — the
  // distributed acceptance configuration.
  core::Scenario scenario = small_scenario();
  scenario.config.parallelism = 2;
  scenario.config.persistent_cache_dir = temp_dir("shared_cache_ref");
  const int kSeeds = 4;
  const core::AggregateResult reference =
      core::run_aggregate(core::Strategy::kLcda, scenario.config.lcda_episodes,
                          kSeeds, scenario.config, NAN);

  // Fresh shared cache dir for the distributed run so both start cold and
  // the cache counters can match exactly.
  scenario.config.persistent_cache_dir = temp_dir("shared_cache_dist");
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, NAN, 0.95);
  ASSERT_EQ(specs.size(), 2u);
  // Crash injection: shard 0 (seeds {0,1}) dies before evaluating seed 0
  // on its first attempt; the coordinator must retry it and the merged
  // bytes must not change. Set only after the in-process reference: this
  // process parses LCDA_FAULT once, on first use, and must never arm it.
  const ScopedEnv die("LCDA_FAULT", "kill@seed:0");

  dist::Coordinator::Options opts;
  opts.worker_command = {runner};
  opts.shard_dir = temp_dir("coord");
  opts.max_parallel = 2;
  opts.max_retries = 1;
  opts.verbose = false;
  // This test asserts the exact plan shape afterwards; stealing is free to
  // append/erase specs, so pin it off (it has its own tests below).
  opts.enable_steal = false;
  dist::Coordinator(opts).run(specs);
  EXPECT_EQ(specs[0].attempt, 1);  // the injected crash was retried
  EXPECT_EQ(specs[1].attempt, 0);

  std::vector<util::Json> manifests;
  for (const auto& spec : specs) {
    manifests.push_back(dist::load_shard_manifest(spec));
  }
  const core::AggregateResult merged =
      dist::merge_aggregate(specs, manifests);
  EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
            core::aggregate_to_json(reference).dump(2));
  EXPECT_EQ(merged.persistent_hits, reference.persistent_hits);
}

// --------------------------------------------- progress sidecar protocol

TEST(Progress, RoundTripsRecordsAndToleratesTornTail) {
  const std::string dir = temp_dir("progress");
  const std::string path = dir + "/p.jsonl";
  {
    dist::ProgressWriter w(path);
    w.begin(0);
    w.seed_started(3);
    w.seed_done(3, 12.5);
    w.seed_started(4);
  }
  dist::ProgressSnapshot snap = dist::read_progress(path);
  EXPECT_EQ(snap.started, (std::set<int>{3, 4}));
  EXPECT_EQ(snap.done, (std::set<int>{3}));
  EXPECT_TRUE(snap.started_not_done(4));
  EXPECT_DOUBLE_EQ(snap.done_wall_ms, 12.5);

  // A torn final line (the worker died mid-append) is ignored; every
  // record before it still counts.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"e\":\"done\",\"se";
  }
  snap = dist::read_progress(path);
  EXPECT_EQ(snap.done, (std::set<int>{3}));
  EXPECT_EQ(snap.started, (std::set<int>{3, 4}));

  // A worker that has not started yet has no file — an empty snapshot,
  // not an error.
  EXPECT_EQ(dist::read_progress(dir + "/absent.jsonl").records, 0);

  // Revocations: atomic write, exact read-back, absent file = no steals.
  const std::string revoke = dir + "/revoke.json";
  dist::write_revocations(revoke, {1, 5});
  EXPECT_EQ(dist::read_revocations(revoke), (std::set<int>{1, 5}));
  EXPECT_TRUE(dist::read_revocations(dir + "/none.json").empty());
}

// ----------------------------------------- stealing and dead workers

TEST(Distributed, StragglerStealingKeepsBytesIdentical) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }

  // Reference: the CLI's plain per-seed path, same loop as the runs-mode
  // merge test above.
  core::Scenario scenario = small_scenario();
  const int kSeeds = 6;
  std::string reference_csv;
  std::string reference_runs_json;
  {
    util::Json arr = util::Json::array();
    std::ostringstream csv;
    for (int s = 0; s < kSeeds; ++s) {
      core::ExperimentConfig cfg = scenario.config;
      cfg.seed = scenario.config.seed + static_cast<std::uint64_t>(s);
      const core::RunResult run = core::run_strategy(
          core::Strategy::kLcda, scenario.config.lcda_episodes, cfg);
      const std::string label = "LCDA/seed" + std::to_string(cfg.seed);
      core::write_run_csv(csv, run, label);
      arr.push_back(core::run_to_json(run, label));
    }
    reference_csv = csv.str();
    reference_runs_json = arr.dump(2);
  }

  // Inject a straggler: shard 0 owns seeds {0,1} (6 seeds over 4 chunks)
  // and sleeps 400ms before each, while its peers finish in milliseconds.
  // The coordinator must steal its pending work — and the
  // merged bytes must not move.
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kRuns,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/4, NAN, 0.95);
  const ScopedEnv sleep_fault("LCDA_FAULT", "sleep=400@seed:0,1");

  dist::Coordinator::Options opts;
  opts.worker_command = {runner};
  opts.shard_dir = temp_dir("steal");
  opts.max_parallel = 4;
  opts.max_retries = 0;
  opts.verbose = false;
  opts.steal_threshold = 1.5;
  dist::Coordinator coordinator(opts);
  coordinator.run(specs);
  EXPECT_GE(coordinator.stats().steals, 1);
  EXPECT_GE(coordinator.stats().stolen_seeds, 1);

  std::vector<util::Json> manifests;
  for (const auto& spec : specs) {
    manifests.push_back(dist::load_shard_manifest(spec));
  }
  const std::vector<dist::MergedRun> merged =
      dist::merge_runs(specs, manifests);
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(kSeeds));
  std::string csv;
  util::Json arr = util::Json::array();
  for (const dist::MergedRun& run : merged) {
    csv += run.csv;
    arr.push_back(run.run_json);
  }
  EXPECT_EQ(csv, reference_csv);
  EXPECT_EQ(arr.dump(2), reference_runs_json);
}

TEST(Distributed, DeadWorkerIsReapedThroughHeartbeatTimeout) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }

  core::Scenario scenario = small_scenario();
  const int kSeeds = 4;
  const core::AggregateResult reference =
      core::run_aggregate(core::Strategy::kLcda, scenario.config.lcda_episodes,
                          kSeeds, scenario.config, NAN);

  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, NAN, 0.95);
  // Shard 1 owns seeds {2,3}; its attempt 0 stops heartbeating and hangs
  // at seed 2 — a live process doing nothing, invisible to try_wait().
  // Only the staleness reaper can recover it.
  const ScopedEnv wedge("LCDA_FAULT", "wedge@seed:2");

  dist::Coordinator::Options opts;
  opts.worker_command = {runner};
  opts.shard_dir = temp_dir("wedge");
  opts.max_parallel = 2;
  opts.max_retries = 1;
  opts.verbose = false;
  opts.enable_steal = false;  // isolate the heartbeat path
  opts.heartbeat_ms = 50;
  opts.heartbeat_timeout_ms = 1000;
  dist::Coordinator coordinator(opts);
  coordinator.run(specs);
  EXPECT_EQ(coordinator.stats().dead_workers, 1);
  EXPECT_EQ(coordinator.stats().retries, 1);

  std::vector<util::Json> manifests;
  for (const auto& spec : specs) {
    manifests.push_back(dist::load_shard_manifest(spec));
  }
  const core::AggregateResult merged = dist::merge_aggregate(specs, manifests);
  EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
            core::aggregate_to_json(reference).dump(2));
}

// --------------------------------------------- persistent worker pool

/// Drives `specs` through a coordinator and returns the executed plan
/// with its loaded manifests.
std::pair<std::vector<dist::ShardSpec>, std::vector<util::Json>>
run_through_coordinator(const std::string& runner,
                        std::vector<dist::ShardSpec> specs, const char* tag) {
  dist::Coordinator::Options opts;
  opts.worker_command = {runner};
  opts.shard_dir = temp_dir(tag);
  opts.max_parallel = 2;
  opts.max_retries = 0;
  opts.verbose = false;
  opts.enable_steal = false;
  dist::Coordinator coordinator(opts);
  coordinator.run(specs);
  EXPECT_GE(coordinator.stats().pool_workers, 1);
  std::vector<util::Json> manifests;
  for (const dist::ShardSpec& spec : specs) {
    manifests.push_back(dist::load_shard_manifest(spec));
  }
  return {std::move(specs), std::move(manifests)};
}

TEST(Distributed, PooledMatchesInProcessInAllModes) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }
  const core::Scenario scenario = small_scenario();

  // Aggregate mode: merged bytes must agree between in-process shards (the
  // merge contract's reference) and the resident pool.
  {
    auto specs = dist::plan_shards(
        scenario, dist::ShardMode::kAggregate,
        {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, /*seeds=*/4,
        /*shards=*/2, NAN, 0.95);
    const std::string reference =
        core::aggregate_to_json(
            dist::merge_aggregate(specs, run_shards_in_process(specs)))
            .dump(2);
    const auto [pool_specs, pool_manifests] =
        run_through_coordinator(runner, specs, "pool_agg");
    EXPECT_EQ(core::aggregate_to_json(
                  dist::merge_aggregate(pool_specs, pool_manifests))
                  .dump(2),
              reference);
  }

  // Speedup mode.
  {
    auto specs = dist::plan_shards(scenario, dist::ShardMode::kSpeedup,
                                   {{core::Strategy::kLcda, 0}}, /*seeds=*/2,
                                   /*shards=*/2, NAN, 0.95);
    const std::string reference =
        core::speedup_study_to_json(
            dist::merge_speedup(specs, run_shards_in_process(specs)))
            .dump(2);
    const auto [pool_specs, pool_manifests] =
        run_through_coordinator(runner, specs, "pool_speedup");
    EXPECT_EQ(core::speedup_study_to_json(
                  dist::merge_speedup(pool_specs, pool_manifests))
                  .dump(2),
              reference);
  }

  // Runs mode (CSV text and run JSON verbatim). The pooled run hands both
  // shards to the same two resident workers, so this also pins that a
  // worker's second spec is byte-identical to a fresh process's first —
  // the warm-reuse contract.
  {
    auto specs = dist::plan_shards(
        scenario, dist::ShardMode::kRuns,
        {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, /*seeds=*/4,
        /*shards=*/4, NAN, 0.95);
    const auto render = [](const std::vector<dist::ShardSpec>& s,
                           const std::vector<util::Json>& m) {
      std::string csv;
      util::Json arr = util::Json::array();
      for (const dist::MergedRun& run : dist::merge_runs(s, m)) {
        csv += run.csv;
        arr.push_back(run.run_json);
      }
      return csv + "\n---\n" + arr.dump(2);
    };
    const std::string reference = render(specs, run_shards_in_process(specs));
    const auto [pool_specs, pool_manifests] =
        run_through_coordinator(runner, specs, "pool_runs");
    EXPECT_EQ(render(pool_specs, pool_manifests), reference);
  }
}

TEST(Distributed, PoolWorkerKilledMidSpecIsRespawnedAndRetried) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }
  core::Scenario scenario = small_scenario();
  const int kSeeds = 4;
  const core::AggregateResult reference =
      core::run_aggregate(core::Strategy::kLcda, scenario.config.lcda_episodes,
                          kSeeds, scenario.config, NAN);

  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, NAN, 0.95);
  // Shard 1 owns seeds {2,3}; the resident worker _exit()s mid-spec at
  // seed 2 on attempt 0 — the process dies with the spec in flight, which
  // is exactly the pool's crash-recovery path (no manifest, no reply).
  const ScopedEnv die("LCDA_FAULT", "kill@seed:2");

  dist::Coordinator::Options opts;
  opts.worker_command = {runner};
  opts.shard_dir = temp_dir("pool_die");
  opts.max_parallel = 1;  // one resident worker serves both shards
  opts.max_retries = 1;
  opts.verbose = false;
  opts.enable_steal = false;
  dist::Coordinator coordinator(opts);
  coordinator.run(specs);
  EXPECT_EQ(coordinator.stats().retries, 1);
  // The first resident worker died with the spec; its replacement ran the
  // retry. Launches: the original plus exactly one respawn.
  EXPECT_EQ(coordinator.stats().pool_workers, 2);

  std::vector<util::Json> manifests;
  for (const auto& spec : specs) {
    manifests.push_back(dist::load_shard_manifest(spec));
  }
  const core::AggregateResult merged = dist::merge_aggregate(specs, manifests);
  EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
            core::aggregate_to_json(reference).dump(2));
}

TEST(Distributed, KilledWorkerResumesFromCheckpointByteIdentically) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }

  // Reference: the plain per-seed path with checkpointing OFF — the killed
  // and checkpoint-resumed distributed study below must reproduce these
  // bytes exactly (trace-invariance covers the checkpoint machinery too).
  // Genetic rather than LCDA: the LLM strategies run uncheckpointed (their
  // state lives in the simulated client), and per-episode rounds
  // (batch_size=1) put a snapshot boundary before the kill episode.
  core::Scenario scenario = small_scenario();
  scenario.config.batch_size = 1;
  const int kSeeds = 4;
  std::string reference_csv;
  std::string reference_runs_json;
  {
    util::Json arr = util::Json::array();
    std::ostringstream csv;
    for (int s = 0; s < kSeeds; ++s) {
      core::ExperimentConfig cfg = scenario.config;
      cfg.seed = scenario.config.seed + static_cast<std::uint64_t>(s);
      const core::RunResult run = core::run_strategy(
          core::Strategy::kGenetic, scenario.config.lcda_episodes, cfg);
      const std::string label = "Genetic/seed" + std::to_string(cfg.seed);
      core::write_run_csv(csv, run, label);
      arr.push_back(core::run_to_json(run, label));
    }
    reference_csv = csv.str();
    reference_runs_json = arr.dump(2);
  }

  // The distributed copy of the study checkpoints every 2 of its 6
  // episodes. Every attempt-0 worker _Exit(42)s mid-run once its first
  // seed reaches episode 4 — after the episode-4 snapshot landed — so the
  // retry (attempt 1, faults disarmed) restores that seed from its
  // checkpoint instead of re-running it from scratch.
  core::Scenario ckpt_scenario = scenario;
  ckpt_scenario.config.checkpoint_dir = temp_dir("ckpt_resume_store");
  ckpt_scenario.config.checkpoint_every = 2;
  auto specs = dist::plan_shards(
      ckpt_scenario, dist::ShardMode::kRuns,
      {{core::Strategy::kGenetic, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, NAN, 0.95);
  const ScopedEnv kill_fault("LCDA_FAULT", "kill@episode:4");

  dist::Coordinator::Options opts;
  opts.worker_command = {runner};
  opts.shard_dir = temp_dir("ckpt_resume");
  opts.max_parallel = 2;
  opts.max_retries = 1;
  opts.verbose = false;
  opts.enable_steal = false;
  dist::Coordinator coordinator(opts);
  coordinator.run(specs);
  EXPECT_GE(coordinator.stats().retries, 1);

  std::vector<util::Json> manifests;
  long long resumed = 0;
  for (const auto& spec : specs) {
    manifests.push_back(dist::load_shard_manifest(spec));
    if (manifests.back().contains("resumed_episodes")) {
      resumed += manifests.back().at("resumed_episodes").as_int();
    }
  }
  // At least one retried seed actually restored episodes from disk — the
  // byte match below must not be explained by a silent cold re-run.
  EXPECT_GE(resumed, 1);

  const std::vector<dist::MergedRun> merged =
      dist::merge_runs(specs, manifests);
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(kSeeds));
  std::string csv;
  util::Json arr = util::Json::array();
  for (const dist::MergedRun& run : merged) {
    csv += run.csv;
    arr.push_back(run.run_json);
  }
  EXPECT_EQ(csv, reference_csv);
  EXPECT_EQ(arr.dump(2), reference_runs_json);
}

TEST(Distributed, ExhaustedRetriesFailLoudly) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }
  core::Scenario scenario = small_scenario();
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, 2,
      /*shards=*/1, NAN, 0.95);
  const ScopedEnv die("LCDA_FAULT", "kill@seed:0");

  dist::Coordinator::Options opts;
  opts.worker_command = {runner};
  opts.shard_dir = temp_dir("coord_fail");
  opts.max_parallel = 1;
  opts.max_retries = 0;  // no second attempt: the injected crash is fatal
  opts.verbose = false;
  try {
    dist::Coordinator(opts).run(specs);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exit 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dying at seed"),
              std::string::npos);
  }
}

}  // namespace
