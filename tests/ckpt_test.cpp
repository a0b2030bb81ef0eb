// The checkpoint subsystem: fault-spec parsing, value codecs, the
// append-only journal (whole first snapshot, delta snapshots, fallback
// past a corrupt snapshot, torn-tail tolerance), and —
// the load-bearing contract — checkpointed, killed-and-resumed runs
// byte-identical to uninterrupted ones for every serializable strategy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/util/fault.h"
#include "lcda/util/logging.h"
#include "lcda/util/subprocess.h"

namespace {

using namespace lcda;

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("lcda_ckpt_test_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A small config with per-episode rounds, so checkpoint boundaries land
/// exactly on the cadence and every strategy writes several snapshots
/// within a handful of episodes.
core::ExperimentConfig small_config() {
  core::ExperimentConfig config = core::scenario_by_name("paper-energy").config;
  config.batch_size = 1;
  return config;
}

/// Serializable strategies — every optimizer except the LLM-driven ones
/// (whose state lives inside the simulated client).
const std::vector<core::Strategy>& serializable_strategies() {
  static const std::vector<core::Strategy> kAll = {
      core::Strategy::kRandom,    core::Strategy::kGenetic,
      core::Strategy::kNsga2,     core::Strategy::kAnnealing,
      core::Strategy::kNacimRl,
  };
  return kAll;
}

/// Everything a run's byte contract covers: the full JSON document plus
/// the trace CSV.
std::string render(const core::RunResult& run, std::string_view label) {
  std::ostringstream csv;
  core::write_run_csv(csv, run, label);
  return core::run_to_json(run, label).dump(2) + "\n---\n" + csv.str();
}

/// The journals of a study directory, as (episode, path) sorted by episode
/// ascending.
std::vector<std::pair<int, std::filesystem::path>> list_journals(
    const std::filesystem::path& study_dir) {
  std::vector<std::pair<int, std::filesystem::path>> journals;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(study_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 8 && name.rfind("jrn-", 0) == 0 &&
        name.substr(name.size() - 4) == ".jrn") {
      journals.emplace_back(std::atoi(name.c_str() + 4), entry.path());
    }
  }
  std::sort(journals.begin(), journals.end());
  return journals;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// One record frame of a journal, read from the documented layout (not
/// through the ckpt reader): [u64 len | u64 fnv | u8 type | payload].
struct JournalRecord {
  std::size_t offset = 0;  ///< of the frame
  std::size_t end = 0;     ///< one past the payload
  ckpt::RecordType type = ckpt::RecordType::kRound;
};

std::vector<JournalRecord> journal_records(const std::string& bytes) {
  std::vector<JournalRecord> records;
  std::size_t pos = ckpt::kJournalHeaderSize;
  while (pos + ckpt::kRecordHeaderSize <= bytes.size()) {
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof len);
    const std::size_t end = pos + ckpt::kRecordHeaderSize + len;
    if (end > bytes.size()) break;
    records.push_back(
        {pos, end, static_cast<ckpt::RecordType>(bytes[pos + 16])});
    pos = end;
  }
  return records;
}

/// The records of one type, in journal order.
std::vector<JournalRecord> records_of(const std::string& bytes,
                                      ckpt::RecordType type) {
  std::vector<JournalRecord> out;
  for (const JournalRecord& r : journal_records(bytes)) {
    if (r.type == type) out.push_back(r);
  }
  return out;
}

void write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Replaces every journal of `study_dir` with `bytes` under `name`.
void replace_journals(const std::filesystem::path& study_dir,
                      const std::filesystem::path& name,
                      std::string_view bytes) {
  for (const auto& [episode, path] : list_journals(study_dir)) {
    std::filesystem::remove(path);
  }
  write_file(study_dir / name, bytes);
}

// ------------------------------------------------------------- LCDA_FAULT

TEST(Fault, GrammarParsesEveryKindAndScope) {
  std::string error;
  const auto f = util::FaultInjector::parse(
      "kill@seed:2; sleep=400@seed:0,1; wedge@seed:3; kill@episode:9; "
      "torn-snapshot@episode:4; torn-log@episode:5",
      &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(f.specs().size(), 6u);

  EXPECT_TRUE(f.kill_at_seed(2, /*attempt=*/0));
  EXPECT_FALSE(f.kill_at_seed(2, /*attempt=*/1));  // attempt-0 only
  EXPECT_FALSE(f.kill_at_seed(1, 0));
  EXPECT_TRUE(f.wedge_at_seed(3, 0));
  EXPECT_FALSE(f.wedge_at_seed(3, 1));
  EXPECT_EQ(f.sleep_ms_at_seed(0), 400);
  EXPECT_EQ(f.sleep_ms_at_seed(1), 400);
  EXPECT_EQ(f.sleep_ms_at_seed(2), 0);

  util::FaultInjector::set_attempt(0);
  EXPECT_EQ(f.kill_episode(), 9);
  EXPECT_EQ(f.torn_snapshot_episode(), 4);
  EXPECT_EQ(f.torn_log_episode(), 5);
  // Episode faults disarm on retries through the process-wide attempt.
  util::FaultInjector::set_attempt(1);
  EXPECT_EQ(f.kill_episode(), -1);
  EXPECT_EQ(f.torn_snapshot_episode(), -1);
  util::FaultInjector::set_attempt(0);
}

TEST(Fault, MalformedClausesAreDroppedNotFatal) {
  const char* kBad[] = {
      "explode@seed:1",        // unknown kind
      "kill-seed:1",           // missing '@'
      "kill@turn:1",           // unknown scope
      "kill@seed",             // missing ':'
      "kill@seed:",            // empty target list
      "kill@seed:x",           // non-numeric
      "sleep@seed:1",          // sleep without '=<ms>'
      "kill=5@seed:1",         // kill does not take a value
      "wedge@episode:1",       // wedge is seed-scoped
      "torn-log@seed:1",       // torn-log is episode-scoped
      "kill@episode:1,2",      // episode scope takes a single episode
  };
  for (const char* text : kBad) {
    std::string error;
    const auto f = util::FaultInjector::parse(text, &error);
    EXPECT_TRUE(f.specs().empty()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // A good clause next to a bad one still arms.
  std::string error;
  const auto f = util::FaultInjector::parse("bogus@seed:1;kill@seed:7", &error);
  EXPECT_FALSE(error.empty());
  ASSERT_EQ(f.specs().size(), 1u);
  EXPECT_TRUE(f.kill_at_seed(7, 0));
}

// ----------------------------------------------------------------- codecs

TEST(Codec, SnapshotPayloadRoundTripsBitExactly) {
  // A real run supplies designs, evaluations, and counters with realistic
  // value ranges (NaN-free doubles, full design structs).
  core::ExperimentConfig config = small_config();
  const core::RunResult run =
      core::run_strategy(core::Strategy::kGenetic, 6, config);
  ASSERT_EQ(run.episodes.size(), 6u);

  util::Rng rng(1234);
  (void)rng.normal();  // leave a spare normal in flight
  core::LoopSnapshot snap;
  snap.next_episode = 6;
  snap.rng_state = rng.state();
  const std::string blob = "opaque optimizer bytes \x01\x02\x00 tail";
  snap.optimizer_state = &blob;
  snap.result = &run;
  std::vector<core::CacheLogEntry> cache_log;
  for (const core::EpisodeRecord& ep : run.episodes) {
    core::Evaluation ev;
    ev.cost.valid = ep.valid;
    ev.accuracy = ep.accuracy;
    cache_log.push_back({ep.design.hash(), ev, true});
  }
  cache_log.front().published = false;
  snap.cache_log = &cache_log;

  const std::string payload = ckpt::encode_snapshot(snap);
  core::LoopResume out;
  ASSERT_TRUE(ckpt::decode_snapshot(payload, out));
  EXPECT_EQ(out.next_episode, 6);
  EXPECT_EQ(out.optimizer_state, blob);
  EXPECT_EQ(out.cache_log.size(), cache_log.size());
  EXPECT_FALSE(out.cache_log.front().published);
  EXPECT_TRUE(out.cache_log.back().published);
  // Decoded RNG continues exactly where the original left off (spare
  // normal included).
  util::Rng reference(1234);
  (void)reference.normal();
  util::Rng restored(1);
  restored.set_state(out.rng_state);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(reference.normal(), restored.normal());
    EXPECT_EQ(reference.next_u64(), restored.next_u64());
  }

  // Re-encoding the decoded state reproduces the payload bit for bit —
  // the codec loses nothing (designs and evaluations included).
  core::LoopSnapshot again;
  again.next_episode = out.next_episode;
  again.rng_state = out.rng_state;
  again.optimizer_state = &out.optimizer_state;
  again.result = &out.result;
  again.cache_log = &out.cache_log;
  EXPECT_EQ(ckpt::encode_snapshot(again), payload);

  // Truncation at any aligned prefix fails cleanly instead of returning a
  // half-filled state.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, payload.size() / 2,
                          payload.size() - 1}) {
    core::LoopResume trash;
    EXPECT_FALSE(ckpt::decode_snapshot(payload.substr(0, cut), trash));
  }
}

TEST(Codec, SnapshotDeltaAppliesOnlyOnItsBase) {
  core::ExperimentConfig config = small_config();
  const core::RunResult run =
      core::run_strategy(core::Strategy::kGenetic, 6, config);
  std::vector<core::CacheLogEntry> cache_log;
  for (const core::EpisodeRecord& ep : run.episodes) {
    core::Evaluation ev;
    ev.accuracy = ep.accuracy;
    cache_log.push_back({ep.design.hash(), ev, ep.valid});
  }
  const std::string blob = "blob";
  core::LoopSnapshot snap;
  snap.next_episode = 6;
  snap.rng_state = util::Rng(5).state();
  snap.optimizer_state = &blob;
  snap.result = &run;
  snap.cache_log = &cache_log;
  const std::string whole = ckpt::encode_snapshot(snap);
  const std::string delta = ckpt::encode_snapshot(snap, 4, 3);
  EXPECT_LT(delta.size(), whole.size());

  // The first 4 records and 3 cache entries plus the delta rebuild exactly
  // the whole snapshot's state.
  core::LoopResume base;
  base.result.episodes.assign(run.episodes.begin(), run.episodes.begin() + 4);
  base.cache_log.assign(cache_log.begin(), cache_log.begin() + 3);
  ASSERT_TRUE(ckpt::decode_snapshot(delta, base));
  core::LoopSnapshot again;
  again.next_episode = base.next_episode;
  again.rng_state = base.rng_state;
  again.optimizer_state = &base.optimizer_state;
  again.result = &base.result;
  again.cache_log = &base.cache_log;
  EXPECT_EQ(ckpt::encode_snapshot(again), whole);

  // A snapshot whose head disagrees with its record count is rejected.
  snap.next_episode = 7;
  core::LoopResume miscounted;
  EXPECT_FALSE(ckpt::decode_snapshot(ckpt::encode_snapshot(snap), miscounted));
  EXPECT_TRUE(miscounted.result.episodes.empty());

  // On any other base the delta is rejected and the state left as it was.
  core::LoopResume other;
  other.result.episodes.assign(run.episodes.begin(), run.episodes.begin() + 3);
  other.cache_log.assign(cache_log.begin(), cache_log.begin() + 3);
  other.optimizer_state = "before";
  EXPECT_FALSE(ckpt::decode_snapshot(delta, other));
  EXPECT_EQ(other.result.episodes.size(), 3u);
  EXPECT_EQ(other.cache_log.size(), 3u);
  EXPECT_EQ(other.optimizer_state, "before");
  // A truncated delta appends nothing either.
  other.result.episodes.push_back(run.episodes[3]);
  EXPECT_FALSE(ckpt::decode_snapshot(delta.substr(0, delta.size() - 1), other));
  EXPECT_EQ(other.result.episodes.size(), 4u);
  EXPECT_EQ(other.cache_log.size(), 3u);
}

TEST(Codec, RoundDeltaRoundTripsAndRejectsTruncation) {
  core::RoundDelta delta;
  delta.first_episode = 42;
  delta.job_hashes = {0x1111, 0xdeadbeefcafe, 0};
  delta.job_evals.resize(3);
  delta.job_evals[0].cost.valid = true;
  delta.job_evals[0].accuracy = 0.875;
  delta.job_evals[2].cost.invalid_reason = "adc deficit";

  const std::string payload = ckpt::encode_round(delta);
  core::RoundDelta out;
  ASSERT_TRUE(ckpt::decode_round(payload, out));
  EXPECT_EQ(out.first_episode, 42);
  EXPECT_EQ(out.job_hashes, delta.job_hashes);
  ASSERT_EQ(out.job_evals.size(), 3u);
  EXPECT_TRUE(out.job_evals[0].cost.valid);
  EXPECT_EQ(out.job_evals[0].accuracy, 0.875);
  EXPECT_EQ(out.job_evals[2].cost.invalid_reason, "adc deficit");
  EXPECT_EQ(ckpt::encode_round(out), payload);

  core::RoundDelta trash;
  EXPECT_FALSE(ckpt::decode_round(payload.substr(0, payload.size() / 2), trash));
  EXPECT_FALSE(ckpt::decode_round("", trash));
}

// ------------------------------------------------------ journal on disk

/// A run state with `episodes` records (numbered as the loop numbers them)
/// and one cache-log entry per record — enough for store-level tests
/// without an engine.
struct SyntheticRun {
  core::RunResult result;
  std::vector<core::CacheLogEntry> log;

  void grow_to(int episodes) {
    while (static_cast<int>(result.episodes.size()) < episodes) {
      core::EpisodeRecord ep;
      ep.episode = static_cast<int>(result.episodes.size());
      ep.reward = ep.episode;
      result.episodes.push_back(ep);
      result.best_episode = ep.episode;
      log.push_back({static_cast<std::uint64_t>(ep.episode) + 1000, {}, true});
    }
  }

  core::LoopSnapshot snapshot(const std::string& blob) const {
    core::LoopSnapshot snap;
    snap.next_episode = static_cast<int>(result.episodes.size());
    snap.rng_state = util::Rng(7).state();
    snap.optimizer_state = &blob;
    snap.result = &result;
    snap.cache_log = &log;
    return snap;
  }
};

ckpt::RunCheckpointer::Options writer_options(const std::string& root,
                                              std::uint64_t identity) {
  ckpt::RunCheckpointer::Options opts;
  opts.directory = root;
  opts.identity = identity;
  return opts;
}

core::RoundDelta round_at(int first_episode) {
  core::RoundDelta delta;
  delta.first_episode = first_episode;
  delta.job_hashes = {static_cast<std::uint64_t>(first_episode) * 11};
  delta.job_evals.resize(1);
  return delta;
}

TEST(Store, JournalAppendsDeltaSnapshotsAndLoadsTheNewest) {
  const std::string root = temp_dir("journal");
  const std::uint64_t identity = 0xabcdef12;
  ckpt::RunCheckpointer cp(writer_options(root, identity));

  const std::string blob = "state";
  SyntheticRun run;
  for (int e : {2, 4, 6}) {
    run.grow_to(e);
    cp.on_snapshot(run.snapshot(blob));
  }
  EXPECT_EQ(cp.snapshots_written(), 3);

  // One journal, named for its first snapshot, holding three snapshot
  // records: the first whole, each later one only the records since.
  const auto study_dir = ckpt::study_checkpoint_dir(root, identity);
  const auto journals = list_journals(study_dir);
  ASSERT_EQ(journals.size(), 1u);
  EXPECT_EQ(journals[0].first, 2);
  const std::string bytes = slurp(journals[0].second.string());
  EXPECT_EQ(bytes.substr(0, 8), ckpt::kJournalMagic);
  const auto snaps = records_of(bytes, ckpt::RecordType::kSnapshot);
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(bytes.substr(snaps[2].offset + ckpt::kRecordHeaderSize,
                         snaps[2].end - snaps[2].offset - ckpt::kRecordHeaderSize),
            ckpt::encode_snapshot(run.snapshot(blob), 4, 4));

  const auto resume = ckpt::load_resume(root, identity);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->next_episode, 6);
  EXPECT_EQ(resume->result.episodes.size(), 6u);
  EXPECT_EQ(resume->cache_log.size(), 6u);
  EXPECT_EQ(resume->result.best_episode, 5);
  EXPECT_EQ(resume->optimizer_state, "state");
  EXPECT_TRUE(resume->deltas.empty());

  // A different study identity sees nothing.
  EXPECT_FALSE(ckpt::load_resume(root, identity + 1).has_value());
  // An absent root is a cold start, not an error.
  EXPECT_FALSE(ckpt::load_resume(root + "/nope", identity).has_value());
}

TEST(Store, RoundsReplayAndTolerateTornTail) {
  const std::string root = temp_dir("torn_log");
  const std::uint64_t identity = 0x77;
  ckpt::RunCheckpointer cp(writer_options(root, identity));

  const std::string blob = "state";
  SyntheticRun run;
  run.grow_to(2);
  cp.on_snapshot(run.snapshot(blob));
  cp.on_round(round_at(2));
  cp.on_round(round_at(3));

  {
    const auto resume = ckpt::load_resume(root, identity);
    ASSERT_TRUE(resume.has_value());
    ASSERT_EQ(resume->deltas.size(), 2u);
    EXPECT_EQ(resume->deltas[0].first_episode, 2);
    EXPECT_EQ(resume->deltas[1].first_episode, 3);
  }

  // Tear the last record: the reader keeps everything before the tear and
  // warns (counted), instead of failing the whole resume.
  const auto journal = ckpt::study_checkpoint_dir(root, identity) / "jrn-2.jrn";
  const auto size = std::filesystem::file_size(journal);
  std::filesystem::resize_file(journal, size - 5);
  const long long warned_before =
      util::warn_once_count("ckpt-torn-log:" + journal.string());
  const auto resume = ckpt::load_resume(root, identity);
  ASSERT_TRUE(resume.has_value());
  ASSERT_EQ(resume->deltas.size(), 1u);
  EXPECT_EQ(resume->deltas[0].first_episode, 2);
  EXPECT_GT(util::warn_once_count("ckpt-torn-log:" + journal.string()),
            warned_before);
}

TEST(Store, TornRecordAfterLastSnapshotCostsOnlyTheRoundsAfterIt) {
  const std::string root = temp_dir("torn_after_snapshot");
  const std::uint64_t identity = 0x78;
  ckpt::RunCheckpointer cp(writer_options(root, identity));
  const std::string blob = "state";
  SyntheticRun run;
  run.grow_to(2);
  cp.on_snapshot(run.snapshot(blob));
  cp.on_round(round_at(2));
  cp.on_round(round_at(3));
  run.grow_to(4);
  cp.on_snapshot(run.snapshot(blob));
  for (int e : {4, 5, 6}) cp.on_round(round_at(e));

  // Flip one payload byte of the round at 5: the snapshot at 4 and the
  // round before the damage survive; only rounds 5 and 6 are lost.
  const auto journal = ckpt::study_checkpoint_dir(root, identity) / "jrn-2.jrn";
  std::string bytes = slurp(journal.string());
  const auto rounds = records_of(bytes, ckpt::RecordType::kRound);
  ASSERT_EQ(rounds.size(), 5u);
  bytes[rounds[3].end - 1] ^= 0x10;
  write_file(journal, bytes);
  const long long warned_before =
      util::warn_once_count("ckpt-torn-log:" + journal.string());
  const auto resume = ckpt::load_resume(root, identity);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->next_episode, 4);
  EXPECT_EQ(resume->result.episodes.size(), 4u);
  ASSERT_EQ(resume->deltas.size(), 1u);
  EXPECT_EQ(resume->deltas[0].first_episode, 4);
  EXPECT_GT(util::warn_once_count("ckpt-torn-log:" + journal.string()),
            warned_before);
}

TEST(Store, CorruptSnapshotFallsBackToPreviousSnapshot) {
  const std::string root = temp_dir("fallback");
  const std::uint64_t identity = 0x99;
  ckpt::RunCheckpointer cp(writer_options(root, identity));

  const std::string blob_a = "snapshot A";
  const std::string blob_b = "snapshot B";
  SyntheticRun run;
  run.grow_to(2);
  cp.on_snapshot(run.snapshot(blob_a));
  cp.on_round(round_at(2));
  run.grow_to(4);
  cp.on_snapshot(run.snapshot(blob_b));

  // Flip a payload byte in the newest snapshot: checksum fails, the
  // previous snapshot answers with the rounds logged after it, with a
  // counted warning.
  const auto study_dir = ckpt::study_checkpoint_dir(root, identity);
  const auto journal = study_dir / "jrn-2.jrn";
  {
    std::fstream f(journal, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('!');
  }
  const long long warned_before =
      util::warn_once_count("ckpt-bad-snapshot:" + journal.string());
  auto resume = ckpt::load_resume(root, identity);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->next_episode, 2);
  EXPECT_EQ(resume->result.episodes.size(), 2u);
  EXPECT_EQ(resume->optimizer_state, "snapshot A");
  ASSERT_EQ(resume->deltas.size(), 1u);
  EXPECT_GT(util::warn_once_count("ckpt-bad-snapshot:" + journal.string()),
            warned_before);

  // Corrupt every snapshot: cold start (nullopt), never a throw.
  const std::string bytes = slurp(journal.string());
  std::filesystem::resize_file(
      journal, records_of(bytes, ckpt::RecordType::kSnapshot)[0].end - 1);
  EXPECT_FALSE(ckpt::load_resume(root, identity).has_value());
  std::filesystem::resize_file(journal, 3);
  EXPECT_FALSE(ckpt::load_resume(root, identity).has_value());

  // Garbage and empty journals are tolerated the same way.
  std::ofstream(study_dir / "jrn-8.jrn") << "not a checkpoint at all";
  std::ofstream(study_dir / "jrn-9.jrn");
  EXPECT_FALSE(ckpt::load_resume(root, identity).has_value());
}

TEST(Store, ResumedWriterStartsWholeAndKeepsOldJournalUntilThen) {
  const std::string root = temp_dir("resumed_writer");
  const std::uint64_t identity = 0x5a;
  const auto study_dir = ckpt::study_checkpoint_dir(root, identity);
  const std::string blob = "state";
  SyntheticRun run;
  {
    ckpt::RunCheckpointer first(writer_options(root, identity));
    run.grow_to(2);
    first.on_snapshot(run.snapshot(blob));
    first.on_round(round_at(2));
    run.grow_to(4);
    first.on_snapshot(run.snapshot(blob));
  }
  const std::string old_bytes = slurp((study_dir / "jrn-2.jrn").string());

  // A second writer (a resumed process) logs nothing before its first
  // snapshot: the old journal is not its to extend, and it stays intact.
  ckpt::RunCheckpointer second(writer_options(root, identity));
  second.on_round(round_at(4));
  ASSERT_EQ(list_journals(study_dir).size(), 1u);
  EXPECT_EQ(slurp((study_dir / "jrn-2.jrn").string()), old_bytes);

  // Its first snapshot is whole, in a journal of its own; only then is the
  // old journal deleted. Its next snapshot is a delta again.
  run.grow_to(6);
  second.on_snapshot(run.snapshot(blob));
  const auto journals = list_journals(study_dir);
  ASSERT_EQ(journals.size(), 1u);
  EXPECT_EQ(journals[0].first, 6);
  std::string bytes = slurp(journals[0].second.string());
  auto snaps = records_of(bytes, ckpt::RecordType::kSnapshot);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(bytes.substr(snaps[0].offset + ckpt::kRecordHeaderSize),
            ckpt::encode_snapshot(run.snapshot(blob)));
  run.grow_to(8);
  second.on_snapshot(run.snapshot(blob));
  bytes = slurp(journals[0].second.string());
  snaps = records_of(bytes, ckpt::RecordType::kSnapshot);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(bytes.substr(snaps[1].offset + ckpt::kRecordHeaderSize),
            ckpt::encode_snapshot(run.snapshot(blob), 6, 6));

  const auto resume = ckpt::load_resume(root, identity);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->next_episode, 8);
  EXPECT_EQ(resume->result.episodes.size(), 8u);
  EXPECT_EQ(resume->cache_log.size(), 8u);
}

// ------------------------------------------------ engine-level contracts

TEST(Engine, CheckpointingNeverChangesRunBytes) {
  // For every serializable strategy: a checkpointed run renders the exact
  // bytes of an uncheckpointed one, and actually wrote snapshots.
  for (core::Strategy strategy : serializable_strategies()) {
    const int episodes = 6;
    core::ExperimentConfig config = small_config();
    const core::RunResult reference =
        core::run_strategy(strategy, episodes, config);

    core::ExperimentConfig ckpt_config = config;
    ckpt_config.checkpoint_dir =
        temp_dir(("bytes_" + std::string(core::strategy_name(strategy)))
                     .c_str());
    ckpt_config.checkpoint_every = 2;
    const core::RunResult checkpointed =
        core::run_strategy(strategy, episodes, ckpt_config);

    EXPECT_EQ(render(checkpointed, "run"), render(reference, "run"))
        << core::strategy_name(strategy);
    EXPECT_EQ(checkpointed.resumed_episodes, 0);
    const auto study_dir = ckpt::study_checkpoint_dir(
        ckpt_config.checkpoint_dir,
        core::study_fingerprint(ckpt_config, strategy, episodes));
    EXPECT_EQ(list_journals(study_dir).size(), 1u)
        << core::strategy_name(strategy);
  }
}

TEST(Engine, ResumeReplaysAndContinuesByteIdentically) {
  // For every serializable strategy, exercise every resume path against
  // the same reference, each from an edited copy of the reference run's
  // journal (snapshots at 2, 4, 6 and 8, rounds between them):
  //  1. newest snapshot lost -> restore the previous snapshot and REPLAY
  //     the rounds logged after it to the end of the run;
  //  2. its rounds lost too -> restore the previous snapshot and CONTINUE
  //     LIVE (restored optimizer + RNG must reproduce the tail);
  //  3. newest snapshot corrupt -> fall back past it, replay as in 1;
  //  4. every snapshot corrupt -> cold start;
  //  5. a completed run resumes instantly.
  for (core::Strategy strategy : serializable_strategies()) {
    SCOPED_TRACE(std::string(core::strategy_name(strategy)));
    const int episodes = 8;
    core::ExperimentConfig config = small_config();
    config.checkpoint_dir =
        temp_dir(("resume_" + std::string(core::strategy_name(strategy)))
                     .c_str());
    config.checkpoint_every = 2;
    const core::RunResult reference =
        core::run_strategy(strategy, episodes, config);
    const std::string reference_bytes = render(reference, "run");

    const auto study_dir = ckpt::study_checkpoint_dir(
        config.checkpoint_dir,
        core::study_fingerprint(config, strategy, episodes));
    const auto journals = list_journals(study_dir);
    ASSERT_EQ(journals.size(), 1u);
    const std::filesystem::path name = journals[0].second.filename();
    const std::string journal = slurp(journals[0].second.string());
    const auto snaps = records_of(journal, ckpt::RecordType::kSnapshot);
    ASSERT_EQ(snaps.size(), 4u);
    const JournalRecord& previous = snaps[2];  // next_episode 6

    core::ExperimentConfig resume_config = config;
    resume_config.resume = true;
    auto resume_from = [&](std::string_view bytes) {
      replace_journals(study_dir, name, bytes);
      return core::run_strategy(strategy, episodes, resume_config);
    };

    // 1. Replay: the journal up to the last snapshot record.
    {
      const core::RunResult resumed =
          resume_from(std::string_view(journal).substr(0, snaps[3].offset));
      EXPECT_EQ(render(resumed, "run"), reference_bytes);
      EXPECT_EQ(resumed.resumed_episodes, episodes);  // nothing re-evaluated
    }

    // 2. Live continuation: the journal up to the snapshot at 6.
    {
      const core::RunResult resumed =
          resume_from(std::string_view(journal).substr(0, previous.end));
      EXPECT_EQ(render(resumed, "run"), reference_bytes);
      EXPECT_EQ(resumed.resumed_episodes, 6);  // tail ran live
    }

    // 3. Fallback: the whole journal, newest snapshot's payload damaged.
    {
      std::string damaged = journal;
      damaged[snaps[3].end - 2] ^= 0x01;
      const core::RunResult resumed = resume_from(damaged);
      EXPECT_EQ(render(resumed, "run"), reference_bytes);
      EXPECT_EQ(resumed.resumed_episodes, episodes);
    }

    // 4. Cold start: the first snapshot damaged, so nothing after it counts.
    {
      std::string damaged = journal;
      damaged[snaps[0].end - 2] ^= 0x01;
      const core::RunResult resumed = resume_from(damaged);
      EXPECT_EQ(render(resumed, "run"), reference_bytes);
      EXPECT_EQ(resumed.resumed_episodes, 0);
    }

    // 5. The cold run above rewrote a complete journal: resuming it
    //    restores the final snapshot and runs nothing at all.
    {
      const core::RunResult resumed =
          core::run_strategy(strategy, episodes, resume_config);
      EXPECT_EQ(render(resumed, "run"), reference_bytes);
      EXPECT_EQ(resumed.resumed_episodes, episodes);
    }
  }
}

TEST(Engine, LlmStrategiesWarnAndRunUncheckpointed) {
  const int episodes = 4;
  core::ExperimentConfig config = small_config();
  const core::RunResult reference =
      core::run_strategy(core::Strategy::kLcda, episodes, config);

  core::ExperimentConfig ckpt_config = config;
  ckpt_config.checkpoint_dir = temp_dir("llm_unsupported");
  ckpt_config.checkpoint_every = 2;
  ckpt_config.resume = true;  // must be a no-op without state on disk
  const long long warned_before = util::warn_once_count("ckpt-unsupported:LCDA");
  const core::RunResult run =
      core::run_strategy(core::Strategy::kLcda, episodes, ckpt_config);
  EXPECT_GT(util::warn_once_count("ckpt-unsupported:LCDA"), warned_before);
  EXPECT_EQ(render(run, "run"), render(reference, "run"));
  // No study directory was created for it.
  EXPECT_TRUE(std::filesystem::is_empty(ckpt_config.checkpoint_dir));
}

// --------------------------------------- killed-and-resumed subprocesses

std::string lcda_run_path() {
  const std::string self = util::self_executable_path(nullptr);
  if (self.empty()) return "";
  const std::filesystem::path candidate =
      std::filesystem::path(self).parent_path() / "lcda_run";
  std::error_code ec;
  return std::filesystem::exists(candidate, ec) ? candidate.string() : "";
}

/// The byte-contract slice of a CLI JSON document: the runs array. The
/// scenario echo necessarily differs between a reference run and a
/// checkpoint-flagged run (it reproduces the config verbatim, checkpoint
/// knobs included), so whole-file comparison would test the wrong thing.
std::string runs_slice(const std::string& json_path) {
  return util::Json::parse(slurp(json_path)).at("runs").dump(2);
}

struct CliCase {
  const char* cli_name;  ///< --strategy= spelling
};

TEST(Crash, KillAtEveryBoundaryThenResumeIsByteIdentical) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }
  const std::string out_dir = temp_dir("crash_sweep");
  const int kEpisodes = 6;
  long long resumed_total = 0;

  for (const char* strategy :
       {"random", "genetic", "nsga2", "annealing", "rl"}) {
    // Uninterrupted, checkpoint-free reference (so the sweep also
    // re-proves checkpoint-on == checkpoint-off byte invariance).
    const std::string ref_json = out_dir + "/" + strategy + "_ref.json";
    const std::string ref_csv = out_dir + "/" + strategy + "_ref.csv";
    const std::vector<std::string> base = {
        runner,
        "--scenario=paper-energy",
        std::string("--strategy=") + strategy,
        "--episodes=" + std::to_string(kEpisodes),
        "--seeds=1",
        "--set=batch_size=1",
        "--quiet",
    };
    {
      auto argv = base;
      argv.push_back("--json=" + ref_json);
      argv.push_back("--trace=" + ref_csv);
      const auto r = util::Subprocess::run(argv);
      ASSERT_EQ(r.exit_code, 0) << r.stderr_output;
    }
    const std::string reference =
        runs_slice(ref_json) + "\n---\n" + slurp(ref_csv);

    for (int k : {1, 3, 5}) {
      SCOPED_TRACE(std::string(strategy) + " kill@" + std::to_string(k));
      const std::string tag =
          out_dir + "/" + strategy + "_k" + std::to_string(k);
      const std::string ckpt_dir = tag + "_ckpt";
      auto argv = base;
      argv.push_back("--checkpoint-dir=" + ckpt_dir);
      argv.push_back("--checkpoint-every=2");
      argv.push_back("--json=" + tag + ".json");
      argv.push_back("--trace=" + tag + ".csv");

      // Crash the run at episode k (the injected _Exit(42)).
      ::setenv("LCDA_FAULT", ("kill@episode:" + std::to_string(k)).c_str(), 1);
      const auto killed = util::Subprocess::run(argv);
      ::unsetenv("LCDA_FAULT");
      ASSERT_EQ(killed.exit_code, 42) << killed.stderr_output;

      // Resume and finish; the document and trace must match the
      // uninterrupted reference byte for byte.
      argv.push_back("--resume");
      const auto resumed = util::Subprocess::run(argv);
      ASSERT_EQ(resumed.exit_code, 0) << resumed.stderr_output;
      EXPECT_EQ(runs_slice(tag + ".json") + "\n---\n" + slurp(tag + ".csv"),
                reference);

      // The CLI narrates how much the resume restored.
      const auto pos = resumed.stderr_output.find("resumed_episodes=");
      ASSERT_NE(pos, std::string::npos) << resumed.stderr_output;
      resumed_total +=
          std::atoll(resumed.stderr_output.c_str() + pos +
                     std::string("resumed_episodes=").size());
    }
  }
  // Across the sweep, at least one resume genuinely restored state (kills
  // before the first boundary legitimately cold-start).
  EXPECT_GT(resumed_total, 0);
}

TEST(Crash, TornCheckpointWritesDegradeToEarlierState) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }
  const std::string out_dir = temp_dir("crash_torn");
  const int kEpisodes = 6;
  const std::vector<std::string> base = {
      runner,
      "--scenario=paper-energy",
      "--strategy=genetic",
      "--episodes=" + std::to_string(kEpisodes),
      "--seeds=1",
      "--set=batch_size=1",
      "--quiet",
  };
  const std::string ref_json = out_dir + "/ref.json";
  const std::string ref_csv = out_dir + "/ref.csv";
  {
    auto argv = base;
    argv.push_back("--json=" + ref_json);
    argv.push_back("--trace=" + ref_csv);
    const auto r = util::Subprocess::run(argv);
    ASSERT_EQ(r.exit_code, 0) << r.stderr_output;
  }
  const std::string reference =
      runs_slice(ref_json) + "\n---\n" + slurp(ref_csv);

  for (const char* fault : {"torn-snapshot@episode:4", "torn-log@episode:3"}) {
    SCOPED_TRACE(fault);
    const std::string tag = out_dir + "/" + std::string(fault).substr(0, 8);
    const std::string ckpt_dir = tag + "_ckpt";
    auto argv = base;
    argv.push_back("--checkpoint-dir=" + ckpt_dir);
    argv.push_back("--checkpoint-every=2");
    argv.push_back("--json=" + tag + ".json");
    argv.push_back("--trace=" + tag + ".csv");

    // The writer truncates the targeted file mid-write, then dies.
    ::setenv("LCDA_FAULT", fault, 1);
    const auto torn = util::Subprocess::run(argv);
    ::unsetenv("LCDA_FAULT");
    ASSERT_EQ(torn.exit_code, 42) << torn.stderr_output;

    // Resume: fsck-on-load skips the torn file (counted warning on
    // stderr), falls back to the previous state, and the finished run is
    // still byte-identical to the uninterrupted reference.
    argv.push_back("--resume");
    const auto resumed = util::Subprocess::run(argv);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.stderr_output;
    EXPECT_NE(resumed.stderr_output.find("ckpt"), std::string::npos)
        << resumed.stderr_output;
    EXPECT_EQ(runs_slice(tag + ".json") + "\n---\n" + slurp(tag + ".csv"),
              reference);
  }
}

}  // namespace
