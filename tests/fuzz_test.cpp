// Robustness fuzzing of every text-handling path: random byte soup, random
// bracket soup and truncated real payloads must never crash, and whatever
// parses must land inside the search space. These are the paths that face
// an uncontrolled LLM in production. The binary store segment decoder and
// the checkpoint journal reader get seeded mutation fuzzing too: damaged
// files must be rejected cleanly or serve only records whose checksum
// verifies. The decoders of what the distributed runner's processes send
// each other (shard specs, worker command/reply lines) and the scenario
// JSON decoder get seeded mutants too: each must be rejected cleanly or
// decode to a value that round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/scenario.h"
#include "lcda/dist/protocol.h"
#include "lcda/dist/shard.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt.h"
#include "lcda/llm/prompt_reader.h"
#include "lcda/store/eval_store.h"
#include "lcda/store/legacy_json.h"
#include "lcda/store/segment.h"
#include "lcda/util/json_lite.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

namespace lcda {
namespace {

std::string random_bytes(util::Rng& rng, int len) {
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.uniform_int(32, 126)));  // printable
  }
  return s;
}

std::string random_bracket_soup(util::Rng& rng, int len) {
  static const char alphabet[] = "[]0123456789,-. \nhardware=RFeT";
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.index(sizeof(alphabet) - 1)]);
  }
  return s;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, NeverCrashesAndStaysInSpace) {
  const search::SearchSpace space;
  util::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const std::string text = rng.chance(0.5)
                                 ? random_bytes(rng, static_cast<int>(rng.uniform_int(0, 400)))
                                 : random_bracket_soup(rng, static_cast<int>(rng.uniform_int(0, 400)));
    const llm::ParseResult r = llm::parse_design_response(text, space);
    if (r.ok) {
      EXPECT_TRUE(space.contains(r.design)) << text;
    } else {
      EXPECT_FALSE(r.error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 2, 3, 4, 5));

class PromptReaderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PromptReaderFuzz, NeverCrashes) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const std::string text =
        rng.chance(0.5)
            ? random_bytes(rng, static_cast<int>(rng.uniform_int(0, 600)))
            : random_bracket_soup(rng, static_cast<int>(rng.uniform_int(0, 600)));
    const llm::PromptFacts facts = llm::read_prompt(text);
    EXPECT_GE(facts.conv_layers, 1);
    EXPECT_LE(facts.conv_layers, 32);
    for (const auto& h : facts.history) {
      EXPECT_FALSE(h.design.rollout.empty());
    }
  }
}

/// Random Algorithm-1 prompt options: energy, latency or naive framing.
llm::PromptBuilder::Options random_prompt_options(util::Rng& rng) {
  llm::PromptBuilder::Options opts;
  opts.objective =
      rng.chance(0.5) ? llm::Objective::kEnergy : llm::Objective::kLatency;
  opts.codesign_context = rng.chance(0.7);
  return opts;
}

llm::HistoryEntry random_entry(util::Rng& rng, const search::SearchSpace& space) {
  llm::HistoryEntry h;
  h.design = space.sample(rng);
  h.performance = rng.chance(0.1) ? -1.0 : rng.uniform(-0.5, 1.0);
  return h;
}

/// A real Algorithm-1 prompt (energy, latency or naive framing) with
/// `entries` history lines of sampled designs.
std::string real_prompt(util::Rng& rng, int entries) {
  const search::SearchSpace space;
  const llm::PromptBuilder::Options opts = random_prompt_options(rng);
  std::vector<llm::HistoryEntry> history;
  for (int i = 0; i < entries; ++i) history.push_back(random_entry(rng, space));
  return llm::PromptBuilder(space, opts).build(history).full_text();
}

/// Truncation, byte flips, case flips, dropped and doubled newlines.
void mutate(util::Rng& rng, std::string& text) {
  const int edits = static_cast<int>(rng.uniform_int(1, 8));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.index(text.size());
    switch (rng.uniform_int(0, 4)) {
      case 0:
        text.resize(at);
        break;
      case 1:
        text[at] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2:
        if (std::isalpha(static_cast<unsigned char>(text[at]))) text[at] ^= 0x20;
        break;
      case 3:
      case 4: {
        const std::size_t nl = text.find('\n', at);
        if (nl == std::string::npos) break;
        if (rng.chance(0.5)) {
          text.erase(nl, 1);
        } else {
          text.insert(nl, 1, '\n');
        }
        break;
      }
    }
  }
}

TEST_P(PromptReaderFuzz, MutatedRealPromptsKeepInvariants) {
  util::Rng rng(GetParam());
  for (int entries : {0, 20, 80}) {
    for (int i = 0; i < 40; ++i) {
      std::string text = real_prompt(rng, entries);
      if (i > 0) mutate(rng, text);  // i == 0: the unmutated prompt
      const llm::PromptFacts facts = llm::read_prompt(text);
      EXPECT_GE(facts.conv_layers, 1);
      EXPECT_LE(facts.conv_layers, 32);
      for (const auto& h : facts.history) {
        EXPECT_FALSE(h.design.rollout.empty());
      }
      if (i == 0) {
        EXPECT_FALSE(facts.channel_choices.empty());
        EXPECT_EQ(facts.history.size(),
                  static_cast<std::size_t>(std::min(entries, 64)));
      }
    }
  }
}

void flip_case(std::string& line) {
  for (char& c : line) {
    if (std::isalpha(static_cast<unsigned char>(c))) c ^= 0x20;
  }
}

/// Line-level edits a memo keyed by line bytes must see through: a line
/// doubled, a run of lines reversed, one line's letters case-flipped, or a
/// header line copied with new digits (so its keywords occur twice, with
/// different lists, and only the first occurrence may count).
void shuffle_lines(util::Rng& rng, std::string& text) {
  std::vector<std::string> lines = util::split(text, '\n');
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits && !lines.empty(); ++e) {
    const std::size_t at = rng.index(lines.size());
    switch (rng.uniform_int(0, 3)) {
      case 0:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(rng.index(lines.size())),
                     lines[at]);
        break;
      case 1: {
        const std::size_t end = std::min(lines.size(), at + rng.index(12) + 2);
        std::reverse(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines.begin() + static_cast<std::ptrdiff_t>(end));
        break;
      }
      case 2:
        flip_case(lines[at]);
        break;
      case 3: {
        std::string copy = lines[rng.index(std::min<std::size_t>(lines.size(), 12))];
        for (char& c : copy) {
          if (c >= '0' && c <= '9') c = static_cast<char>('0' + rng.index(10));
        }
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(rng.index(lines.size())),
                     std::move(copy));
        break;
      }
    }
  }
  text = util::join(lines, "\n");
}

/// Field-by-field equality; performances compare by bit pattern so a NaN
/// read from a mutated line matches itself. Returns what differs.
std::string facts_diff(const llm::PromptFacts& got, const llm::PromptFacts& want) {
  std::string diff;
  const auto check = [&diff](bool same, const char* field) {
    if (!same) diff += std::string(diff.empty() ? "" : ", ") + field;
  };
  check(got.codesign_context == want.codesign_context, "codesign_context");
  check(got.objective == want.objective, "objective");
  check(got.channel_choices == want.channel_choices, "channel_choices");
  check(got.kernel_choices == want.kernel_choices, "kernel_choices");
  check(got.device_choices == want.device_choices, "device_choices");
  check(got.bits_per_cell_choices == want.bits_per_cell_choices,
        "bits_per_cell_choices");
  check(got.adc_bits_choices == want.adc_bits_choices, "adc_bits_choices");
  check(got.xbar_choices == want.xbar_choices, "xbar_choices");
  check(got.mux_choices == want.mux_choices, "mux_choices");
  check(got.conv_layers == want.conv_layers, "conv_layers");
  bool history_same = got.history.size() == want.history.size();
  for (std::size_t i = 0; history_same && i < got.history.size(); ++i) {
    history_same =
        got.history[i].design == want.history[i].design &&
        std::bit_cast<std::uint64_t>(got.history[i].performance) ==
            std::bit_cast<std::uint64_t>(want.history[i].performance);
  }
  check(history_same, "history");
  return diff;
}

TEST_P(PromptReaderFuzz, MemoizedReaderMatchesFreshRead) {
  // One long-lived reader (so its memo is warm, full and evicting) against
  // a fresh read_prompt of every prompt in a seeded sequence.
  util::Rng rng(GetParam());
  const search::SearchSpace space;
  llm::PromptReader reader;
  int prompts = 0;
  int mismatches = 0;
  int evictions = 0;
  std::size_t last_size = 0;
  const auto check = [&](const std::string& text) {
    ++prompts;
    const llm::PromptFacts& got = reader.read(text);
    const std::string diff = facts_diff(got, llm::read_prompt(text));
    if (!diff.empty()) {
      ++mismatches;
      ADD_FAILURE() << "memoized read differs in " << diff << " for:\n" << text;
    }
    const auto& hashes = reader.history_hashes();
    ASSERT_EQ(hashes.size(), got.history.size());
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      EXPECT_EQ(hashes[i], got.history[i].design.hash());
    }
    EXPECT_LE(reader.memo_size(), llm::PromptReader::kCapacity);
    if (reader.memo_size() < last_size) ++evictions;
    last_size = reader.memo_size();
  };

  for (int round = 0; round < 3; ++round) {
    // The Algorithm-1 loop: sliding windows of one growing history, past
    // the 64-line cap, with an occasional mutated or shuffled turn.
    const llm::PromptBuilder builder(space, random_prompt_options(rng));
    std::vector<llm::HistoryEntry> history;
    for (int turn = 0; turn < 100; ++turn) {
      std::string text = builder.build(history).full_text();
      if (rng.chance(0.15)) mutate(rng, text);
      if (rng.chance(0.15)) shuffle_lines(rng, text);
      check(text);
      // Repeats make duplicate lines inside one window.
      history.push_back(rng.chance(0.2) && !history.empty()
                            ? history[rng.index(history.size())]
                            : random_entry(rng, space));
    }
    // Unrelated prompts: mostly new lines, so the memo fills and evicts.
    for (int i = 0; i < 30; ++i) {
      std::string text = real_prompt(rng, static_cast<int>(rng.uniform_int(0, 90)));
      if (rng.chance(0.5)) mutate(rng, text);
      if (rng.chance(0.5)) shuffle_lines(rng, text);
      check(text);
    }
  }
  EXPECT_EQ(mismatches, 0) << "over " << prompts << " prompts";
  EXPECT_GT(evictions, 0) << "the sequence never filled the memo";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PromptReaderFuzz, ::testing::Values(7, 8, 9));

TEST(ParserFuzzDirected, TruncatedRealPayloads) {
  const search::SearchSpace space;
  const std::string full =
      "Based on the results, I suggest:\n"
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]\n"
      "hardware=[FeFET,2,6,128,8]\n";
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const llm::ParseResult r =
        llm::parse_design_response(full.substr(0, cut), space);
    if (r.ok) EXPECT_TRUE(space.contains(r.design)) << "cut=" << cut;
  }
}

TEST(StringsFuzz, ExtractIntsHandlesAdversarialInput) {
  util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const std::string s = random_bracket_soup(rng, 120);
    const auto ints = util::extract_ints(s);
    for (long long v : ints) {
      EXPECT_LT(std::abs(v), 1000000000000LL);  // bounded by 120 chars
    }
  }
}

TEST(StringsFuzz, SplitJoinRoundTrip) {
  util::Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    // Alphabet without the delimiter so split/join round-trips exactly.
    std::string s;
    for (int j = 0; j < 50; ++j) {
      s.push_back(static_cast<char>(rng.uniform_int('a', 'z')));
      if (rng.chance(0.2)) s.push_back(',');
    }
    const auto parts = util::split(s, ',');
    EXPECT_EQ(util::join(parts, ","), s);
  }
}

// ------------------------------------------------- store segment decoder

constexpr std::uint64_t kEvalFp = 0x11;
constexpr std::uint64_t kStreamFp = 0x22;
constexpr std::uint64_t kDesigns = 6;

/// A healthy segment: up to kDesigns records under the study's own key,
/// plus (half the time) the same designs under a foreign stream.
std::vector<std::uint8_t> healthy_segment(util::Rng& rng) {
  std::vector<store::StoreRecord> records;
  const std::size_t own = rng.index(kDesigns + 1);
  const bool mixed = rng.chance(0.5);
  for (std::uint64_t h = 1; h <= kDesigns; ++h) {
    for (const std::uint64_t stream : {kStreamFp, kStreamFp + 1}) {
      if (stream == kStreamFp ? h > own : !mixed) continue;
      store::StoreRecord record;
      record.eval_fingerprint = kEvalFp;
      record.design_hash = h;
      record.stream_fingerprint = stream;
      record.seq = h;
      record.evaluation.accuracy = rng.uniform(0.0, 1.0);
      record.evaluation.cost.valid = true;
      record.evaluation.cost.energy_total_pj = rng.uniform(1e6, 1e8);
      record.evaluation.cost.invalid_reason =
          std::string(rng.index(8), 'x');
      records.push_back(record);
    }
  }
  return store::serialize_segment(records);
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t off,
             std::uint64_t v) {
  if (off + sizeof v <= bytes.size()) std::memcpy(bytes.data() + off, &v, sizeof v);
}

/// Re-seals the header checksum, so edits get past it to the checks behind.
void reseal_header(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < store::kHeaderSize) return;
  put_u64(bytes, 24,
          util::fnv1a64(std::string_view(
              reinterpret_cast<const char*>(bytes.data()), 24)));
}

/// Bit flips, truncation, appended bytes, header count and max_seq edits
/// (resealed or not), and whole-record copies that break the sort order
/// with intact checksums.
void mutate_segment(util::Rng& rng, std::vector<std::uint8_t>& bytes) {
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const std::size_t records =
        bytes.size() > store::kHeaderSize
            ? (bytes.size() - store::kHeaderSize) / store::kRecordSize
            : 0;
    switch (rng.uniform_int(0, 9)) {
      default:  // 0-4: the most common damage, a few flipped bits
        bytes[rng.index(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.index(8));
        break;
      case 5:
        bytes.resize(rng.index(bytes.size()));
        break;
      case 6:
        bytes.resize(bytes.size() + 1 + rng.index(store::kRecordSize));
        break;
      case 7:
        put_u64(bytes, 8, rng.chance(0.5) ? records + rng.index(3) - 1
                                          : rng.next_u64());
        if (rng.chance(0.7)) reseal_header(bytes);
        break;
      case 8:
        put_u64(bytes, 16, rng.next_u64());
        if (rng.chance(0.7)) reseal_header(bytes);
        break;
      case 9:
        if (records >= 2) {
          const std::size_t from = rng.index(records), to = rng.index(records);
          std::memcpy(bytes.data() + store::kHeaderSize + to * store::kRecordSize,
                      bytes.data() + store::kHeaderSize + from * store::kRecordSize,
                      store::kRecordSize);
        }
        break;
    }
  }
}

class SegmentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SegmentFuzz, MutantsAreRejectedOrServeOnlyVerifiedRecords) {
  namespace fs = std::filesystem;
  util::Rng rng(GetParam());
  const std::string dir =
      (fs::temp_directory_path() /
       ("lcda_fuzz_segment_" + std::to_string(GetParam())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir + "/segments");
  store::EvalStore::Options opts;
  opts.directory = dir;
  opts.eval_fingerprint = kEvalFp;
  opts.stream_fingerprint = kStreamFp;

  testing::internal::CaptureStderr();  // one skip warning per rejected file
  int rejected = 0;
  for (int i = 0; i < 120; ++i) {
    std::vector<std::uint8_t> bytes = healthy_segment(rng);
    if (i > 0) mutate_segment(rng, bytes);  // i == 0: the healthy segment
    // A fresh path per case: the process-wide view cache never sees a
    // path reused for other bytes, as with real (immutable) segments.
    const std::string path =
        dir + "/segments/seg-" + std::to_string(i) + ".seg";
    store::publish_file(path, bytes);

    std::string error;
    const std::optional<store::SegmentView> view =
        store::SegmentView::open(path, &error);
    const store::EvalStore eval_store(opts);
    if (!view) {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "case " << i;
      EXPECT_EQ(eval_store.skipped_files(), 1u) << "case " << i;
      for (std::uint64_t h = 0; h <= kDesigns + 1; ++h) {
        EXPECT_FALSE(eval_store.lookup(h).has_value()) << "case " << i;
      }
    } else {
      EXPECT_EQ(eval_store.skipped_files(), 0u) << "case " << i;
      EXPECT_EQ(store::kHeaderSize + view->count() * store::kRecordSize,
                bytes.size())
          << "case " << i;
      if (const auto key = store::uniform_segment_key(*view)) {
        for (std::size_t r = 0; r < view->count(); ++r) {
          const store::StoreRecord record = store::decode_record(view->record(r));
          EXPECT_EQ(record.eval_fingerprint, key->eval_fingerprint);
          EXPECT_EQ(record.stream_fingerprint, key->stream_fingerprint);
        }
      }
      std::size_t hits = 0;
      for (std::uint64_t h = 0; h <= kDesigns + 1; ++h) {
        const auto hit = eval_store.lookup(h);
        if (!hit) continue;  // a damaged or misplaced record: a cold miss
        ++hits;
        const std::string served = store::evaluation_to_json(*hit).dump();
        bool verified = false;
        for (std::size_t r = 0; r < view->count() && !verified; ++r) {
          if (!store::record_checksum_ok(view->record(r))) continue;
          const store::StoreRecord record = store::decode_record(view->record(r));
          verified = record.eval_fingerprint == kEvalFp &&
                     record.design_hash == h &&
                     record.stream_fingerprint == kStreamFp &&
                     store::evaluation_to_json(record.evaluation).dump() == served;
        }
        EXPECT_TRUE(verified) << "case " << i << " hash " << h;
      }
      if (i == 0) {  // the healthy segment serves every own record
        std::size_t own = 0;
        for (std::size_t r = 0; r < view->count(); ++r) {
          own += store::decode_record(view->record(r)).stream_fingerprint ==
                 kStreamFp;
        }
        EXPECT_EQ(hits, own);
        EXPECT_EQ(eval_store.corrupt_records(), 0u);
      }
    }
    fs::remove(path);
  }
  (void)testing::internal::GetCapturedStderr();
  fs::remove_all(dir);
  // Both outcomes are exercised, not just one.
  EXPECT_GT(rejected, 20);
  EXPECT_LT(rejected, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentFuzz, ::testing::Values(21, 22, 23));

// ------------------------------------------------ checkpoint journal reader

/// A healthy journal written by the real writer, plus what a resume from
/// it may legitimately return: the whole state at each snapshot, and the
/// rounds logged after each snapshot.
struct HealthyJournal {
  std::filesystem::path path;
  std::string bytes;
  std::vector<std::string> states;               ///< whole snapshot encodings
  std::vector<std::vector<std::string>> rounds;  ///< per snapshot, encoded
  int first_episode = 0;                         ///< names the journal
};

HealthyJournal healthy_journal(util::Rng& rng, const std::string& root,
                               std::uint64_t identity) {
  namespace fs = std::filesystem;
  fs::remove_all(root);
  HealthyJournal out;
  core::RunResult result;
  std::vector<core::CacheLogEntry> log;
  const std::string blob(rng.index(12), 'o');
  ckpt::RunCheckpointer cp({root, identity});
  int episode = 0;
  for (int snapshot = 0; snapshot < 4; ++snapshot) {
    const int rounds = static_cast<int>(rng.uniform_int(0, 3));
    if (snapshot > 0) out.rounds.emplace_back();
    for (int r = 0; r < rounds; ++r) {
      core::RoundDelta delta;
      delta.first_episode = episode;
      for (int j = 0; j < static_cast<int>(rng.uniform_int(1, 2)); ++j) {
        core::EpisodeRecord ep;
        ep.episode = episode++;
        ep.design.rollout.assign(rng.index(4), {16, 3});
        ep.design.hw.adc_bits = static_cast<int>(rng.uniform_int(1, 8));
        ep.reward = rng.uniform(-1.0, 1.0);
        ep.valid = rng.chance(0.8);
        result.episodes.push_back(ep);
        if (result.best_episode < 0 || ep.reward > result.best_reward()) {
          result.best_episode = ep.episode;
        }
        core::Evaluation ev;
        ev.accuracy = rng.uniform(0.0, 1.0);
        ev.cost.invalid_reason = std::string(rng.index(6), 'r');
        delta.job_hashes.push_back(rng.next_u64());
        delta.job_evals.push_back(ev);
        log.push_back({delta.job_hashes.back(), ev, rng.chance(0.5)});
      }
      if (snapshot > 0) {
        cp.on_round(delta);
        out.rounds.back().push_back(ckpt::encode_round(delta));
      }
    }
    core::LoopSnapshot snap;
    snap.next_episode = episode;
    snap.rng_state = util::Rng(rng.next_u64()).state();
    snap.optimizer_state = &blob;
    snap.result = &result;
    snap.cache_log = &log;
    cp.on_snapshot(snap);
    if (snapshot == 0) out.first_episode = episode;
    out.states.push_back(ckpt::encode_snapshot(snap));
  }
  out.rounds.emplace_back();  // nothing logged after the last snapshot
  const auto dir = ckpt::study_checkpoint_dir(root, identity);
  out.path = dir / ("jrn-" + std::to_string(out.first_episode) + ".jrn");
  std::ifstream in(out.path, std::ios::binary);
  out.bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  return out;
}

/// Frame offsets of the records a journal's bytes parse into.
std::vector<std::size_t> record_offsets(const std::string& bytes) {
  std::vector<std::size_t> offsets;
  std::size_t pos = ckpt::kJournalHeaderSize;
  while (pos + ckpt::kRecordHeaderSize <= bytes.size()) {
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof len);
    if (len > bytes.size() - pos - ckpt::kRecordHeaderSize) break;
    offsets.push_back(pos);
    pos += ckpt::kRecordHeaderSize + len;
  }
  return offsets;
}

/// Re-seals one record's checksum (over type byte + payload) when its
/// length fits, so edits get past it to the decoders behind.
void reseal_record(std::string& bytes, std::size_t at) {
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + at, sizeof len);
  if (len > bytes.size() - at - ckpt::kRecordHeaderSize) return;
  const std::uint64_t fnv =
      util::fnv1a64(std::string_view(bytes).substr(at + 16, len + 1));
  std::memcpy(bytes.data() + at + 8, &fnv, sizeof fnv);
}

enum class Damage { kPlain, kResealed, kDuplicated };

/// Bit flips, truncation, appended bytes, record length and type edits
/// (resealed or not), and whole-record copies with intact checksums.
Damage mutate_journal(util::Rng& rng, std::string& bytes) {
  Damage damage = Damage::kPlain;
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const std::vector<std::size_t> offsets = record_offsets(bytes);
    const std::size_t at = offsets.empty() ? 0 : offsets[rng.index(offsets.size())];
    switch (rng.uniform_int(0, 9)) {
      default:  // 0-4: the most common damage, a few flipped bits
        bytes[rng.index(bytes.size())] ^= static_cast<char>(1u << rng.index(8));
        break;
      case 5:
        bytes.resize(rng.index(bytes.size()));
        break;
      case 6:
        for (std::size_t k = 1 + rng.index(64); k > 0; --k) {
          bytes.push_back(static_cast<char>(rng.next_u64()));
        }
        break;
      case 7:
      case 8: {
        if (offsets.empty()) break;
        if (rng.uniform_int(7, 8) == 7) {
          std::uint64_t len = 0;
          std::memcpy(&len, bytes.data() + at, sizeof len);
          len = rng.chance(0.5) ? len + rng.index(3) - 1 : rng.next_u64();
          std::memcpy(bytes.data() + at, &len, sizeof len);
        } else {
          bytes[at + 16] = static_cast<char>(rng.chance(0.5) ? 3 - bytes[at + 16]
                                                             : rng.next_u64());
        }
        if (rng.chance(0.7)) {
          reseal_record(bytes, at);
          damage = Damage::kResealed;
        }
        break;
      }
      case 9: {
        if (offsets.empty()) break;
        std::uint64_t len = 0;
        std::memcpy(&len, bytes.data() + at, sizeof len);
        const std::string record =
            bytes.substr(at, ckpt::kRecordHeaderSize + len);
        const std::size_t to = offsets[rng.index(offsets.size())];
        bytes.insert(to, record);
        if (damage == Damage::kPlain) damage = Damage::kDuplicated;
        break;
      }
    }
  }
  return damage;
}

std::string whole_state(const core::LoopResume& resume) {
  core::LoopSnapshot snap;
  snap.next_episode = resume.next_episode;
  snap.rng_state = resume.rng_state;
  snap.optimizer_state = &resume.optimizer_state;
  snap.result = &resume.result;
  snap.cache_log = &resume.cache_log;
  return ckpt::encode_snapshot(snap);
}

class CheckpointFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointFuzz, MutantsLoadNothingOrOnlyVerifiedRecords) {
  namespace fs = std::filesystem;
  util::Rng rng(GetParam());
  const std::string root =
      (fs::temp_directory_path() /
       ("lcda_fuzz_journal_" + std::to_string(GetParam())))
          .string();
  const std::uint64_t identity = 0x33;
  const HealthyJournal healthy = healthy_journal(rng, root, identity);
  ASSERT_GT(healthy.bytes.size(), ckpt::kJournalHeaderSize);
  std::vector<std::string> all_rounds;
  for (const auto& after : healthy.rounds) {
    all_rounds.insert(all_rounds.end(), after.begin(), after.end());
  }
  const fs::path& journal = healthy.path;

  testing::internal::CaptureStderr();  // one warning per damaged journal
  int cold = 0;
  int fell_back = 0;
  for (int i = 0; i < 100; ++i) {
    std::string bytes = healthy.bytes;
    const Damage damage = i > 0 ? mutate_journal(rng, bytes) : Damage::kPlain;
    std::ofstream(journal, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

    const std::optional<core::LoopResume> resume = ckpt::load_resume(root, identity);
    if (!resume) {
      ++cold;
      EXPECT_GT(i, 0) << "the healthy journal must load";
      continue;
    }
    EXPECT_EQ(resume->result.episodes.size(),
              static_cast<std::size_t>(resume->next_episode))
        << "case " << i;
    if (damage == Damage::kResealed) continue;  // forged checksums
    // Every record behind the resume verified: its state is the state at
    // one of the writer's snapshots, and its rounds were logged after it
    // (in order, unless a verified record was copied).
    const auto it = std::find(healthy.states.begin(), healthy.states.end(),
                              whole_state(*resume));
    ASSERT_NE(it, healthy.states.end()) << "case " << i;
    const std::size_t k = static_cast<std::size_t>(it - healthy.states.begin());
    if (k + 1 < healthy.states.size()) ++fell_back;
    const std::vector<std::string>& after = healthy.rounds[k];
    for (std::size_t d = 0; d < resume->deltas.size(); ++d) {
      const std::string round = ckpt::encode_round(resume->deltas[d]);
      if (damage == Damage::kDuplicated) {
        EXPECT_NE(std::find(all_rounds.begin(), all_rounds.end(), round),
                  all_rounds.end())
            << "case " << i;
      } else {
        ASSERT_LT(d, after.size()) << "case " << i;
        EXPECT_EQ(round, after[d]) << "case " << i;
      }
    }
    if (i == 0) {
      EXPECT_EQ(k + 1, healthy.states.size());
      EXPECT_TRUE(resume->deltas.empty());
    }
  }
  (void)testing::internal::GetCapturedStderr();
  fs::remove_all(root);
  // Cold starts, fallbacks and clean loads are all exercised.
  EXPECT_GT(cold, 0);
  EXPECT_GT(fell_back, 0);
  EXPECT_LT(cold + fell_back, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzz, ::testing::Values(31, 32, 33));

// ------------------------------- shard specs and the worker pipe protocol

/// Real planner output in every mode, with the coordinator's bookkeeping
/// fields filled in as a dispatched (and sometimes stolen) spec has them.
std::vector<std::string> real_spec_documents() {
  core::Scenario scenario = core::scenario_by_name("paper-energy");
  scenario.config.lcda_episodes = 6;
  std::vector<std::string> docs;
  for (const dist::ShardMode mode :
       {dist::ShardMode::kRuns, dist::ShardMode::kAggregate,
        dist::ShardMode::kSpeedup}) {
    const double threshold = mode == dist::ShardMode::kAggregate
                                 ? 0.3
                                 : std::numeric_limits<double>::quiet_NaN();
    for (dist::ShardSpec spec : dist::plan_shards(
             scenario, mode,
             {{core::Strategy::kLcda, 6}, {core::Strategy::kGenetic, 4}}, 3,
             2, threshold, 0.9)) {
      spec.result_path = "/shards/shard-" + std::to_string(spec.index) + ".json";
      spec.progress_path = spec.result_path + ".progress";
      spec.revoke_path = spec.result_path + ".revoke";
      spec.trace_path = spec.result_path + ".trace";
      spec.heartbeat_ms = 50;
      spec.stolen_from = spec.index == 1 ? 0 : -1;
      spec.attempt = spec.index;
      docs.push_back(dist::shard_spec_to_json(spec).dump());
    }
  }
  return docs;
}

util::Json random_json_value(util::Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return util::Json(nullptr);
    case 1: return util::Json(rng.chance(0.5));
    case 2: return util::Json(static_cast<long long>(rng.uniform_int(-3, 3)));
    case 3: return util::Json(rng.uniform(-1e12, 1e12));
    case 4: return util::Json(std::string(rng.index(3), 'x'));
    case 5: return util::Json::array();
    default: return util::Json::object();
  }
}

/// Replaces or drops one value somewhere in `j`, walking down through
/// objects and arrays (the scenario, its config, the seed list).
util::Json mutate_tree(util::Rng& rng, const util::Json& j) {
  if (j.is_object() && j.size() > 0 && rng.chance(0.8)) {
    const auto items = j.items();
    const std::size_t pick = rng.index(items.size());
    const bool drop = rng.chance(0.3);
    util::Json out = util::Json::object();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != pick) {
        out[items[i].first] = items[i].second;
      } else if (!drop) {
        out[items[i].first] = mutate_tree(rng, items[i].second);
      }
    }
    return out;
  }
  if (j.is_array() && j.size() > 0 && rng.chance(0.8)) {
    const auto elements = j.elements();
    const std::size_t pick = rng.index(elements.size());
    util::Json out = util::Json::array();
    for (std::size_t i = 0; i < elements.size(); ++i) {
      out.push_back(i == pick ? mutate_tree(rng, elements[i]) : elements[i]);
    }
    return out;
  }
  return random_json_value(rng);
}

/// Bit flips, truncation and inserted bytes on a serialized message.
void mutate_text(util::Rng& rng, std::string& text) {
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    switch (rng.uniform_int(0, 3)) {
      default:
        text[rng.index(text.size())] ^= static_cast<char>(1u << rng.index(8));
        break;
      case 2:
        text.resize(rng.index(text.size()));
        break;
      case 3:
        text.insert(rng.index(text.size() + 1), 1,
                    "{}[]\":,0-e\\\n"[rng.index(12)]);
        break;
    }
  }
}

class ShardSpecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardSpecFuzz, SpecsAreRejectedOrRoundTrip) {
  util::Rng rng(GetParam());
  const std::vector<std::string> docs = real_spec_documents();
  int rejected = 0;
  constexpr int kCases = 100;
  for (int i = 0; i < kCases; ++i) {
    std::string text = docs[rng.index(docs.size())];
    if (i > 0 && rng.chance(0.5)) {
      text = mutate_tree(rng, util::Json::parse(text)).dump();
    } else if (i > 0) {
      mutate_text(rng, text);
    }
    util::Json doc;
    dist::ShardSpec spec;
    try {
      doc = util::Json::parse(text);
      spec = dist::shard_spec_from_json(doc);
    } catch (const std::exception&) {
      ++rejected;
      EXPECT_GT(i, 0) << "a real spec must decode";
      continue;
    } catch (...) {
      ADD_FAILURE() << "case " << i << ": not a std::exception";
      continue;
    }
    // A spec that decodes carries the checksum of its own body, and
    // encoding it again reproduces the same document.
    const util::Json again = dist::shard_spec_to_json(spec);
    ASSERT_TRUE(doc.contains("spec_checksum")) << "case " << i;
    EXPECT_EQ(doc.at("spec_checksum").as_string(),
              again.at("spec_checksum").as_string())
        << "case " << i;
    EXPECT_EQ(dist::shard_spec_to_json(dist::shard_spec_from_json(again)).dump(),
              again.dump())
        << "case " << i;
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(rejected, kCases / 4);
  EXPECT_LT(rejected, kCases);
}

bool same_command(const dist::WorkerCommand& a, const dist::WorkerCommand& b) {
  return a.kind == b.kind && a.spec_path == b.spec_path;
}

bool same_reply(const dist::WorkerReply& a, const dist::WorkerReply& b) {
  return a.kind == b.kind && a.manifest_path == b.manifest_path &&
         a.reason == b.reason;
}

TEST_P(ShardSpecFuzz, WorkerLinesAreRejectedOrRoundTrip) {
  using Cmd = dist::WorkerCommand;
  using Reply = dist::WorkerReply;
  util::Rng rng(GetParam());
  const std::vector<std::string> commands = {
      dist::encode_worker_command({Cmd::Kind::kRun, "/shards/shard-0-spec.json"}),
      dist::encode_worker_command({Cmd::Kind::kRun, "/odd \"dir\"\n/spec"}),
      dist::encode_worker_command({Cmd::Kind::kShutdown, ""})};
  const std::vector<std::string> replies = {
      dist::encode_worker_reply({Reply::Kind::kDone, "/shards/shard-0.json", ""}),
      dist::encode_worker_reply({Reply::Kind::kFailed, "", "merge: seed 3 \t"}),
      dist::encode_worker_reply({Reply::Kind::kFailed, "", ""})};
  int rejected = 0;
  constexpr int kCases = 300;
  for (int i = 0; i < kCases; ++i) {
    const bool command = rng.chance(0.5);
    std::string line = command ? commands[rng.index(commands.size())]
                               : replies[rng.index(replies.size())];
    if (i > 0 && rng.chance(0.5)) {
      line = mutate_tree(rng, util::Json::parse(line)).dump();
    } else if (i > 0) {
      mutate_text(rng, line);
    }
    if (command) {
      const std::optional<Cmd> cmd = dist::parse_worker_command(line);
      if (!cmd) {
        ++rejected;
        continue;
      }
      const std::string encoded = dist::encode_worker_command(*cmd);
      const std::optional<Cmd> back = dist::parse_worker_command(encoded);
      ASSERT_TRUE(back.has_value()) << "case " << i << ": " << encoded;
      EXPECT_TRUE(same_command(*back, *cmd)) << "case " << i;
      EXPECT_EQ(dist::encode_worker_command(*back), encoded) << "case " << i;
    } else {
      const std::optional<Reply> reply = dist::parse_worker_reply(line);
      if (!reply) {
        ++rejected;
        continue;
      }
      const std::string encoded = dist::encode_worker_reply(*reply);
      const std::optional<Reply> back = dist::parse_worker_reply(encoded);
      ASSERT_TRUE(back.has_value()) << "case " << i << ": " << encoded;
      EXPECT_TRUE(same_reply(*back, *reply)) << "case " << i;
      EXPECT_EQ(dist::encode_worker_reply(*back), encoded) << "case " << i;
    }
  }
  EXPECT_GT(rejected, kCases / 4);
  EXPECT_LT(rejected, kCases);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSpecFuzz, ::testing::Values(41, 42, 43));

// ----------------------------------------------------------- scenario JSON

/// The sparse and full dumps of every registered scenario, plus one whose
/// seed takes the hex-string form.
std::vector<std::string> real_scenario_documents() {
  std::vector<core::Scenario> scenarios;
  for (const std::string& name : core::list_scenarios()) {
    scenarios.push_back(core::scenario_by_name(name));
  }
  scenarios.push_back(core::scenario_by_name("trained-small"));
  scenarios.back().config.seed = 0xdeadbeefcafef00dULL;
  std::vector<std::string> docs;
  for (const core::Scenario& s : scenarios) {
    docs.push_back(core::scenario_to_json(s).dump());
    docs.push_back(core::scenario_to_json(s, /*include_defaults=*/true).dump());
  }
  return docs;
}

class ScenarioFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioFuzz, MutantsAreRejectedOrRoundTrip) {
  util::Rng rng(GetParam());
  const std::vector<std::string> docs = real_scenario_documents();
  const auto full_dump = [](const core::Scenario& s) {
    return core::scenario_to_json(s, /*include_defaults=*/true).dump();
  };
  int rejected = 0;
  constexpr int kCases = 300;
  for (int i = 0; i < kCases; ++i) {
    std::string text = docs[rng.index(docs.size())];
    if (i > 0 && rng.chance(0.5)) {
      text = mutate_tree(rng, util::Json::parse(text)).dump();
    } else if (i > 0) {
      mutate_text(rng, text);
    }
    core::Scenario scenario;
    try {
      scenario = core::scenario_from_json(util::Json::parse(text));
    } catch (const std::exception&) {
      ++rejected;
      EXPECT_GT(i, 0) << "a real scenario must decode";
      continue;
    } catch (...) {
      ADD_FAILURE() << "case " << i << ": not a std::exception";
      continue;
    }
    // Whatever decodes has a full dump that decodes to the same dump, and
    // its sparse dump decodes to the same scenario.
    const std::string full = full_dump(scenario);
    EXPECT_EQ(full_dump(core::scenario_from_json(util::Json::parse(full))), full)
        << "case " << i;
    const util::Json sparse = core::scenario_to_json(scenario);
    EXPECT_EQ(full_dump(core::scenario_from_json(sparse)), full) << "case " << i;
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(rejected, kCases / 4);
  EXPECT_LT(rejected, kCases);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioFuzz, ::testing::Values(51, 52, 53));

}  // namespace
}  // namespace lcda
