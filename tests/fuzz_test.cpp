// Robustness fuzzing of every text-handling path: random byte soup, random
// bracket soup and truncated real payloads must never crash, and whatever
// parses must land inside the search space. These are the paths that face
// an uncontrolled LLM in production. The binary store segment decoder gets
// seeded mutation fuzzing too: damaged segment files must be rejected
// cleanly or serve only records whose checksum verifies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "lcda/llm/parser.h"
#include "lcda/llm/prompt.h"
#include "lcda/llm/prompt_reader.h"
#include "lcda/store/eval_store.h"
#include "lcda/store/legacy_json.h"
#include "lcda/store/segment.h"
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

/// A real Algorithm-1 prompt (energy, latency or naive framing) with
/// `entries` history lines of sampled designs.
std::string real_prompt(util::Rng& rng, int entries) {
  const search::SearchSpace space;
  llm::PromptBuilder::Options opts;
  opts.objective =
      rng.chance(0.5) ? llm::Objective::kEnergy : llm::Objective::kLatency;
  opts.codesign_context = rng.chance(0.7);
  std::vector<llm::HistoryEntry> history;
  for (int i = 0; i < entries; ++i) {
    llm::HistoryEntry h;
    h.design = space.sample(rng);
    h.performance = rng.chance(0.1) ? -1.0 : rng.uniform(-0.5, 1.0);
    history.push_back(h);
  }
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

}  // namespace
}  // namespace lcda
