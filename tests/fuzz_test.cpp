// Robustness fuzzing of every text-handling path: random byte soup, random
// bracket soup and truncated real payloads must never crash, and whatever
// parses must land inside the search space. These are the paths that face
// an uncontrolled LLM in production.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "lcda/llm/parser.h"
#include "lcda/llm/prompt.h"
#include "lcda/llm/prompt_reader.h"
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

}  // namespace
}  // namespace lcda
