#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string_view>

#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt.h"
#include "lcda/llm/prompt_reader.h"
#include "lcda/llm/scripted_llm.h"
#include "lcda/llm/simulated_gpt4.h"

namespace lcda::llm {
namespace {

search::SearchSpace default_space() { return search::SearchSpace{}; }

search::Design vgg_design() {
  search::Design d;
  d.rollout = {{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}};
  return d;
}

// ---------------------------------------------------------------- Prompt

TEST(Prompt, ContainsAlgorithmOnePhrases) {
  PromptBuilder builder(default_space(), {});
  const ChatRequest req = builder.build({});
  ASSERT_EQ(req.messages.size(), 2u);
  EXPECT_EQ(req.messages[0].content,
            "You are an expert in the field of neural architecture search.");
  const std::string& u = req.messages[1].content;
  EXPECT_NE(u.find("selecting the best rollout numbers"), std::string::npos);
  EXPECT_NE(u.find("CIFAR10"), std::string::npos);
  EXPECT_NE(u.find("the performance I give you will be -1"), std::string::npos);
  EXPECT_NE(u.find("rollout list consisting of 6 number pairs"), std::string::npos);
  EXPECT_NE(u.find("do not include anything else"), std::string::npos);
}

TEST(Prompt, ObjectiveSentenceSwitches) {
  PromptBuilder::Options energy;
  energy.objective = Objective::kEnergy;
  PromptBuilder::Options latency;
  latency.objective = Objective::kLatency;
  const std::string e =
      PromptBuilder(default_space(), energy).build({}).full_text();
  const std::string l =
      PromptBuilder(default_space(), latency).build({}).full_text();
  EXPECT_NE(e.find("energy consumption"), std::string::npos);
  EXPECT_EQ(e.find("inference latency"), std::string::npos);
  EXPECT_NE(l.find("inference latency"), std::string::npos);
}

TEST(Prompt, NaiveVariantStripsDomainContext) {
  PromptBuilder::Options naive;
  naive.codesign_context = false;
  const std::string text =
      PromptBuilder(default_space(), naive).build({}).full_text();
  EXPECT_EQ(text.find("neural architecture"), std::string::npos);
  EXPECT_EQ(text.find("CIFAR"), std::string::npos);
  EXPECT_EQ(text.find("accelerator"), std::string::npos);
  EXPECT_EQ(text.find("model architecture"), std::string::npos);
  // The choices and scoring rule must still be there.
  EXPECT_NE(text.find("channels per layer"), std::string::npos);
  EXPECT_NE(text.find("score will be -1"), std::string::npos);
}

TEST(Prompt, HistoryLinesIncluded) {
  PromptBuilder builder(default_space(), {});
  HistoryEntry h;
  h.design = vgg_design();
  h.performance = 0.345;
  const std::string text = builder.build({h}).full_text();
  EXPECT_NE(text.find("rollout=[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]"),
            std::string::npos);
  EXPECT_NE(text.find("performance=0.345"), std::string::npos);
  EXPECT_NE(text.find("experimental results that you can use as a reference"),
            std::string::npos);
}

TEST(Prompt, HistoryIsCapped) {
  PromptBuilder::Options opts;
  opts.max_history = 3;
  PromptBuilder builder(default_space(), opts);
  std::vector<HistoryEntry> history;
  for (int i = 0; i < 10; ++i) {
    HistoryEntry h;
    h.design = vgg_design();
    h.performance = i * 0.1;
    history.push_back(h);
  }
  const std::string text = builder.build(history).full_text();
  // Only the 3 newest entries appear.
  EXPECT_EQ(text.find("performance=0.6"), std::string::npos);
  EXPECT_NE(text.find("performance=0.7"), std::string::npos);
  EXPECT_NE(text.find("performance=0.9"), std::string::npos);
}

TEST(Prompt, BuildFromLinesMatchesBuild) {
  for (std::size_t cap : {0, 1, 3, 64}) {
    PromptBuilder::Options opts;
    opts.max_history = cap;
    PromptBuilder builder(default_space(), opts);
    std::vector<HistoryEntry> history;
    std::vector<std::string> lines;
    for (int i = 0; i < 70; ++i) {
      const std::string want = builder.build(history).full_text();
      EXPECT_EQ(builder.build_from_lines(lines).full_text(), want) << cap;
      // The newest window_lines() lines are all it needs.
      const std::size_t keep = std::min(lines.size(), builder.window_lines());
      EXPECT_EQ(builder
                    .build_from_lines(std::span<const std::string>(lines).last(keep))
                    .full_text(),
                want)
          << cap;
      // A history beyond a zero cap still brings the results sentence.
      EXPECT_EQ(want.find("Here are some experimental results") != std::string::npos,
                !history.empty());
      HistoryEntry h;
      h.design = vgg_design();
      h.design.rollout[i % 6].channels = 16 + i;
      h.performance = i * 0.01;
      history.push_back(h);
      lines.push_back(PromptBuilder::history_line(h));
    }
  }
}

TEST(Prompt, HardwareTextFormat) {
  cim::HardwareConfig hw;
  hw.device = cim::DeviceType::kFefet;
  hw.bits_per_cell = 4;
  hw.adc_bits = 5;
  hw.xbar_size = 256;
  hw.col_mux = 4;
  EXPECT_EQ(PromptBuilder::hardware_text(hw), "[FeFET,4,5,256,4]");
}

TEST(Prompt, PerformanceTextMatchesOstream) {
  // The history-line number is the default `operator<<(double)` text (%g,
  // precision 6); the ostream is the reference.
  const double values[] = {0.0,
                           -1.0,
                           0.1 + 0.2,
                           1e-5,
                           123456789.0,
                           1e300,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (double v : values) {
    HistoryEntry h;
    h.design = vgg_design();
    h.performance = v;
    std::ostringstream expected;
    expected << v;
    const std::string line = PromptBuilder::history_line(h);
    const std::size_t at = line.find(" performance=");
    ASSERT_NE(at, std::string::npos) << line;
    EXPECT_EQ(line.substr(at + 13), expected.str()) << line;
  }
}

// ---------------------------------------------------------- PromptReader

TEST(PromptReader, RoundTripsEverythingThePromptCarries) {
  PromptBuilder::Options opts;
  opts.objective = Objective::kLatency;
  PromptBuilder builder(default_space(), opts);
  HistoryEntry h;
  h.design = vgg_design();
  h.design.hw.device = cim::DeviceType::kFefet;
  h.design.hw.adc_bits = 7;
  h.performance = -1.0;
  const PromptFacts facts = read_prompt(builder.build({h}).full_text());

  EXPECT_TRUE(facts.codesign_context);
  EXPECT_EQ(facts.objective, Objective::kLatency);
  EXPECT_EQ(facts.conv_layers, 6);
  EXPECT_EQ(facts.channel_choices, (std::vector<int>{16, 24, 32, 48, 64, 96, 128}));
  EXPECT_EQ(facts.kernel_choices, (std::vector<int>{1, 3, 5, 7}));
  EXPECT_EQ(facts.adc_bits_choices, (std::vector<int>{4, 5, 6, 7, 8}));
  EXPECT_EQ(facts.xbar_choices, (std::vector<int>{64, 128, 256}));
  ASSERT_EQ(facts.device_choices.size(), 2u);

  ASSERT_EQ(facts.history.size(), 1u);
  EXPECT_EQ(facts.history[0].design.rollout, h.design.rollout);
  EXPECT_EQ(facts.history[0].design.hw.device, cim::DeviceType::kFefet);
  EXPECT_EQ(facts.history[0].design.hw.adc_bits, 7);
  EXPECT_DOUBLE_EQ(facts.history[0].performance, -1.0);
}

TEST(PromptReader, DetectsNaivePrompt) {
  PromptBuilder::Options naive;
  naive.codesign_context = false;
  const PromptFacts facts =
      read_prompt(PromptBuilder(default_space(), naive).build({}).full_text());
  EXPECT_FALSE(facts.codesign_context);
  // Choices still flow through the naive prompt.
  EXPECT_FALSE(facts.channel_choices.empty());
}

TEST(PromptReader, ToleratesGarbage) {
  const PromptFacts facts = read_prompt("complete nonsense with no structure");
  EXPECT_FALSE(facts.codesign_context);
  EXPECT_TRUE(facts.history.empty());
  EXPECT_EQ(facts.conv_layers, 6);
}

// ---------------------------------------------------------------- Parser

struct ParseCase {
  const char* name;
  const char* text;
  bool ok;
  int first_channels = 0;
  int first_kernel = 0;
};

class ParserCases : public ::testing::TestWithParam<ParseCase> {};

TEST_P(ParserCases, Parses) {
  const auto& p = GetParam();
  const ParseResult r = parse_design_response(p.text, default_space());
  EXPECT_EQ(r.ok, p.ok) << p.name << ": " << r.error;
  if (p.ok) {
    EXPECT_EQ(r.design.rollout[0].channels, p.first_channels) << p.name;
    EXPECT_EQ(r.design.rollout[0].kernel, p.first_kernel) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserCases,
    ::testing::Values(
        ParseCase{"clean", "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]",
                  true, 32, 3},
        ParseCase{"chatter",
                  "Sure! Based on the results I suggest:\n"
                  "[[48,5],[48,3],[64,3],[64,3],[96,3],[128,3]]\nGood luck!",
                  true, 48, 5},
        ParseCase{"spacing", "[ [ 16 , 7 ] , [24,3],[32,3],[48,3],[64,3],[96,3] ]",
                  true, 16, 7},
        ParseCase{"newlines", "[[32,3],\n[32,3],\n[64,3],\n[64,3],\n[128,3],\n[128,3]]",
                  true, 32, 3},
        ParseCase{"snapped-off-space",
                  "[[30,3],[32,3],[64,3],[64,3],[128,3],[128,3]]", true, 32, 3},
        // Out-of-int and out-of-long-long numbers snap without overflow.
        ParseCase{"int-extremes",
                  "[[-2147483648,3],[99999999999999999999,3],[64,3],[64,3],"
                  "[128,3],[128,3]]\nhardware=[RRAM,-2147483648,8,128,8]",
                  true, 16, 3},
        ParseCase{"too-few-pairs", "[[32,3],[64,3]]", false},
        ParseCase{"no-design", "I cannot help with that.", false},
        ParseCase{"empty", "", false}));

TEST(Parser, ExtractsHardwareLine) {
  const ParseResult r = parse_design_response(
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]\nhardware=[FeFET,4,8,256,4]",
      default_space());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.design.hw.device, cim::DeviceType::kFefet);
  EXPECT_EQ(r.design.hw.bits_per_cell, 4);
  EXPECT_EQ(r.design.hw.adc_bits, 8);
  EXPECT_EQ(r.design.hw.xbar_size, 256);
  EXPECT_EQ(r.design.hw.col_mux, 4);
}

TEST(Parser, MissingHardwareUsesDefaults) {
  const ParseResult r = parse_design_response(
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]", default_space());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.design.hw, cim::HardwareConfig{});
  EXPECT_EQ(r.repairs, 0);
}

TEST(Parser, CountsRepairs) {
  const ParseResult r = parse_design_response(
      "[[31,3],[32,4],[64,3],[64,3],[128,3],[128,3]]", default_space());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.design.rollout[0].channels, 32);  // snapped 31 -> 32
  EXPECT_GE(r.repairs, 2);
}

TEST(Parser, SnappedDesignIsAlwaysInSpace) {
  const search::SearchSpace space = default_space();
  const ParseResult r = parse_design_response(
      "[[999,9],[1,2],[64,3],[64,3],[500,6],[128,3]]\nhardware=[RRAM,3,9,100,5]",
      space);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(space.contains(r.design));
}

// ----------------------------------------------------------- ScriptedLlm

TEST(ScriptedLlm, ReplaysAndRecords) {
  ScriptedLlm llm({"one", "two"});
  ChatRequest req;
  req.messages.push_back({ChatMessage::Role::kUser, "hello"});
  EXPECT_EQ(llm.complete(req).content, "one");
  EXPECT_EQ(llm.complete(req).content, "two");
  EXPECT_EQ(llm.complete(req).content, "two");  // repeats the last
  EXPECT_EQ(llm.calls(), 3u);
  EXPECT_EQ(llm.requests()[0].messages[0].content, "hello");
}

// ---------------------------------------------------------- SimulatedGpt4

ChatRequest codesign_request(const std::vector<HistoryEntry>& history,
                             Objective objective = Objective::kEnergy) {
  PromptBuilder::Options opts;
  opts.objective = objective;
  return PromptBuilder(default_space(), opts).build(history);
}

TEST(SimulatedGpt4, FirstProposalIsExpertLegal) {
  // "No cold start": episode-0 proposals must already be sensible.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SimulatedGpt4::Options o;
    o.seed = seed;
    SimulatedGpt4 gpt(o);
    const ChatResponse resp = gpt.complete(codesign_request({}));
    const ParseResult r = parse_design_response(resp.content, default_space());
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << resp.content;
    int prev = 0;
    for (const auto& spec : r.design.rollout) {
      EXPECT_GE(spec.kernel, 3) << "expert avoids 1x1 backbones";
      if (prev > 0) {
        EXPECT_GE(spec.channels, prev) << "non-decreasing channels";
        EXPECT_LE(spec.channels, prev * 4) << "never grows by more than 4x";
      }
      prev = spec.channels;
    }
  }
}

TEST(SimulatedGpt4, ResponsesAlwaysParseable) {
  SimulatedGpt4 gpt;
  std::vector<HistoryEntry> history;
  for (int ep = 0; ep < 30; ++ep) {
    const ChatResponse resp = gpt.complete(codesign_request(history));
    const ParseResult r = parse_design_response(resp.content, default_space());
    ASSERT_TRUE(r.ok) << "episode " << ep << ": " << resp.content;
    HistoryEntry h;
    h.design = r.design;
    h.performance = 0.1 * (ep % 5);
    history.push_back(h);
  }
}

TEST(SimulatedGpt4, ChoicesNearIntLimitsStayInSpace) {
  // The choice lists are prompt text: widths near INT_MAX must not
  // overflow the policy's widening and growth arithmetic.
  search::SearchSpace::Options so;
  so.channel_choices = {1000000000, 2000000000};
  const search::SearchSpace space(so);
  const PromptBuilder builder(space, {});
  SimulatedGpt4 gpt;
  std::vector<HistoryEntry> history;
  for (int ep = 0; ep < 10; ++ep) {
    const ChatResponse resp = gpt.complete(builder.build(history));
    const ParseResult r = parse_design_response(resp.content, space);
    ASSERT_TRUE(r.ok) << "episode " << ep << ": " << resp.content;
    EXPECT_EQ(r.repairs, 0) << "episode " << ep << ": " << resp.content;
    history.push_back({r.design, 0.1 * (ep % 3)});
  }
}

TEST(SimulatedGpt4, AvoidsRepeatingHistoryDesigns) {
  SimulatedGpt4 gpt;
  std::vector<HistoryEntry> history;
  int repeats = 0;
  for (int ep = 0; ep < 25; ++ep) {
    const ChatResponse resp = gpt.complete(codesign_request(history));
    const ParseResult r = parse_design_response(resp.content, default_space());
    ASSERT_TRUE(r.ok);
    for (const auto& h : history) {
      if (h.design == r.design) {
        ++repeats;
        break;
      }
    }
    HistoryEntry h;
    h.design = r.design;
    h.performance = 0.3;
    history.push_back(h);
  }
  EXPECT_LE(repeats, 2);
}

TEST(SimulatedGpt4, BacksOffAfterInvalidReward) {
  SimulatedGpt4 gpt;
  std::vector<HistoryEntry> history;
  HistoryEntry big;
  big.design.rollout = {{128, 7}, {128, 7}, {128, 7}, {128, 7}, {128, 7}, {128, 7}};
  big.performance = -1.0;  // invalid: area too large
  history.push_back(big);
  const ChatResponse resp = gpt.complete(codesign_request(history));
  const ParseResult r = parse_design_response(resp.content, default_space());
  ASSERT_TRUE(r.ok);
  long long before = 0, after = 0;
  for (const auto& s : big.design.rollout) before += s.channels;
  for (const auto& s : r.design.rollout) after += s.channels;
  EXPECT_LT(after, before) << "expert shrinks after an area violation";
}

TEST(SimulatedGpt4, LatencyObjectiveTriggersKernelFiddling) {
  // The wrong CiM priors (Sec. IV-B) show up as frequent kernel changes
  // under the latency objective — much more than under energy.
  auto kernel_changes = [](Objective obj) {
    SimulatedGpt4::Options o;
    o.seed = 42;
    SimulatedGpt4 gpt(o);
    std::vector<HistoryEntry> history;
    HistoryEntry base;
    base.design = vgg_design();
    base.design.rollout[0].kernel = 5;  // leave room to shrink and grow
    base.performance = 0.4;
    history.push_back(base);
    int changes = 0;
    for (int ep = 0; ep < 40; ++ep) {
      const ChatResponse resp = gpt.complete(codesign_request(history, obj));
      const ParseResult r = parse_design_response(resp.content, default_space());
      if (!r.ok) continue;
      for (std::size_t i = 0; i < r.design.rollout.size(); ++i) {
        if (r.design.rollout[i].kernel != base.design.rollout[i].kernel) {
          ++changes;
          break;
        }
      }
    }
    return changes;
  };
  EXPECT_GT(kernel_changes(Objective::kLatency),
            kernel_changes(Objective::kEnergy));
}

TEST(SimulatedGpt4, NaivePromptProducesUnconstrainedDesigns) {
  PromptBuilder::Options naive;
  naive.codesign_context = false;
  PromptBuilder builder(default_space(), naive);
  SimulatedGpt4 gpt;
  bool violated_expert_rules = false;
  std::vector<HistoryEntry> history;
  for (int ep = 0; ep < 30; ++ep) {
    const ChatResponse resp = gpt.complete(builder.build(history));
    const ParseResult r = parse_design_response(resp.content, default_space());
    ASSERT_TRUE(r.ok);
    int prev = 0;
    for (const auto& spec : r.design.rollout) {
      if (spec.kernel == 1 || (prev > 0 && spec.channels < prev)) {
        violated_expert_rules = true;
      }
      prev = spec.channels;
    }
    HistoryEntry h;
    h.design = r.design;
    h.performance = 0.1;
    history.push_back(h);
  }
  EXPECT_TRUE(violated_expert_rules)
      << "without co-design context the model ignores the expert heuristics";
}

TEST(SimulatedGpt4, DeterministicGivenSeed) {
  SimulatedGpt4::Options o;
  o.seed = 5;
  SimulatedGpt4 a(o), b(o);
  const ChatRequest req = codesign_request({});
  EXPECT_EQ(a.complete(req).content, b.complete(req).content);
}

// ---------------------------------------------------------- LlmOptimizer

TEST(LlmOptimizer, ProposesParseableDesignsAndKeepsHistory) {
  auto client = std::make_shared<SimulatedGpt4>();
  LlmOptimizer opt(default_space(), client);
  util::Rng rng(1);
  for (int ep = 0; ep < 5; ++ep) {
    const search::Design d = opt.propose(rng);
    EXPECT_TRUE(default_space().contains(d));
    search::Observation obs;
    obs.design = d;
    obs.reward = 0.2;
    opt.feedback(obs);
  }
  EXPECT_EQ(opt.history().size(), 5u);
  EXPECT_GE(opt.transcript().size(), 5u);
  EXPECT_TRUE(opt.transcript().front().parsed_ok);
}

TEST(LlmOptimizer, FallsBackOnGarbageResponses) {
  auto client = std::make_shared<ScriptedLlm>(
      std::vector<std::string>{"nope", "still nope", "nothing", "no"});
  LlmOptimizer opt(default_space(), client);
  util::Rng rng(2);
  const search::Design d = opt.propose(rng);  // all retries fail -> random
  EXPECT_TRUE(default_space().contains(d));
  EXPECT_GE(client->calls(), 4u);  // initial + retries
}

TEST(LlmOptimizer, NameReflectsVariant) {
  auto client = std::make_shared<SimulatedGpt4>();
  LlmOptimizer::Options naive;
  naive.prompt.codesign_context = false;
  EXPECT_EQ(LlmOptimizer(default_space(), client).name(), "LCDA(SimulatedGPT4)");
  EXPECT_EQ(LlmOptimizer(default_space(), client, naive).name(),
            "LCDA-naive(SimulatedGPT4)");
}

TEST(LlmOptimizer, HistoryFlowsIntoPrompt) {
  auto client = std::make_shared<ScriptedLlm>(std::vector<std::string>{
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]",
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]"});
  LlmOptimizer opt(default_space(), client);
  util::Rng rng(3);
  const search::Design d = opt.propose(rng);
  search::Observation obs;
  obs.design = d;
  obs.reward = 0.777;
  opt.feedback(obs);
  (void)opt.propose(rng);
  const std::string& second_prompt = client->requests().back().full_text();
  EXPECT_NE(second_prompt.find("performance=0.777"), std::string::npos);
}

std::uint64_t fnv1a_update(std::uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Reward fed back after episode `ep`: mostly ordinary values, with
/// invalid-hardware -1s and tiny/huge magnitudes that take the %g
/// exponent form in the prompt's performance text.
double scripted_reward(int ep, std::uint64_t seed) {
  if (ep % 7 == 3) return -1.0;
  if (ep % 11 == 5) return 1.2345e-7 * (ep + 1);
  if (ep % 13 == 8) return 9.87654321e6 + ep;
  return 0.1 + 0.0371 * ((ep + static_cast<int>(seed)) % 9);
}

TEST(LlmOptimizer, WindowPromptsMatchBuildOfTheWholeHistory) {
  // feedback keeps rendered lines; every prompt must still be build() of
  // the history so far, also past the cap.
  for (std::size_t cap : {3, 64}) {
    auto client = std::make_shared<ScriptedLlm>(std::vector<std::string>{
        "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]"});
    LlmOptimizer::Options opts;
    opts.prompt.max_history = cap;
    LlmOptimizer opt(default_space(), client, opts);
    const PromptBuilder builder(default_space(), opts.prompt);
    util::Rng rng(5);
    std::vector<HistoryEntry> history;
    for (int ep = 0; ep < 80; ++ep) {
      search::Observation obs;
      obs.design = opt.propose(rng);
      ASSERT_EQ(client->requests().back().full_text(),
                builder.build(history).full_text())
          << "cap " << cap << " episode " << ep;
      obs.design.rollout[0].channels = 16 + ep % 5;
      obs.reward = ep * 0.01;
      opt.feedback(obs);
      history.push_back({obs.design, obs.reward});
    }
  }
}

TEST(LlmOptimizer, TranscriptBytesPinnedPastHistoryCap) {
  // Every prompt and response of 100-episode runs (past the 64-entry
  // history cap) for the energy, latency and naive prompts, three seeds
  // each, hashed in order. The constant pins the Algorithm-1 text bytes.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t exchanges = 0;
  for (int variant = 0; variant < 3; ++variant) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SimulatedGpt4::Options gpt;
      gpt.seed = seed;
      LlmOptimizer::Options opts;
      opts.prompt.objective =
          variant == 1 ? Objective::kLatency : Objective::kEnergy;
      opts.prompt.codesign_context = variant != 2;
      LlmOptimizer opt(default_space(), std::make_shared<SimulatedGpt4>(gpt),
                       opts);
      util::Rng rng(seed);
      for (int ep = 0; ep < 100; ++ep) {
        search::Observation obs;
        obs.design = opt.propose(rng);
        obs.reward = scripted_reward(ep, seed);
        opt.feedback(obs);
      }
      for (const auto& ex : opt.transcript()) {
        h = fnv1a_update(h, ex.prompt);
        h = fnv1a_update(h, std::string_view("\0", 1));
        h = fnv1a_update(h, ex.response);
        h = fnv1a_update(h, std::string_view("\0", 1));
      }
      exchanges += opt.transcript().size();
    }
  }
  EXPECT_GE(exchanges, 900u);
  EXPECT_EQ(h, 0xb71a36864bbcc3ebULL) << std::hex << h << std::dec << " over " << exchanges
                       << " exchanges";
}

}  // namespace
}  // namespace lcda::llm
