// google-benchmark microbenchmarks of the framework's hot components:
// throughput numbers that justify using the surrogate evaluator for
// 500-episode baseline runs and bound the cost of each pipeline stage.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "lcda/cim/cost_model.h"
#include "lcda/core/scenario.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/noise/monte_carlo.h"
#include "lcda/search/rl_optimizer.h"
#include "lcda/surrogate/accuracy_model.h"
#include "lcda/tensor/ops.h"

namespace {

using namespace lcda;

const std::vector<nn::ConvSpec> kRollout = {{32, 3}, {32, 3}, {64, 3},
                                            {64, 3}, {128, 3}, {128, 3}};

// Every harness below reads its options from the paper-energy scenario, so
// the microbenchmarks measure exactly what the scenario-driven engine runs.
const core::ExperimentConfig& paper_config() {
  static const core::ExperimentConfig cfg =
      core::scenario_by_name("paper-energy").config;
  return cfg;
}

// The engine's per-rollout cost pass exactly as the evaluator runs it:
// phase one (CostPlan) and the flattened layer span are memoized, the pass
// writes into a reused report. Before the two-phase split this measured
// CostEvaluator::evaluate over memoized shapes — the same semantic point
// of the pipeline (BENCH_engine.json tracks it as cost_evaluator_ns).
void BM_CostEvaluator(benchmark::State& state) {
  const cim::CostEvaluator eval{cim::HardwareConfig{}, paper_config().evaluator.cost};
  const cim::LayerShapeSpan span = cim::LayerShapeSpan::from(
      nn::backbone_shapes(kRollout, paper_config().evaluator.backbone));
  cim::CostReport report;
  for (auto _ : state) {
    eval.evaluate_span(span, report);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CostEvaluator);

// Full-detail evaluation (per-layer costs + mapping), shape flattening
// included — what examples and offline analyses pay per call.
void BM_CostEvaluatorDetail(benchmark::State& state) {
  const cim::CostEvaluator eval{cim::HardwareConfig{}, paper_config().evaluator.cost};
  const nn::BackboneOptions bopts = paper_config().evaluator.backbone;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(kRollout, bopts));
  }
}
BENCHMARK(BM_CostEvaluatorDetail);

void BM_SurrogateAccuracy(benchmark::State& state) {
  const surrogate::AccuracyModel model(paper_config().evaluator.accuracy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.noisy_accuracy(kRollout, 0.1, 1));
  }
}
BENCHMARK(BM_SurrogateAccuracy);

void BM_FullSurrogateEvaluation(benchmark::State& state) {
  core::SurrogateEvaluator eval(paper_config().evaluator);
  search::Design d;
  d.rollout = kRollout;
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(d, rng));
  }
}
BENCHMARK(BM_FullSurrogateEvaluation);

// One engine round through the batch contract: distinct designs, each with
// its own pre-forked RNG stream, costed in one evaluate_batch pass — the
// work a pool worker does per chunk wakeup.
void BM_EvaluateBatch(benchmark::State& state) {
  core::SurrogateEvaluator eval(paper_config().evaluator);
  const search::SearchSpace space{paper_config().space};
  util::Rng design_rng(11);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<search::Design> designs;
  designs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) designs.push_back(space.sample(design_rng));
  std::vector<util::Rng> rngs(n, util::Rng(0));
  std::vector<core::Evaluation> evals(n);
  std::vector<core::EvalRequest> requests(n);
  util::Rng stream(12);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < n; ++i) {
      rngs[i] = stream.fork();
      requests[i] = core::EvalRequest{&designs[i], &rngs[i], &evals[i]};
    }
    state.ResumeTiming();
    eval.evaluate_batch(std::span<core::EvalRequest>(requests));
    benchmark::DoNotOptimize(evals);
  }
}
BENCHMARK(BM_EvaluateBatch)->Arg(8);

// The prompt as LlmOptimizer assembles it: history lines rendered once (in
// feedback), so a turn only joins the header, the window and the footer.
void BM_PromptBuild(benchmark::State& state) {
  llm::PromptBuilder builder{search::SearchSpace{paper_config().space}, {}};
  std::vector<std::string> lines(static_cast<std::size_t>(state.range(0)));
  for (auto& line : lines) {
    llm::HistoryEntry h;
    h.design.rollout = kRollout;
    h.performance = 0.4;
    line = llm::PromptBuilder::history_line(h);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build_from_lines(lines));
  }
}
BENCHMARK(BM_PromptBuild)->Arg(0)->Arg(20)->Arg(64);

void BM_ResponseParse(benchmark::State& state) {
  const search::SearchSpace space(paper_config().space);
  const std::string response =
      "Based on the results, I suggest:\n"
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]\n"
      "hardware=[FeFET,2,6,128,8]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(llm::parse_design_response(response, space));
  }
}
BENCHMARK(BM_ResponseParse);

// One cold turn: a fresh model (and so an empty prompt-line memo) reads a
// prompt of distinct history lines. BM_LcdaTurn times the warm steady state.
void BM_SimulatedGpt4Turn(benchmark::State& state) {
  llm::PromptBuilder builder{search::SearchSpace{paper_config().space}, {}};
  std::vector<llm::HistoryEntry> history(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < history.size(); ++i) {
    history[i].design.rollout = kRollout;
    history[i].performance = 0.4 + 1e-3 * static_cast<double>(i);
  }
  const llm::ChatRequest req = builder.build(history);
  for (auto _ : state) {
    llm::SimulatedGpt4 gpt;
    benchmark::DoNotOptimize(gpt.complete(req));
  }
}
BENCHMARK(BM_SimulatedGpt4Turn)->Arg(0)->Arg(20)->Arg(64);

// One Algorithm-1 turn as perfbench's lcda-paper runs it: LlmOptimizer
// propose + feedback with a full history window (max_history = the arg)
// and a new history line on every turn. The optimizer is rebuilt every 512
// turns, off the clock, to keep its transcript small.
void BM_LcdaTurn(benchmark::State& state) {
  const search::SearchSpace space(paper_config().space);
  llm::LlmOptimizer::Options opts;
  opts.prompt.max_history = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<llm::LlmOptimizer> opt;
  util::Rng rng(3);
  std::uint64_t step = 0;
  const auto observe = [&](search::Design design) {
    search::Observation obs;
    obs.design = std::move(design);
    // Distinct in its 6 printed digits across any window: a new line.
    obs.reward = 0.25 + 1e-5 * static_cast<double>(step++ % 65536);
    opt->feedback(obs);
  };
  int turns = 0;
  for (auto _ : state) {
    if (turns++ % 512 == 0) {
      state.PauseTiming();
      opt = std::make_unique<llm::LlmOptimizer>(
          space, std::make_shared<llm::SimulatedGpt4>(), opts);
      for (int i = 0; i <= state.range(0); ++i) observe(space.sample(rng));
      state.ResumeTiming();
    }
    observe(opt->propose(rng));
  }
}
BENCHMARK(BM_LcdaTurn)->Arg(64);

void BM_RlProposeFeedback(benchmark::State& state) {
  search::RlOptimizer rl{search::SearchSpace{paper_config().space}};
  util::Rng rng(2);
  for (auto _ : state) {
    const search::Design d = rl.propose(rng);
    search::Observation obs;
    obs.design = d;
    obs.reward = 0.3;
    rl.feedback(obs);
  }
}
BENCHMARK(BM_RlProposeFeedback);

void BM_MonteCarloSurrogate(benchmark::State& state) {
  const surrogate::AccuracyModel model(paper_config().evaluator.accuracy);
  util::Rng rng(3);
  const int samples = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(noise::monte_carlo(
        [&](util::Rng& r) {
          return model.noisy_accuracy_sample(kRollout, 0.1, 1, r);
        },
        samples, rng));
  }
}
BENCHMARK(BM_MonteCarloSurrogate)->Arg(16)->Arg(64);

void BM_Conv2dForward(benchmark::State& state) {
  util::Rng rng(4);
  const int c = static_cast<int>(state.range(0));
  const tensor::ConvGeom g{16, 16, 3, 1, 1};
  const tensor::Tensor x = tensor::Tensor::uniform({4, c, 16, 16}, -1, 1, rng);
  const tensor::Tensor w = tensor::Tensor::uniform({c, c, 3, 3}, -1, 1, rng);
  const tensor::Tensor b = tensor::Tensor::uniform({c}, -1, 1, rng);
  tensor::Tensor y({4, c, 16, 16});
  std::vector<float> scratch;
  for (auto _ : state) {
    tensor::conv2d_forward(x, w, b, g, y, scratch);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
