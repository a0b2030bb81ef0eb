#pragma once

// Outside-in layer decorators: each wraps one library layer's public entry
// points, forwards every call unchanged, and records a span (plus the
// layer's work counts) around it. Installed only in the traced pass; the
// untraced pass runs the bare library objects.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lcda/core/evaluator.h"
#include "lcda/llm/client.h"
#include "lcda/search/optimizer.h"
#include "spans.h"

namespace perfbench {

/// Work counts gathered at the layer boundaries. Atomic because the
/// evaluator and optimizer decorators run on pool threads when a study
/// fans its seeds out.
struct LayerCounters {
  std::atomic<std::int64_t> llm_turns{0};
  std::atomic<std::int64_t> llm_prompt_bytes{0};
  std::atomic<std::int64_t> llm_response_bytes{0};
  std::atomic<std::int64_t> search_rounds{0};
  std::atomic<std::int64_t> search_proposals{0};
  std::atomic<std::int64_t> eval_designs{0};
  std::atomic<std::int64_t> eval_replays{0};
};

class TimedClient final : public lcda::llm::LlmClient {
 public:
  TimedClient(std::shared_ptr<lcda::llm::LlmClient> inner, Recorder* rec,
              LayerCounters* counters)
      : inner_(std::move(inner)), rec_(rec), counters_(counters) {}

  [[nodiscard]] lcda::llm::ChatResponse complete(
      const lcda::llm::ChatRequest& request) override {
    ScopedSpan span(rec_, "llm.complete");
    lcda::llm::ChatResponse response = inner_->complete(request);
    std::int64_t prompt_bytes = 0;
    for (const auto& m : request.messages) {
      prompt_bytes += static_cast<std::int64_t>(m.content.size());
    }
    counters_->llm_turns.fetch_add(1, std::memory_order_relaxed);
    counters_->llm_prompt_bytes.fetch_add(prompt_bytes,
                                          std::memory_order_relaxed);
    counters_->llm_response_bytes.fetch_add(
        static_cast<std::int64_t>(response.content.size()),
        std::memory_order_relaxed);
    return response;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<lcda::llm::LlmClient> inner_;
  Recorder* rec_;
  LayerCounters* counters_;
};

class TimedOptimizer final : public lcda::search::Optimizer {
 public:
  TimedOptimizer(lcda::search::Optimizer& inner, Recorder* rec,
                 LayerCounters* counters)
      : inner_(&inner), rec_(rec), counters_(counters) {}

  [[nodiscard]] lcda::search::Design propose(lcda::util::Rng& rng) override {
    ScopedSpan span(rec_, "search.propose");
    count_round(1);
    return inner_->propose(rng);
  }
  void feedback(const lcda::search::Observation& obs) override {
    ScopedSpan span(rec_, "search.feedback");
    inner_->feedback(obs);
  }
  void propose_batch_into(std::size_t n, lcda::util::Rng& rng,
                          std::vector<lcda::search::Design>& out) override {
    ScopedSpan span(rec_, "search.propose");
    count_round(n);
    inner_->propose_batch_into(n, rng, out);
  }
  void feedback_batch(
      std::span<const lcda::search::Observation> batch) override {
    ScopedSpan span(rec_, "search.feedback");
    inner_->feedback_batch(batch);
  }
  [[nodiscard]] std::size_t preferred_batch() const override {
    return inner_->preferred_batch();
  }
  bool serialize_state(std::string& out) const override {
    return inner_->serialize_state(out);
  }
  bool restore_state(std::string_view blob) override {
    return inner_->restore_state(blob);
  }
  [[nodiscard]] std::size_t pipeline_lookahead() const override {
    return inner_->pipeline_lookahead();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  void count_round(std::size_t n) {
    counters_->search_rounds.fetch_add(1, std::memory_order_relaxed);
    counters_->search_proposals.fetch_add(static_cast<std::int64_t>(n),
                                          std::memory_order_relaxed);
  }

  lcda::search::Optimizer* inner_;
  Recorder* rec_;
  LayerCounters* counters_;
};

class TimedEvaluator final : public lcda::core::PerformanceEvaluator {
 public:
  TimedEvaluator(lcda::core::PerformanceEvaluator& inner, Recorder* rec,
                 LayerCounters* counters)
      : inner_(&inner), rec_(rec), counters_(counters) {}

  [[nodiscard]] lcda::core::Evaluation evaluate(
      const lcda::search::Design& design, lcda::util::Rng& rng) override {
    ScopedSpan span(rec_, "eval.evaluate");
    counters_->eval_designs.fetch_add(1, std::memory_order_relaxed);
    return inner_->evaluate(design, rng);
  }
  void evaluate_batch(std::span<lcda::core::EvalRequest> batch) override {
    ScopedSpan span(rec_, "eval.evaluate");
    counters_->eval_designs.fetch_add(static_cast<std::int64_t>(batch.size()),
                                      std::memory_order_relaxed);
    inner_->evaluate_batch(batch);
  }
  [[nodiscard]] bool replay_evaluation(const lcda::core::Evaluation& cached,
                                       lcda::util::Rng& rng,
                                       lcda::core::Evaluation& out) override {
    ScopedSpan span(rec_, "eval.replay");
    counters_->eval_replays.fetch_add(1, std::memory_order_relaxed);
    return inner_->replay_evaluation(cached, rng, out);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  lcda::core::PerformanceEvaluator* inner_;
  Recorder* rec_;
  LayerCounters* counters_;
};

}  // namespace perfbench
