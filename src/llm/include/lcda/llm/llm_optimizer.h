#pragma once

#include <memory>
#include <vector>

#include "lcda/llm/client.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt.h"
#include "lcda/search/optimizer.h"
#include "lcda/search/space.h"

namespace lcda::llm {

/// The LCDA design optimizer (paper Sec. III-A): an LLM behind the
/// Algorithm-1 prompt loop, usable anywhere a search::Optimizer is.
///
/// feedback() renders each new history entry's prompt line once and keeps
/// the newest window of rendered lines; propose() joins them into the
/// prompt, queries the client, and parses the answer; malformed answers are
/// retried and, after `max_parse_retries`, replaced by a uniform random
/// sample so the co-design loop never stalls on a misbehaving model.
class LlmOptimizer final : public search::Optimizer {
 public:
  struct Options {
    PromptBuilder::Options prompt;
    int max_parse_retries = 3;
  };

  LlmOptimizer(search::SearchSpace space, std::shared_ptr<LlmClient> client)
      : LlmOptimizer(std::move(space), std::move(client), Options{}) {}
  LlmOptimizer(search::SearchSpace space, std::shared_ptr<LlmClient> client,
               Options opts);

  [[nodiscard]] search::Design propose(util::Rng& rng) override;
  void feedback(const search::Observation& obs) override;
  [[nodiscard]] std::string name() const override;

  /// One prompt/response exchange, kept for explainability (the paper's
  /// first future-work direction: the dialogue is human-readable).
  struct Exchange {
    std::string prompt;
    std::string response;
    bool parsed_ok = false;
    int repairs = 0;
  };
  [[nodiscard]] const std::vector<Exchange>& transcript() const {
    return transcript_;
  }
  [[nodiscard]] const std::vector<HistoryEntry>& history() const {
    return history_;
  }

 private:
  search::SearchSpace space_;
  std::shared_ptr<LlmClient> client_;
  Options opts_;
  PromptBuilder builder_;
  std::vector<HistoryEntry> history_;
  /// PromptBuilder::history_line of the newest builder_.window_lines()
  /// entries of history_, oldest first.
  std::vector<std::string> window_;
  std::vector<Exchange> transcript_;
};

}  // namespace lcda::llm
