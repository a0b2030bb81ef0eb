#pragma once

#include <span>
#include <string>
#include <vector>

#include "lcda/llm/client.h"
#include "lcda/search/design.h"
#include "lcda/search/space.h"

namespace lcda::llm {

/// The hardware metric the co-design experiment trades accuracy against.
enum class Objective { kEnergy, kLatency };

[[nodiscard]] std::string_view objective_name(Objective o);

/// Inverse of objective_name ("energy" / "latency"); throws
/// std::invalid_argument on anything else. Used by scenario deserialization.
[[nodiscard]] Objective objective_from_name(std::string_view name);

/// One explored (design, normalized performance) pair — the paper's
/// (l_des, l_perf) lists fed back into every prompt.
struct HistoryEntry {
  search::Design design;
  double performance = 0.0;
};

/// Builds the GPT prompt of Algorithm 1.
///
/// The template follows the paper verbatim where it is spelled out (system
/// role line, task framing, rollout response format, the "-1 if the
/// hardware is invalid" rule, the request not to include anything but the
/// design). Two documented extensions:
///   * an explicit objective sentence naming the hardware metric (the paper
///     runs separate energy and latency experiments but prints only the
///     energy prompt);
///   * a hardware line in the response format, since the co-design space
///     includes the five NACIM hardware knobs alongside the rollout.
class PromptBuilder {
 public:
  struct Options {
    Objective objective = Objective::kEnergy;
    /// When false, emits the LCDA-naive prompt (paper Sec. IV-C): the same
    /// choices and history but stripped of every mention of neural
    /// architecture search, DNNs, accelerators and hardware — the model is
    /// just asked to pick numbers that maximize a score.
    bool codesign_context = true;
    /// Cap on history entries included (newest kept); prompts stay bounded.
    std::size_t max_history = 64;
  };

  PromptBuilder(search::SearchSpace space, Options opts);

  /// Algorithm 1: GPT-Prompts(l_des, l_perf, Model, Choices). Renders the
  /// newest window_lines() entries and hands them to build_from_lines.
  [[nodiscard]] ChatRequest build(const std::vector<HistoryEntry>& history) const;

  /// The same prompt from history lines rendered once by history_line,
  /// oldest first: the cached header, the newest max_history lines and the
  /// closing request. A caller that renders each entry as it arrives needs
  /// to keep only the newest window_lines() lines.
  [[nodiscard]] ChatRequest build_from_lines(
      std::span<const std::string> lines) const;

  /// Rendered lines build_from_lines can use: max_history, but at least one,
  /// because a non-empty history brings the results sentence even when
  /// max_history is 0.
  [[nodiscard]] std::size_t window_lines() const {
    return opts_.max_history > 0 ? opts_.max_history : 1;
  }

  /// The strict one-line grammar used for history entries, also consumed by
  /// prompt_reader:  "rollout=[[c,k],...] hardware=[DEV,b,adc,xbar,mux]
  /// performance=p".
  [[nodiscard]] static std::string history_line(const HistoryEntry& entry);

  /// Hardware bracket text for a design: "[RRAM,2,6,128,8]".
  [[nodiscard]] static std::string hardware_text(const cim::HardwareConfig& hw);

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] const search::SearchSpace& space() const { return space_; }

 private:
  /// A legal example rollout for the response-format instruction, matching
  /// the space's layer count and choice lists (the published VGG-style
  /// progression, snapped to the space): "[[32,3],[32,3],[64,3],...]".
  [[nodiscard]] std::string example_rollout() const;

  /// The static prompt_u text before the history block.
  [[nodiscard]] std::string render_header() const;

  search::SearchSpace space_;
  Options opts_;
  /// render_header(), once at construction: build() only appends the
  /// history window and the fixed closing request to it.
  const std::string header_;
};

}  // namespace lcda::llm
