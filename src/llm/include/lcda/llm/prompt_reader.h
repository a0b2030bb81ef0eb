#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lcda/llm/prompt.h"
#include "lcda/search/design.h"
#include "lcda/search/space.h"

namespace lcda::llm {

/// Everything a prompt-driven model can recover from the Algorithm-1 prompt
/// text. SimulatedGpt4 *only* sees the prompt — exactly like the real GPT-4
/// — so all task knowledge must round-trip through this reader. That keeps
/// the prompt format honest: if PromptBuilder stopped emitting something,
/// the simulated optimizer would genuinely lose that information.
struct PromptFacts {
  /// True when the prompt frames the task as NAS / SW-HW co-design (the
  /// LCDA-naive ablation strips this framing).
  bool codesign_context = false;

  /// Which hardware metric the prompt names (energy when unspecified).
  Objective objective = Objective::kEnergy;

  /// Channel / kernel choices recovered from the choices line.
  std::vector<int> channel_choices;
  std::vector<int> kernel_choices;

  /// Hardware knob choices recovered from the choices line.
  std::vector<cim::DeviceType> device_choices;
  std::vector<int> bits_per_cell_choices;
  std::vector<int> adc_bits_choices;
  std::vector<int> xbar_choices;
  std::vector<int> mux_choices;

  /// Conv layer count implied by the response-format sentence (default 6).
  int conv_layers = 6;

  /// The (design, performance) history, oldest first.
  std::vector<HistoryEntry> history;
};

/// Parses a full prompt (system + user text). Never throws; missing pieces
/// are left at defaults.
[[nodiscard]] PromptFacts read_prompt(std::string_view prompt_text);

/// read_prompt for a caller that reads many prompts: the Algorithm-1 loop
/// sends each history line in up to `max_history` consecutive prompts, so
/// the reader memoizes what every '\n'-separated line yields (its history
/// entry, if any, and where the header keywords sit in it), keyed by the
/// line's own bytes and never by its position. A prompt therefore reads
/// exactly as read_prompt reads it, whether it is the next turn of a
/// sliding window or a foreign, mutated or reordered text; only the lines
/// not seen recently cost a parse.
///
/// The memo is a cache, never state: it holds at most kCapacity lines
/// (when a read leaves it full, the lines that read did not use are
/// dropped), and it is not checkpointed. One reader per thread.
class PromptReader {
 public:
  /// Twice the default history window, so a sliding window plus the
  /// header lines stay memoized from one turn to the next.
  static constexpr std::size_t kCapacity =
      2 * PromptBuilder::Options{}.max_history;

  PromptReader();

  /// The facts of `prompt_text`, equal to read_prompt(prompt_text). Valid
  /// until the next read.
  [[nodiscard]] const PromptFacts& read(std::string_view prompt_text);

  /// Design::hash() of each entry of the last read's facts().history.
  [[nodiscard]] const std::vector<std::uint64_t>& history_hashes() const {
    return history_hashes_;
  }

  /// Lines memoized now (never more than kCapacity).
  [[nodiscard]] std::size_t memo_size() const { return memo_.size(); }

  /// The lower-case keywords of the header facts, plus the case-sensitive
  /// " number pairs" marker as the last one.
  static constexpr std::size_t kKeyCount = 11;

 private:
  /// What one line yields, independent of where it sits in a prompt.
  struct Line {
    bool is_history = false;
    HistoryEntry entry;
    std::uint64_t design_hash = 0;
    /// Bit k is set when key k occurs in the line, first at key_at[k].
    std::uint32_t keys = 0;
    std::array<std::size_t, kKeyCount> key_at{};
    /// Index of the last read that used the line.
    std::uint64_t last_read = 0;
  };
  struct BytesHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// The memoized facts of `line`, parsed (and memoized while there is
  /// room) on a miss.
  const Line& line_facts(std::string_view line);
  void parse_line(std::string_view line, Line& out);

  std::uint64_t reads_ = 0;
  std::unordered_map<std::string, Line, BytesHash, std::equal_to<>> memo_;
  Line scratch_;
  /// The to_lower copy of the line being parsed (reused storage).
  std::string lower_;
  PromptFacts facts_;
  std::vector<std::uint64_t> history_hashes_;
};

}  // namespace lcda::llm
