#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lcda/search/design.h"
#include "lcda/util/rng.h"

namespace lcda::search {

/// The NACIM co-design space (paper Sec. IV): per-layer channel and kernel
/// choices for six conv layers, plus the hardware knobs.
class SearchSpace {
 public:
  struct Options {
    int conv_layers = 6;
    std::vector<int> channel_choices = {16, 24, 32, 48, 64, 96, 128};
    std::vector<int> kernel_choices = {1, 3, 5, 7};
    cim::HardwareChoices hw;
    nn::BackboneOptions backbone;

    /// Area budget stamped onto every design this space produces (decode,
    /// sample, snap). Designs whose chip exceeds it are invalid and earn
    /// the framework's -1 reward; scenarios tighten it to stress the
    /// optimizers' validity handling.
    double area_budget_mm2 = 75.0;
  };

  SearchSpace() : SearchSpace(Options{}) {}
  explicit SearchSpace(Options opts);

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] int conv_layers() const { return opts_.conv_layers; }

  /// Number of categorical decision dimensions:
  /// 2 per conv layer + 5 hardware knobs.
  [[nodiscard]] std::size_t dimensions() const;

  /// Choice count of dimension d.
  [[nodiscard]] std::size_t cardinality(std::size_t dim) const;

  /// Total design count (product of cardinalities).
  [[nodiscard]] double total_designs() const;

  /// Encode/decode between a Design and a per-dimension choice-index vector.
  /// encode() throws if a design uses values outside the space.
  [[nodiscard]] std::vector<int> encode(const Design& design) const;
  [[nodiscard]] Design decode(const std::vector<int>& indices) const;

  /// Equivalent to decode(indices) == design (false instead of throwing on
  /// malformed indices), without materializing the decoded Design — the
  /// allocation-free check the RL controller runs on every feedback.
  [[nodiscard]] bool decodes_to(const std::vector<int>& indices,
                                const Design& design) const;

  /// True when every rollout entry and hardware knob is a legal choice.
  [[nodiscard]] bool contains(const Design& design) const;

  /// Clamps a design onto the space: every value is snapped to the nearest
  /// legal choice (used to repair slightly-off LLM proposals).
  [[nodiscard]] Design snap(const Design& design) const;

  /// Uniformly random design.
  [[nodiscard]] Design sample(util::Rng& rng) const;

  /// Human-readable description of the choices (used in LLM prompts):
  /// channels, kernels and hardware knob option lists.
  [[nodiscard]] std::string choices_text() const;

  /// Description of the backbone (used in LLM prompts).
  [[nodiscard]] std::string model_text() const;

 private:
  Options opts_;
};

/// The entry of non-empty `choices` closest to `value`, the first of equally
/// close ones. Exact for every int pair: `value` may come from outside
/// (an LLM answer or prompt) and sit anywhere in int's range.
[[nodiscard]] int nearest_choice(int value, const std::vector<int>& choices);

}  // namespace lcda::search
