#include "lcda/llm/simulated_gpt4.h"

#include <algorithm>
#include <climits>
#include <sstream>

#include "lcda/llm/explain.h"
#include "lcda/llm/prompt.h"
#include "lcda/search/space.h"
#include "lcda/util/strings.h"

namespace lcda::llm {

namespace {

using search::nearest_choice;

/// Fallback choice lists when the prompt did not carry them (robustness —
/// a real GPT-4 would likewise fall back to plausible values).
const std::vector<int> kDefaultChannels = {16, 24, 32, 48, 64, 96, 128};
const std::vector<int> kDefaultKernels = {1, 3, 5, 7};

template <typename T>
const std::vector<T>& or_default(const std::vector<T>& got,
                                 const std::vector<T>& fallback) {
  return got.empty() ? fallback : got;
}

/// Next smaller / larger entry in a sorted-ish choice list.
int step_choice(int value, const std::vector<int>& choices, int direction) {
  if (!std::is_sorted(choices.begin(), choices.end())) {
    std::vector<int> sorted = choices;
    std::sort(sorted.begin(), sorted.end());
    return step_choice(value, sorted, direction);
  }
  const auto it = std::find(choices.begin(), choices.end(), value);
  std::size_t idx =
      it == choices.end()
          ? static_cast<std::size_t>(
                std::find(choices.begin(), choices.end(),
                          nearest_choice(value, choices)) -
                choices.begin())
          : static_cast<std::size_t>(it - choices.begin());
  if (direction > 0 && idx + 1 < choices.size()) ++idx;
  if (direction < 0 && idx > 0) --idx;
  return choices[idx];
}

/// Enforces the "logical design choices" of Sec. IV-A: non-decreasing
/// channels, at most 4x growth per layer, snapped to the choice list.
void enforce_expert_constraints(std::vector<nn::ConvSpec>& rollout,
                                const std::vector<int>& channels) {
  int prev = 0;
  for (auto& spec : rollout) {
    spec.channels = nearest_choice(spec.channels, channels);
    if (prev > 0) {
      if (spec.channels < prev) spec.channels = prev;
      while (spec.channels > 4LL * prev) {
        const int smaller = step_choice(spec.channels, channels, -1);
        if (smaller == spec.channels) break;
        spec.channels = smaller;
      }
    }
    prev = spec.channels;
  }
}

}  // namespace

SimulatedGpt4::SimulatedGpt4(Options opts) : opts_(opts), rng_(opts.seed) {}

ChatResponse SimulatedGpt4::complete(const ChatRequest& request) {
  const std::string text = request.full_text();
  const PromptFacts& facts = reader_.read(text);
  ChatResponse resp;
  if (text.find(kExplainMarker) != std::string::npos) {
    resp.content = explain_change(facts);
    return resp;
  }
  const search::Design design =
      facts.codesign_context ? expert_propose(facts) : generic_propose(facts);
  resp.content = render(design);
  return resp;
}

std::string SimulatedGpt4::explain_change(const PromptFacts& facts) const {
  if (facts.history.size() < 2) {
    return "I cannot explain the change: the prompt did not include both the "
           "previous and the proposed design.";
  }
  const HistoryEntry& prev = facts.history[facts.history.size() - 2];
  const HistoryEntry& cur = facts.history.back();
  const bool latency = facts.objective == Objective::kLatency;

  std::ostringstream os;
  bool any = false;
  const std::size_t layers = std::min(prev.design.rollout.size(),
                                      cur.design.rollout.size());
  for (std::size_t i = 0; i < layers; ++i) {
    const auto& p = prev.design.rollout[i];
    const auto& c = cur.design.rollout[i];
    if (c.channels != p.channels) {
      any = true;
      os << "- layer " << i + 1 << ": " << (c.channels > p.channels ? "widened"
                                                                    : "narrowed")
         << " from " << p.channels << " to " << c.channels << " channels "
         << (c.channels > p.channels
                 ? "to raise accuracy, accepting higher hardware cost"
                 : (latency ? "to shrink the array count so more weight "
                              "replication fits the area budget"
                            : "to cut crossbar and ADC energy"))
         << ".\n";
    }
    if (c.kernel != p.kernel) {
      any = true;
      os << "- layer " << i + 1 << ": kernel " << p.kernel << "x" << p.kernel
         << " -> " << c.kernel << "x" << c.kernel << " because "
         << (c.kernel > p.kernel
                 ? "larger receptive fields usually improve accuracy"
                 : (latency ? "smaller kernels are usually faster"
                            : "smaller kernels reduce the fan-in that device "
                              "variation can corrupt"))
         << ".\n";
    }
  }
  const auto& ph = prev.design.hw;
  const auto& ch = cur.design.hw;
  if (ph.device != ch.device) {
    any = true;
    os << "- switched the cell technology from " << cim::device_name(ph.device)
       << " to " << cim::device_name(ch.device)
       << " to trade read energy against programming variation.\n";
  }
  if (ph.bits_per_cell != ch.bits_per_cell) {
    any = true;
    os << "- bits per cell " << ph.bits_per_cell << " -> " << ch.bits_per_cell
       << ": denser storage needs fewer arrays but is harder to program "
          "precisely.\n";
  }
  if (ph.adc_bits != ch.adc_bits) {
    any = true;
    os << "- ADC resolution " << ph.adc_bits << " -> " << ch.adc_bits << " bits: "
       << (ch.adc_bits < ph.adc_bits
               ? "lower resolution converts faster and cheaper, at some "
                 "partial-sum precision loss"
               : "higher resolution avoids clipping the column sums")
       << ".\n";
  }
  if (ph.xbar_size != ch.xbar_size) {
    any = true;
    os << "- crossbar size " << ph.xbar_size << " -> " << ch.xbar_size
       << " to rebalance array count against per-array utilization.\n";
  }
  if (ph.col_mux != ch.col_mux) {
    any = true;
    os << "- column mux " << ph.col_mux << ":1 -> " << ch.col_mux
       << ":1, trading ADC count (area) against serialized conversions "
          "(latency).\n";
  }
  if (!any) {
    return "The proposed design is identical to the previous one; I "
           "re-suggested it because every nearby alternative was already "
           "explored.";
  }
  os << "Previous performance was " << prev.performance
     << "; I expect these changes to improve the combined "
     << (latency ? "latency" : "energy") << "/accuracy score.";
  return os.str();
}

search::Design SimulatedGpt4::expert_propose(const PromptFacts& facts) {
  const auto& channels = or_default(facts.channel_choices, kDefaultChannels);
  const auto& kernels = or_default(facts.kernel_choices, kDefaultKernels);
  // Expert kernels: GPT-4 avoids 1x1 backbones ("always maintaining logical
  // design choices"); it works with conventional 3/5/7 kernels.
  std::vector<int> expert_kernels;
  for (int k : kernels) {
    if (k >= 3) expert_kernels.push_back(k);
  }
  if (expert_kernels.empty()) expert_kernels = kernels;
  const int layers = facts.conv_layers;

  // The explored designs, hashed once per history line by the reader.
  const std::vector<std::uint64_t>& seen = reader_.history_hashes();

  // --- Episode 0: pretrained knowledge, no cold start -------------------
  if (facts.history.empty()) {
    search::Design d;
    // A published-style progressive widening: start at a moderate width and
    // double every two layers, all 3x3.
    const int start = channels[rng_.index(std::min<std::size_t>(3, channels.size()))];
    int prev = 0;
    for (int i = 0; i < layers; ++i) {
      nn::ConvSpec spec;
      const double scale = static_cast<double>(1 << (i / 2));
      // The choices come from the prompt, so the product may leave int.
      const double width = std::clamp(start * scale, double{INT_MIN}, double{INT_MAX});
      spec.channels = nearest_choice(static_cast<int>(width), channels);
      if (prev > 0 && spec.channels < prev) spec.channels = prev;
      spec.kernel = 3;
      d.rollout.push_back(spec);
      prev = spec.channels;
    }
    enforce_expert_constraints(d.rollout, channels);
    // Standard hardware point: 2-bit cells on a 128-crossbar with a
    // mid-resolution ADC is the textbook CiM operating point.
    if (!facts.device_choices.empty()) d.hw.device = facts.device_choices.front();
    if (!facts.bits_per_cell_choices.empty()) {
      d.hw.bits_per_cell = nearest_choice(2, facts.bits_per_cell_choices);
    }
    if (!facts.adc_bits_choices.empty()) {
      d.hw.adc_bits = nearest_choice(6, facts.adc_bits_choices);
    }
    if (!facts.xbar_choices.empty()) {
      d.hw.xbar_size = nearest_choice(128, facts.xbar_choices);
    }
    if (!facts.mux_choices.empty()) d.hw.col_mux = nearest_choice(8, facts.mux_choices);
    return d;
  }

  // --- Later episodes: exploit the history ------------------------------
  const HistoryEntry* best = &facts.history.front();
  for (const auto& h : facts.history) {
    if (h.performance > best->performance) best = &h;
  }
  const bool last_invalid = facts.history.back().performance <= -1.0;

  for (int attempt = 0; attempt < 24; ++attempt) {
    search::Design d = best->design;
    if (static_cast<int>(d.rollout.size()) != layers) {
      d.rollout.resize(static_cast<std::size_t>(layers), {32, 3});
    }

    if (last_invalid) {
      // Area blew up: the expert reasons about area and shrinks the design.
      for (auto& spec : d.rollout) {
        spec.channels = step_choice(spec.channels, channels, -1);
      }
      if (!facts.xbar_choices.empty()) {
        d.hw.xbar_size = step_choice(d.hw.xbar_size, facts.xbar_choices, +1);
      }
    } else if (!opts_.wrong_cim_kernel_priors &&
               facts.objective == Objective::kLatency) {
      // "Fine-tuned" expert (paper Sec. IV-B future work): it has learned
      // that on CiM hardware kernel size is NOT the latency lever — array
      // count and hardware knobs are — and that large kernels amplify
      // device variation. It therefore pins kernels at 3 and works the
      // channel widths and hardware configuration instead.
      const double roll = rng_.uniform();
      for (auto& spec : d.rollout) {
        spec.kernel = nearest_choice(3, expert_kernels);
      }
      if (roll < 0.40) {
        const int dir = rng_.chance(0.6) ? -1 : +1;  // smaller nets replicate
        for (auto& spec : d.rollout) {
          spec.channels = step_choice(spec.channels, channels, dir);
        }
      } else if (roll < 0.60) {
        const std::size_t i = rng_.index(d.rollout.size());
        d.rollout[i].channels = step_choice(d.rollout[i].channels, channels,
                                            rng_.chance(0.5) ? +1 : -1);
      } else if (roll < 0.80 && !facts.adc_bits_choices.empty()) {
        // Lower-resolution ADCs convert faster (SAR cycles scale with bits).
        d.hw.adc_bits = step_choice(d.hw.adc_bits, facts.adc_bits_choices, -1);
      } else if (!facts.mux_choices.empty() && rng_.chance(0.5)) {
        // Less column muxing = fewer serialized conversions per read.
        d.hw.col_mux = step_choice(d.hw.col_mux, facts.mux_choices, -1);
      } else if (!facts.bits_per_cell_choices.empty()) {
        // Denser cells shrink the array count, freeing area for replication.
        d.hw.bits_per_cell =
            step_choice(d.hw.bits_per_cell, facts.bits_per_cell_choices, +1);
      }
    } else {
      const double roll = rng_.uniform();
      const bool latency_objective = facts.objective == Objective::kLatency;

      if (latency_objective && opts_.wrong_cim_kernel_priors && roll < 0.55) {
        // Sec. IV-B misconception #2: "smaller kernels mean lower latency".
        // GPT-4 keeps shrinking kernels chasing FPS.
        const std::size_t i = rng_.index(d.rollout.size());
        d.rollout[i].kernel = step_choice(d.rollout[i].kernel, expert_kernels, -1);
      } else if (latency_objective && opts_.wrong_cim_kernel_priors &&
                 roll < 0.80) {
        // Sec. IV-B misconception #1: "larger kernels mean higher accuracy".
        // When the score stalls, it enlarges kernels instead.
        const std::size_t i = rng_.index(d.rollout.size());
        d.rollout[i].kernel = step_choice(d.rollout[i].kernel, expert_kernels, +1);
      } else if (roll < 0.45) {
        // Channel spectrum exploration: scale the whole network up or down
        // one notch — high-accuracy designs across the energy range.
        const int dir = rng_.chance(0.5) ? +1 : -1;
        for (auto& spec : d.rollout) {
          spec.channels = step_choice(spec.channels, channels, dir);
        }
      } else if (roll < 0.70) {
        // Local width move on one of the later layers.
        const std::size_t i = rng_.index(d.rollout.size());
        const int dir = rng_.chance(0.6) ? +1 : -1;
        d.rollout[i].channels = step_choice(d.rollout[i].channels, channels, dir);
      } else if (roll < 0.80 && !latency_objective) {
        // Mild kernel exploration under the energy objective (3 <-> 5).
        const std::size_t i = rng_.index(d.rollout.size());
        const int dir = rng_.chance(0.5) ? +1 : -1;
        const int next = step_choice(d.rollout[i].kernel, expert_kernels, dir);
        d.rollout[i].kernel = std::min(next, 5);
      } else {
        // Hardware neighborhood move on one knob.
        switch (rng_.index(4)) {
          case 0:
            if (!facts.adc_bits_choices.empty()) {
              d.hw.adc_bits = step_choice(d.hw.adc_bits, facts.adc_bits_choices,
                                          rng_.chance(0.5) ? +1 : -1);
            }
            break;
          case 1:
            if (!facts.xbar_choices.empty()) {
              d.hw.xbar_size = step_choice(d.hw.xbar_size, facts.xbar_choices,
                                           rng_.chance(0.5) ? +1 : -1);
            }
            break;
          case 2:
            if (!facts.device_choices.empty()) {
              d.hw.device =
                  facts.device_choices[rng_.index(facts.device_choices.size())];
            }
            break;
          default:
            if (!facts.bits_per_cell_choices.empty()) {
              d.hw.bits_per_cell =
                  step_choice(d.hw.bits_per_cell, facts.bits_per_cell_choices,
                              rng_.chance(0.5) ? +1 : -1);
            }
            break;
        }
      }
    }

    enforce_expert_constraints(d.rollout, channels);
    if (std::find(seen.begin(), seen.end(), d.hash()) == seen.end()) return d;
  }
  // Every neighbor tried was already explored; re-suggest the best design
  // scaled down a notch (still expert-legal).
  search::Design d = best->design;
  for (auto& spec : d.rollout) {
    spec.channels = step_choice(spec.channels, channels, -1);
  }
  enforce_expert_constraints(d.rollout, channels);
  return d;
}

search::Design SimulatedGpt4::generic_propose(const PromptFacts& facts) {
  const auto& channels = or_default(facts.channel_choices, kDefaultChannels);
  const auto& kernels = or_default(facts.kernel_choices, kDefaultKernels);
  const int layers = facts.conv_layers;

  search::Design d;
  const double mode = rng_.uniform();
  if (mode < 0.30) {
    // Generic numeric prior: bigger numbers must score more.
    for (int i = 0; i < layers; ++i) {
      d.rollout.push_back({channels.back(), kernels.back()});
    }
  } else if (mode < 0.55 && !facts.history.empty()) {
    // Tweak the best-scoring previous list without understanding it.
    const HistoryEntry* best = &facts.history.front();
    for (const auto& h : facts.history) {
      if (h.performance > best->performance) best = &h;
    }
    d = best->design;
    d.rollout.resize(static_cast<std::size_t>(layers), {32, 3});
    const std::size_t i = rng_.index(d.rollout.size());
    d.rollout[i].channels = channels[rng_.index(channels.size())];
    d.rollout[i].kernel = kernels[rng_.index(kernels.size())];
  } else {
    // Unconstrained random walk: decreasing widths, (1,7)-style kernel
    // mixes — exactly the "unreasonable" candidates the expert avoids.
    for (int i = 0; i < layers; ++i) {
      d.rollout.push_back({channels[rng_.index(channels.size())],
                           kernels[rng_.index(kernels.size())]});
    }
  }
  if (!facts.device_choices.empty()) {
    d.hw.device = facts.device_choices[rng_.index(facts.device_choices.size())];
  }
  if (!facts.bits_per_cell_choices.empty()) {
    d.hw.bits_per_cell =
        facts.bits_per_cell_choices[rng_.index(facts.bits_per_cell_choices.size())];
  }
  if (!facts.adc_bits_choices.empty()) {
    d.hw.adc_bits = facts.adc_bits_choices[rng_.index(facts.adc_bits_choices.size())];
  }
  if (!facts.xbar_choices.empty()) {
    d.hw.xbar_size = facts.xbar_choices[rng_.index(facts.xbar_choices.size())];
  }
  if (!facts.mux_choices.empty()) {
    d.hw.col_mux = facts.mux_choices[rng_.index(facts.mux_choices.size())];
  }
  return d;
}

std::string SimulatedGpt4::render(const search::Design& design) {
  std::ostringstream os;
  if (rng_.chance(opts_.chatter_probability)) {
    os << "Based on the experimental results provided, I suggest the "
          "following design:\n";
  }
  if (rng_.chance(opts_.format_noise_probability)) {
    // Sloppy spacing variant.
    os << "[ ";
    for (std::size_t i = 0; i < design.rollout.size(); ++i) {
      if (i) os << ", ";
      os << "[ " << design.rollout[i].channels << ", " << design.rollout[i].kernel
         << " ]";
    }
    os << " ]";
  } else {
    os << design.rollout_text();
  }
  os << '\n' << "hardware=" << PromptBuilder::hardware_text(design.hw) << '\n';
  return os.str();
}

}  // namespace lcda::llm
