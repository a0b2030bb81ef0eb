#include "lcda/llm/prompt_reader.h"

#include <algorithm>
#include <string>

#include "lcda/util/strings.h"

namespace lcda::llm {

namespace {

constexpr std::size_t npos = std::string_view::npos;

/// Extracts the integer list between the first '{' after `key` (lower
/// case, looked up in `lower`) and the matching '}'. `text` and `lower` are
/// the prompt and its to_lower copy, so offsets agree.
std::vector<int> braced_ints_after(std::string_view text, std::string_view lower,
                                   std::string_view key) {
  std::vector<int> out;
  const std::size_t pos = lower.find(key);
  if (pos == npos) return out;
  const std::size_t open = text.find('{', pos);
  if (open == npos) return out;
  const std::size_t close = text.find('}', open);
  if (close == npos) return out;
  for (long long v : util::extract_ints(text.substr(open + 1, close - open - 1))) {
    out.push_back(static_cast<int>(v));
  }
  return out;
}

std::vector<cim::DeviceType> devices_after(std::string_view lower,
                                           std::string_view key) {
  std::vector<cim::DeviceType> out;
  const std::size_t pos = lower.find(key);
  if (pos == npos) return out;
  const std::size_t open = lower.find('{', pos);
  const std::size_t close = open == npos ? npos : lower.find('}', open);
  if (close == npos) return out;
  const std::string_view body = lower.substr(open + 1, close - open - 1);
  if (body.find("rram") != npos) out.push_back(cim::DeviceType::kRram);
  if (body.find("fefet") != npos) out.push_back(cim::DeviceType::kFefet);
  if (body.find("sram") != npos) out.push_back(cim::DeviceType::kSram);
  return out;
}

/// Parses one "rollout=... hardware=... performance=..." history line;
/// `lower` is the line's to_lower copy (for the device name).
bool parse_history_line(std::string_view line, std::string_view lower,
                        HistoryEntry& out) {
  const std::size_t rpos = line.find("rollout=");
  if (rpos == npos) return false;
  const std::size_t ppos = line.find("performance=");
  if (ppos == npos) return false;
  // Rollout pairs between "rollout=" and "hardware=" (or "performance=").
  const std::size_t hpos = line.find("hardware=");
  const std::size_t rollout_end = hpos != npos ? hpos : ppos;
  const auto ints =
      util::extract_ints(line.substr(rpos + 8, rollout_end - (rpos + 8)));
  if (ints.size() < 2 || ints.size() % 2 != 0) return false;
  out.design.rollout.clear();
  for (std::size_t i = 0; i + 1 < ints.size(); i += 2) {
    nn::ConvSpec spec;
    spec.channels = static_cast<int>(ints[i]);
    spec.kernel = static_cast<int>(ints[i + 1]);
    out.design.rollout.push_back(spec);
  }
  if (hpos != npos) {
    const std::string_view hw_lower = lower.substr(hpos, ppos - hpos);
    if (hw_lower.find("fefet") != npos) {
      out.design.hw.device = cim::DeviceType::kFefet;
    } else if (hw_lower.find("sram") != npos) {
      out.design.hw.device = cim::DeviceType::kSram;
    } else {
      out.design.hw.device = cim::DeviceType::kRram;
    }
    const auto hw_ints = util::extract_ints(line.substr(hpos, ppos - hpos));
    if (hw_ints.size() >= 4) {
      out.design.hw.bits_per_cell = static_cast<int>(hw_ints[0]);
      out.design.hw.adc_bits = static_cast<int>(hw_ints[1]);
      out.design.hw.xbar_size = static_cast<int>(hw_ints[2]);
      out.design.hw.col_mux = static_cast<int>(hw_ints[3]);
    }
  }
  const auto perf = util::parse_double(util::trim(line.substr(ppos + 12)));
  if (!perf) return false;
  out.performance = *perf;
  return true;
}

}  // namespace

PromptFacts read_prompt(std::string_view text) {
  PromptFacts facts;

  // One lower-cased copy, byte for byte the same length as `text`: every
  // case-insensitive lookup is a plain find on it, at the same offsets.
  const std::string lowered = util::to_lower(text);
  const std::string_view lower = lowered;

  facts.codesign_context = lower.find("neural architecture search") != npos ||
                           lower.find("model architecture") != npos;
  facts.objective = lower.find("inference latency") != npos
                        ? Objective::kLatency
                        : Objective::kEnergy;

  facts.channel_choices = braced_ints_after(text, lower, "channels per layer:");
  facts.kernel_choices = braced_ints_after(text, lower, "kernel sizes:");
  facts.device_choices = devices_after(lower, "device in");
  facts.bits_per_cell_choices = braced_ints_after(text, lower, "bits_per_cell in");
  facts.adc_bits_choices = braced_ints_after(text, lower, "adc_bits in");
  facts.xbar_choices = braced_ints_after(text, lower, "xbar_size in");
  facts.mux_choices = braced_ints_after(text, lower, "col_mux in");

  // "...rollout list consisting of N number pairs" (expert prompt) or
  // "...list of N number pairs" (naive prompt): the integer directly
  // preceding the "number pairs" marker.
  const std::size_t pairs_marker = text.find(" number pairs");
  if (pairs_marker != npos) {
    const std::size_t window = std::min<std::size_t>(pairs_marker, 24);
    const auto ints =
        util::extract_ints(text.substr(pairs_marker - window, window));
    if (!ints.empty() && ints.back() > 0 && ints.back() <= 32) {
      facts.conv_layers = static_cast<int>(ints.back());
    }
  }

  // Every '\n'-separated line (the text after the last newline included),
  // as views into `text` and `lower`.
  for (std::size_t begin = 0; begin <= text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == npos) end = text.size();
    HistoryEntry entry;
    if (parse_history_line(text.substr(begin, end - begin),
                           lower.substr(begin, end - begin), entry)) {
      facts.history.push_back(std::move(entry));
    }
    begin = end + 1;
  }
  return facts;
}

}  // namespace lcda::llm
