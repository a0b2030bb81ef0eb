#include "lcda/llm/prompt_reader.h"

#include <algorithm>
#include <bit>
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

/// The header keywords read_prompt looks up, in PromptReader's key order:
/// all but the last in the lower-cased text, the last verbatim. None holds
/// a '\n', so the first occurrence in a prompt is the first occurrence in
/// the first line that holds the key.
constexpr std::array<std::string_view, PromptReader::kKeyCount> kKeys = {
    "neural architecture search", "model architecture", "inference latency",
    "channels per layer:",        "kernel sizes:",      "device in",
    "bits_per_cell in",           "adc_bits in",        "xbar_size in",
    "col_mux in",                 " number pairs"};
enum Key : std::size_t {
  kNas, kModelArchitecture, kInferenceLatency, kChannels, kKernels, kDevices,
  kBitsPerCell, kAdcBits, kXbar, kColMux, kNumberPairs
};

/// PromptReader's braced_ints_after: the key's first offset `pos` in the
/// prompt is already known (npos when the prompt lacks it).
void braced_ints_at(std::string_view text, std::size_t pos, std::vector<int>& out) {
  out.clear();
  if (pos == npos) return;
  const std::size_t open = text.find('{', pos);
  if (open == npos) return;
  const std::size_t close = text.find('}', open);
  if (close == npos) return;
  for (long long v : util::extract_ints(text.substr(open + 1, close - open - 1))) {
    out.push_back(static_cast<int>(v));
  }
}

/// PromptReader's devices_after, over the prompt text rather than a
/// lower-cased copy of all of it.
void devices_at(std::string_view text, std::size_t pos,
                std::vector<cim::DeviceType>& out) {
  out.clear();
  if (pos == npos) return;
  const std::size_t open = text.find('{', pos);
  const std::size_t close = open == npos ? npos : text.find('}', open);
  if (close == npos) return;
  const std::string body = util::to_lower(text.substr(open + 1, close - open - 1));
  if (body.find("rram") != npos) out.push_back(cim::DeviceType::kRram);
  if (body.find("fefet") != npos) out.push_back(cim::DeviceType::kFefet);
  if (body.find("sram") != npos) out.push_back(cim::DeviceType::kSram);
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

PromptReader::PromptReader() { memo_.reserve(kCapacity); }

void PromptReader::parse_line(std::string_view line, Line& out) {
  util::to_lower(line, lower_);
  out.keys = 0;
  for (std::size_t k = 0; k < kKeyCount; ++k) {
    const std::size_t at =
        (k == kNumberPairs ? line : std::string_view(lower_)).find(kKeys[k]);
    if (at != npos) {
      out.keys |= 1u << k;
      out.key_at[k] = at;
    }
  }
  out.entry = HistoryEntry{};
  out.is_history = parse_history_line(line, lower_, out.entry);
  out.design_hash = out.is_history ? out.entry.design.hash() : 0;
}

const PromptReader::Line& PromptReader::line_facts(std::string_view line) {
  if (const auto it = memo_.find(line); it != memo_.end()) {
    it->second.last_read = reads_;
    return it->second;
  }
  if (memo_.size() >= kCapacity) {
    parse_line(line, scratch_);
    return scratch_;
  }
  Line& fresh = memo_.try_emplace(std::string(line)).first->second;
  parse_line(line, fresh);
  fresh.last_read = reads_;
  return fresh;
}

const PromptFacts& PromptReader::read(std::string_view text) {
  ++reads_;
  // Every '\n'-separated line (the text after the last newline included):
  // the history entries in order, and each header key's first offset.
  std::array<std::size_t, kKeyCount> key_at;
  key_at.fill(npos);
  std::uint32_t found = 0;
  std::size_t entries = 0;
  history_hashes_.clear();
  for (std::size_t begin = 0; begin <= text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == npos) end = text.size();
    const Line& line = line_facts(text.substr(begin, end - begin));
    // The keys this line holds that no earlier line held.
    const std::uint32_t first_here = line.keys & ~found;
    for (std::uint32_t todo = first_here; todo != 0; todo &= todo - 1) {
      const auto k = static_cast<std::size_t>(std::countr_zero(todo));
      key_at[k] = begin + line.key_at[k];
    }
    found |= first_here;
    if (line.is_history) {
      // Assigning over a kept entry reuses its rollout's storage.
      if (entries < facts_.history.size()) {
        facts_.history[entries] = line.entry;
      } else {
        facts_.history.push_back(line.entry);
      }
      ++entries;
      history_hashes_.push_back(line.design_hash);
    }
    begin = end + 1;
  }
  facts_.history.resize(entries);
  if (memo_.size() >= kCapacity) {
    std::erase_if(memo_, [this](const auto& kv) {
      return kv.second.last_read != reads_;
    });
  }

  facts_.codesign_context =
      key_at[kNas] != npos || key_at[kModelArchitecture] != npos;
  facts_.objective = key_at[kInferenceLatency] != npos ? Objective::kLatency
                                                       : Objective::kEnergy;
  braced_ints_at(text, key_at[kChannels], facts_.channel_choices);
  braced_ints_at(text, key_at[kKernels], facts_.kernel_choices);
  devices_at(text, key_at[kDevices], facts_.device_choices);
  braced_ints_at(text, key_at[kBitsPerCell], facts_.bits_per_cell_choices);
  braced_ints_at(text, key_at[kAdcBits], facts_.adc_bits_choices);
  braced_ints_at(text, key_at[kXbar], facts_.xbar_choices);
  braced_ints_at(text, key_at[kColMux], facts_.mux_choices);

  // "...rollout list consisting of N number pairs" (expert prompt) or
  // "...list of N number pairs" (naive prompt): the integer directly
  // preceding the "number pairs" marker.
  facts_.conv_layers = PromptFacts{}.conv_layers;
  const std::size_t pairs_marker = key_at[kNumberPairs];
  if (pairs_marker != npos) {
    const std::size_t window = std::min<std::size_t>(pairs_marker, 24);
    const auto ints =
        util::extract_ints(text.substr(pairs_marker - window, window));
    if (!ints.empty() && ints.back() > 0 && ints.back() <= 32) {
      facts_.conv_layers = static_cast<int>(ints.back());
    }
  }
  return facts_;
}

}  // namespace lcda::llm
