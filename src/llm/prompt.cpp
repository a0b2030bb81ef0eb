#include "lcda/llm/prompt.h"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace lcda::llm {

std::string ChatRequest::full_text() const {
  std::size_t size = 0;
  for (const auto& m : messages) size += m.content.size() + 1;
  std::string out;
  out.reserve(size);
  for (const auto& m : messages) {
    out += m.content;
    out += '\n';
  }
  return out;
}

std::string_view objective_name(Objective o) {
  switch (o) {
    case Objective::kEnergy: return "energy";
    case Objective::kLatency: return "latency";
  }
  return "?";
}

Objective objective_from_name(std::string_view name) {
  if (name == "energy") return Objective::kEnergy;
  if (name == "latency") return Objective::kLatency;
  throw std::invalid_argument("objective_from_name: unknown objective \"" +
                              std::string(name) + "\"");
}

namespace {

constexpr std::string_view kHistoryIntro =
    "Here are some experimental results that you can use as a reference:\n";
constexpr std::string_view kFooter =
    "Please suggest a rollout list that can improve the model's performance "
    "beyond the experimental results provided above. Please do not include "
    "anything else other than the rollout list and the hardware configuration "
    "in your response.";

void append_int(std::string& out, int v) {
  char buf[16];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

/// The default `operator<<(double)` text: %g with precision 6.
void append_performance(std::string& out, double v) {
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6);
  out.append(buf, res.ptr);
}

void append_hardware(std::string& out, const cim::HardwareConfig& hw) {
  out += '[';
  out += cim::device_name(hw.device);
  for (int v : {hw.bits_per_cell, hw.adc_bits, hw.xbar_size, hw.col_mux}) {
    out += ',';
    append_int(out, v);
  }
  out += ']';
}

void append_history_line(std::string& out, const HistoryEntry& entry) {
  out += "rollout=";
  out += entry.design.rollout_text();
  out += " hardware=";
  append_hardware(out, entry.design.hw);
  out += " performance=";
  append_performance(out, entry.performance);
}

}  // namespace

PromptBuilder::PromptBuilder(search::SearchSpace space, Options opts)
    : space_(std::move(space)), opts_(opts), header_(render_header()) {}

std::string PromptBuilder::example_rollout() const {
  // Progressive widening from 32, doubling every two layers, all 3x3 —
  // snapped onto the space so the example only shows legal values (an LLM
  // imitates its example; an 8-layer space must not show a 6-pair one).
  search::Design example;
  for (int i = 0; i < space_.conv_layers(); ++i) {
    example.rollout.push_back({32 << (i / 2), 3});
  }
  return space_.snap(example).rollout_text();
}

std::string PromptBuilder::hardware_text(const cim::HardwareConfig& hw) {
  std::string out;
  append_hardware(out, hw);
  return out;
}

std::string PromptBuilder::history_line(const HistoryEntry& entry) {
  std::string out;
  append_history_line(out, entry);
  return out;
}

std::string PromptBuilder::render_header() const {
  // prompt_u of Algorithm 1, up to the history block.
  std::ostringstream os;
  if (opts_.codesign_context) {
    os << "Your task is to assist me in selecting the best rollout numbers "
          "for a given model architecture. The model will be trained and "
          "tested on CIFAR10, and your objective will be to maximize the "
          "model's performance on CIFAR10.\n";
    os << "The model architecture will be defined as the following.\n"
       << space_.model_text() << "\n";
    os << "For the 'rollout' variable to design the model, the available "
          "number for each index would be: "
       << space_.choices_text() << "\n";
    os << "Your objective is to define the optimal number of rollouts for "
          "each layer based on the given options above to maximize the "
          "model's performance on CIFAR10.\n";
    os << "The model's performance is a combination of hardware performance "
          "and model accuracy. The hardware metric for this study is ";
    os << (opts_.objective == Objective::kEnergy
               ? "the energy consumption during inference on a "
                 "compute-in-memory DNN accelerator"
               : "the inference latency on a compute-in-memory DNN "
                 "accelerator");
    os << ". If the hardware is invalid (e.g., too large in area), the "
          "performance I give you will be -1. After you give me a rollout "
          "list, I will give you the model's performance I calculated.\n";
    os << "Your response should be the rollout list consisting of "
       << space_.conv_layers() << " number pairs (e.g. " << example_rollout()
       << ") followed on the next line by the hardware configuration "
          "hardware=[device,bits_per_cell,adc_bits,xbar_size,col_mux] "
          "(e.g. hardware=[RRAM,2,6,128,8]).\n";
  } else {
    // LCDA-naive: same decision problem with all domain context removed.
    os << "I am running a black-box optimization. Select one list of "
       << space_.conv_layers()
       << " number pairs and one list of settings to maximize a score I will "
          "compute.\n";
    os << "The available numbers for each pair are: " << space_.choices_text()
       << "\n";
    os << "If the settings are invalid the score will be -1. After you give "
          "me a list, I will tell you the score.\n";
    os << "Your response should be the list of " << space_.conv_layers()
       << " number pairs (e.g. " << example_rollout()
       << ") followed on the next line by hardware=[device,bits_per_cell,"
          "adc_bits,xbar_size,col_mux] (e.g. hardware=[RRAM,2,6,128,8]).\n";
  }
  return os.str();
}

ChatRequest PromptBuilder::build(const std::vector<HistoryEntry>& history) const {
  const std::size_t start =
      history.size() > window_lines() ? history.size() - window_lines() : 0;
  std::vector<std::string> lines;
  lines.reserve(history.size() - start);
  for (std::size_t i = start; i < history.size(); ++i) {
    lines.push_back(history_line(history[i]));
  }
  return build_from_lines(lines);
}

ChatRequest PromptBuilder::build_from_lines(
    std::span<const std::string> lines) const {
  ChatRequest req;

  // prompt_s of Algorithm 1.
  ChatMessage system;
  system.role = ChatMessage::Role::kSystem;
  system.content = opts_.codesign_context
                       ? "You are an expert in the field of neural architecture "
                         "search."
                       : "You are a helpful assistant.";
  req.messages.push_back(std::move(system));

  // prompt_u of Algorithm 1: the static header, the newest max_history
  // entries, the closing request.
  const bool any_history = !lines.empty();
  if (lines.size() > opts_.max_history) lines = lines.last(opts_.max_history);
  ChatMessage user;
  user.role = ChatMessage::Role::kUser;
  std::string& text = user.content;
  std::size_t size = header_.size() + kHistoryIntro.size() + kFooter.size();
  for (const std::string& line : lines) size += line.size() + 1;
  text.reserve(size);
  text += header_;
  if (any_history) {
    text += kHistoryIntro;
    for (const std::string& line : lines) {
      text += line;
      text += '\n';
    }
  }
  text += kFooter;
  req.messages.push_back(std::move(user));
  return req;
}

}  // namespace lcda::llm
