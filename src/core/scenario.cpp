#include "lcda/core/scenario.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "lcda/core/report.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

namespace lcda::core {

namespace {

// ------------------------------------------------------------- primitives

/// Writes one struct as a JSON object, emitting a field only when it
/// differs from its default (or always, with include_defaults) — so saved
/// scenarios read as "what this study changes about the paper setting".
class Writer {
 public:
  explicit Writer(bool include_defaults)
      : all_(include_defaults), j_(util::Json::object()) {}

  template <typename T>
  void field(const char* key, const T& value, const T& def) {
    if (all_ || value != def) j_[key] = util::Json(value);
  }

  void field_u64(const char* key, std::uint64_t value, std::uint64_t def) {
    if (!all_ && value == def) return;
    // Doubles hold integers exactly only up to 2^53; larger seeds (e.g.
    // derive_seed outputs) go through a hex string.
    if (value <= (1ULL << 53)) {
      j_[key] = static_cast<long long>(value);
    } else {
      char buf[19];
      std::snprintf(buf, sizeof(buf), "%llx",
                    static_cast<unsigned long long>(value));
      j_[key] = "0x" + std::string(buf);
    }
  }

  void field_ints(const char* key, const std::vector<int>& value,
                  const std::vector<int>& def) {
    if (!all_ && value == def) return;
    util::Json arr = util::Json::array();
    for (int v : value) arr.push_back(v);
    j_[key] = arr;
  }

  void field_devices(const char* key, const std::vector<cim::DeviceType>& value,
                     const std::vector<cim::DeviceType>& def) {
    if (!all_ && value == def) return;
    util::Json arr = util::Json::array();
    for (cim::DeviceType d : value) arr.push_back(cim::device_name(d));
    j_[key] = arr;
  }

  /// Nested struct; an all-defaults child (empty object) is omitted.
  void child(const char* key, util::Json sub) {
    if (all_ || sub.size() > 0) j_[key] = std::move(sub);
  }

  [[nodiscard]] util::Json take() { return std::move(j_); }

 private:
  bool all_;
  util::Json j_;
};

/// Reads one struct from a JSON object: each getter consumes its key,
/// finish() rejects whatever was not consumed — the unknown-key guarantee.
class Reader {
 public:
  Reader(const util::Json& j, std::string context)
      : context_(std::move(context)) {
    if (!j.is_object()) {
      throw std::invalid_argument(context_ + ": expected a JSON object");
    }
    items_ = j.items();
    consumed_.assign(items_.size(), false);
  }

  void number(const char* key, double& out) {
    if (const util::Json* v = consume(key)) out = v->as_double();
  }

  void integer(const char* key, int& out) {
    if (const util::Json* v = consume(key)) out = static_cast<int>(v->as_int());
  }

  void size(const char* key, std::size_t& out) {
    if (const util::Json* v = consume(key)) {
      const long long raw = v->as_int();
      if (raw < 0) throw std::invalid_argument(context_ + "." + key + ": negative");
      out = static_cast<std::size_t>(raw);
    }
  }

  void boolean(const char* key, bool& out) {
    if (const util::Json* v = consume(key)) out = v->as_bool();
  }

  void str(const char* key, std::string& out) {
    if (const util::Json* v = consume(key)) out = v->as_string();
  }

  void u64(const char* key, std::uint64_t& out) {
    const util::Json* v = consume(key);
    if (!v) return;
    if (v->is_string()) {
      // Strings are hex only with an explicit "0x" prefix (what the writer
      // emits); a quoted decimal like "42" must not silently parse as 0x42.
      const std::string& s = v->as_string();
      std::string_view digits = s;
      int base = 10;
      if (digits.size() > 2 && digits.substr(0, 2) == "0x") {
        digits.remove_prefix(2);
        base = 16;
      }
      std::uint64_t value = 0;
      const auto [ptr, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), value, base);
      if (ec != std::errc() || ptr != digits.data() + digits.size() ||
          digits.empty()) {
        throw std::invalid_argument(context_ + "." + key + ": bad seed \"" +
                                    s + "\"");
      }
      out = value;
    } else {
      const long long raw = v->as_int();
      if (raw < 0) throw std::invalid_argument(context_ + "." + key + ": negative");
      out = static_cast<std::uint64_t>(raw);
    }
  }

  void ints(const char* key, std::vector<int>& out) {
    if (const util::Json* v = consume(key)) {
      if (!v->is_array()) {
        throw std::invalid_argument(context_ + "." + key + ": expected array");
      }
      out.clear();
      for (const util::Json& e : v->elements()) {
        out.push_back(static_cast<int>(e.as_int()));
      }
    }
  }

  void devices(const char* key, std::vector<cim::DeviceType>& out) {
    if (const util::Json* v = consume(key)) {
      if (!v->is_array()) {
        throw std::invalid_argument(context_ + "." + key + ": expected array");
      }
      out.clear();
      for (const util::Json& e : v->elements()) {
        out.push_back(cim::device_from_name(e.as_string()));
      }
    }
  }

  /// Consumes and returns a nested object for a sub-struct parser.
  [[nodiscard]] const util::Json* child(const char* key) { return consume(key); }

  void finish() const {
    std::string keys;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (consumed_[i]) continue;
      if (!keys.empty()) keys += ", ";
      keys += '"' + items_[i].first + '"';
    }
    if (!keys.empty()) {
      throw std::invalid_argument(context_ + ": unknown key(s) " + keys);
    }
  }

 private:
  const util::Json* consume(const char* key) {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (!consumed_[i] && items_[i].first == key) {
        consumed_[i] = true;
        return &items_[i].second;
      }
    }
    return nullptr;
  }

  std::string context_;
  std::vector<std::pair<std::string, util::Json>> items_;
  std::vector<bool> consumed_;
};

// --------------------------------------------------- per-struct round-trip

util::Json backbone_to_json(const nn::BackboneOptions& b, bool all) {
  const nn::BackboneOptions def;
  Writer w(all);
  w.field("input_channels", b.input_channels, def.input_channels);
  w.field("input_size", b.input_size, def.input_size);
  w.field("num_classes", b.num_classes, def.num_classes);
  w.field("hidden", b.hidden, def.hidden);
  w.field_ints("pool_after", b.pool_after, def.pool_after);
  w.field("batch_norm", b.batch_norm, def.batch_norm);
  return w.take();
}

void backbone_from_json(const util::Json& j, nn::BackboneOptions& b,
                        const std::string& ctx) {
  Reader r(j, ctx);
  r.integer("input_channels", b.input_channels);
  r.integer("input_size", b.input_size);
  r.integer("num_classes", b.num_classes);
  r.integer("hidden", b.hidden);
  r.ints("pool_after", b.pool_after);
  r.boolean("batch_norm", b.batch_norm);
  r.finish();
}

util::Json hw_choices_to_json(const cim::HardwareChoices& h, bool all) {
  const cim::HardwareChoices def;
  Writer w(all);
  w.field_devices("devices", h.devices, def.devices);
  w.field_ints("bits_per_cell", h.bits_per_cell, def.bits_per_cell);
  w.field_ints("adc_bits", h.adc_bits, def.adc_bits);
  w.field_ints("xbar_sizes", h.xbar_sizes, def.xbar_sizes);
  w.field_ints("col_mux", h.col_mux, def.col_mux);
  return w.take();
}

void hw_choices_from_json(const util::Json& j, cim::HardwareChoices& h,
                          const std::string& ctx) {
  Reader r(j, ctx);
  r.devices("devices", h.devices);
  r.ints("bits_per_cell", h.bits_per_cell);
  r.ints("adc_bits", h.adc_bits);
  r.ints("xbar_sizes", h.xbar_sizes);
  r.ints("col_mux", h.col_mux);
  r.finish();
}

util::Json space_to_json(const search::SearchSpace::Options& s, bool all) {
  const search::SearchSpace::Options def;
  Writer w(all);
  w.field("conv_layers", s.conv_layers, def.conv_layers);
  w.field_ints("channel_choices", s.channel_choices, def.channel_choices);
  w.field_ints("kernel_choices", s.kernel_choices, def.kernel_choices);
  w.child("hardware", hw_choices_to_json(s.hw, all));
  w.child("backbone", backbone_to_json(s.backbone, all));
  w.field("area_budget_mm2", s.area_budget_mm2, def.area_budget_mm2);
  return w.take();
}

void space_from_json(const util::Json& j, search::SearchSpace::Options& s,
                     const std::string& ctx) {
  Reader r(j, ctx);
  r.integer("conv_layers", s.conv_layers);
  r.ints("channel_choices", s.channel_choices);
  r.ints("kernel_choices", s.kernel_choices);
  if (const util::Json* c = r.child("hardware")) {
    hw_choices_from_json(*c, s.hw, ctx + ".hardware");
  }
  if (const util::Json* c = r.child("backbone")) {
    backbone_from_json(*c, s.backbone, ctx + ".backbone");
  }
  r.number("area_budget_mm2", s.area_budget_mm2);
  r.finish();
}

util::Json accuracy_to_json(const surrogate::AccuracyModel::Options& a, bool all) {
  const surrogate::AccuracyModel::Options def;
  Writer w(all);
  w.field("base", a.base, def.base);
  w.field("amplitude", a.amplitude, def.amplitude);
  w.field("width_coeff", a.width_coeff, def.width_coeff);
  w.field("kernel1_penalty", a.kernel1_penalty, def.kernel1_penalty);
  w.field("kernel5_bonus", a.kernel5_bonus, def.kernel5_bonus);
  w.field("kernel7_bonus", a.kernel7_bonus, def.kernel7_bonus);
  w.field("shrink_penalty", a.shrink_penalty, def.shrink_penalty);
  w.field("jump_penalty", a.jump_penalty, def.jump_penalty);
  w.field("saturation_scale", a.saturation_scale, def.saturation_scale);
  w.field("variation_coeff", a.variation_coeff, def.variation_coeff);
  w.field("injection_recovery", a.injection_recovery, def.injection_recovery);
  w.field("adc_deficit_penalty", a.adc_deficit_penalty, def.adc_deficit_penalty);
  w.field("luck_sigma", a.luck_sigma, def.luck_sigma);
  w.field("floor", a.floor, def.floor);
  w.field_u64("calibration_seed", a.calibration_seed, def.calibration_seed);
  return w.take();
}

void accuracy_from_json(const util::Json& j, surrogate::AccuracyModel::Options& a,
                        const std::string& ctx) {
  Reader r(j, ctx);
  r.number("base", a.base);
  r.number("amplitude", a.amplitude);
  r.number("width_coeff", a.width_coeff);
  r.number("kernel1_penalty", a.kernel1_penalty);
  r.number("kernel5_bonus", a.kernel5_bonus);
  r.number("kernel7_bonus", a.kernel7_bonus);
  r.number("shrink_penalty", a.shrink_penalty);
  r.number("jump_penalty", a.jump_penalty);
  r.number("saturation_scale", a.saturation_scale);
  r.number("variation_coeff", a.variation_coeff);
  r.number("injection_recovery", a.injection_recovery);
  r.number("adc_deficit_penalty", a.adc_deficit_penalty);
  r.number("luck_sigma", a.luck_sigma);
  r.number("floor", a.floor);
  r.u64("calibration_seed", a.calibration_seed);
  r.finish();
}

util::Json cost_model_to_json(const cim::CostModelOptions& c, bool all) {
  const cim::CostModelOptions def;
  Writer w(all);
  w.field("arrays_per_tile", c.arrays_per_tile, def.arrays_per_tile);
  w.field("buffer_kb_per_tile", c.buffer_kb_per_tile, def.buffer_kb_per_tile);
  Writer m(all);
  m.field("input_bits", c.mapper.input_bits, def.mapper.input_bits);
  m.field("max_replication", c.mapper.max_replication, def.mapper.max_replication);
  m.field("replication_area_fraction", c.mapper.replication_area_fraction,
          def.mapper.replication_area_fraction);
  w.child("mapper", m.take());
  return w.take();
}

void cost_model_from_json(const util::Json& j, cim::CostModelOptions& c,
                          const std::string& ctx) {
  Reader r(j, ctx);
  r.integer("arrays_per_tile", c.arrays_per_tile);
  r.integer("buffer_kb_per_tile", c.buffer_kb_per_tile);
  if (const util::Json* m = r.child("mapper")) {
    Reader rm(*m, ctx + ".mapper");
    rm.integer("input_bits", c.mapper.input_bits);
    rm.integer("max_replication", c.mapper.max_replication);
    rm.number("replication_area_fraction", c.mapper.replication_area_fraction);
    rm.finish();
  }
  r.finish();
}

util::Json surrogate_to_json(const SurrogateEvaluator::Options& e, bool all) {
  const SurrogateEvaluator::Options def;
  Writer w(all);
  w.child("accuracy", accuracy_to_json(e.accuracy, all));
  w.child("cost", cost_model_to_json(e.cost, all));
  w.child("backbone", backbone_to_json(e.backbone, all));
  w.field("monte_carlo_samples", e.monte_carlo_samples, def.monte_carlo_samples);
  w.field("write_verify_fraction", e.write_verify_fraction,
          def.write_verify_fraction);
  w.field("write_verify_sigma_scale", e.write_verify_sigma_scale,
          def.write_verify_sigma_scale);
  w.field("write_verify_pulses", e.write_verify_pulses, def.write_verify_pulses);
  return w.take();
}

void surrogate_from_json(const util::Json& j, SurrogateEvaluator::Options& e,
                         const std::string& ctx) {
  Reader r(j, ctx);
  if (const util::Json* c = r.child("accuracy")) {
    accuracy_from_json(*c, e.accuracy, ctx + ".accuracy");
  }
  if (const util::Json* c = r.child("cost")) {
    cost_model_from_json(*c, e.cost, ctx + ".cost");
  }
  if (const util::Json* c = r.child("backbone")) {
    backbone_from_json(*c, e.backbone, ctx + ".backbone");
  }
  r.integer("monte_carlo_samples", e.monte_carlo_samples);
  r.number("write_verify_fraction", e.write_verify_fraction);
  r.number("write_verify_sigma_scale", e.write_verify_sigma_scale);
  r.number("write_verify_pulses", e.write_verify_pulses);
  r.finish();
}

util::Json dataset_to_json(const data::SyntheticCifarOptions& d, bool all) {
  const data::SyntheticCifarOptions def;
  Writer w(all);
  w.field("num_classes", d.num_classes, def.num_classes);
  w.field("image_size", d.image_size, def.image_size);
  w.field("train_per_class", d.train_per_class, def.train_per_class);
  w.field("test_per_class", d.test_per_class, def.test_per_class);
  w.field("noise", d.noise, def.noise);
  w.field("max_shift", d.max_shift, def.max_shift);
  w.field_u64("seed", d.seed, def.seed);
  return w.take();
}

void dataset_from_json(const util::Json& j, data::SyntheticCifarOptions& d,
                       const std::string& ctx) {
  Reader r(j, ctx);
  r.integer("num_classes", d.num_classes);
  r.integer("image_size", d.image_size);
  r.integer("train_per_class", d.train_per_class);
  r.integer("test_per_class", d.test_per_class);
  r.number("noise", d.noise);
  r.integer("max_shift", d.max_shift);
  r.u64("seed", d.seed);
  r.finish();
}

util::Json trained_to_json(const TrainedEvaluator::Options& t, bool all) {
  const TrainedEvaluator::Options def;
  Writer w(all);
  w.child("dataset", dataset_to_json(t.dataset, all));
  w.child("backbone", backbone_to_json(t.backbone, all));
  w.child("cost", cost_model_to_json(t.cost, all));
  w.field("epochs", t.epochs, def.epochs);
  w.field("monte_carlo_samples", t.monte_carlo_samples, def.monte_carlo_samples);
  return w.take();
}

void trained_from_json(const util::Json& j, TrainedEvaluator::Options& t,
                       const std::string& ctx) {
  Reader r(j, ctx);
  if (const util::Json* c = r.child("dataset")) {
    dataset_from_json(*c, t.dataset, ctx + ".dataset");
  }
  if (const util::Json* c = r.child("backbone")) {
    backbone_from_json(*c, t.backbone, ctx + ".backbone");
  }
  if (const util::Json* c = r.child("cost")) {
    cost_model_from_json(*c, t.cost, ctx + ".cost");
  }
  r.integer("epochs", t.epochs);
  r.integer("monte_carlo_samples", t.monte_carlo_samples);
  r.finish();
}

}  // namespace

util::Json config_to_json(const ExperimentConfig& config, bool include_defaults) {
  const ExperimentConfig def;
  Writer w(include_defaults);
  w.field("objective", std::string(llm::objective_name(config.objective)),
          std::string(llm::objective_name(def.objective)));
  w.field("combined_reward", config.combined_reward, def.combined_reward);
  w.field("energy_weight", config.energy_weight, def.energy_weight);
  w.field("latency_weight", config.latency_weight, def.latency_weight);
  w.field("lcda_episodes", config.lcda_episodes, def.lcda_episodes);
  w.field("nacim_episodes", config.nacim_episodes, def.nacim_episodes);
  w.field_u64("seed", config.seed, def.seed);
  w.child("space", space_to_json(config.space, include_defaults));
  w.field("evaluator_kind",
          std::string(evaluator_kind_name(config.evaluator_kind)),
          std::string(evaluator_kind_name(def.evaluator_kind)));
  w.child("evaluator", surrogate_to_json(config.evaluator, include_defaults));
  w.child("trained", trained_to_json(config.trained, include_defaults));
  w.field("parallelism", config.parallelism, def.parallelism);
  w.field("batch_size", config.batch_size, def.batch_size);
  w.field("pipeline_depth", config.pipeline_depth, def.pipeline_depth);
  w.field("cache_evaluations", config.cache_evaluations, def.cache_evaluations);
  w.field("persistent_cache_dir", config.persistent_cache_dir,
          def.persistent_cache_dir);
  w.field("persistent_cache_max_entries", config.persistent_cache_max_entries,
          def.persistent_cache_max_entries);
  w.field("persistent_cache_max_bytes", config.persistent_cache_max_bytes,
          def.persistent_cache_max_bytes);
  w.field("checkpoint_dir", config.checkpoint_dir, def.checkpoint_dir);
  w.field("checkpoint_every", config.checkpoint_every, def.checkpoint_every);
  w.field("resume", config.resume, def.resume);
  return w.take();
}

ExperimentConfig config_from_json(const util::Json& j) {
  ExperimentConfig config;
  Reader r(j, "config");
  std::string objective(llm::objective_name(config.objective));
  r.str("objective", objective);
  config.objective = llm::objective_from_name(objective);
  r.boolean("combined_reward", config.combined_reward);
  r.number("energy_weight", config.energy_weight);
  r.number("latency_weight", config.latency_weight);
  r.integer("lcda_episodes", config.lcda_episodes);
  r.integer("nacim_episodes", config.nacim_episodes);
  r.u64("seed", config.seed);
  if (const util::Json* c = r.child("space")) {
    space_from_json(*c, config.space, "config.space");
  }
  std::string kind(evaluator_kind_name(config.evaluator_kind));
  r.str("evaluator_kind", kind);
  config.evaluator_kind = evaluator_kind_from_name(kind);
  if (const util::Json* c = r.child("evaluator")) {
    surrogate_from_json(*c, config.evaluator, "config.evaluator");
  }
  if (const util::Json* c = r.child("trained")) {
    trained_from_json(*c, config.trained, "config.trained");
  }
  r.integer("parallelism", config.parallelism);
  r.size("batch_size", config.batch_size);
  r.size("pipeline_depth", config.pipeline_depth);
  r.boolean("cache_evaluations", config.cache_evaluations);
  r.str("persistent_cache_dir", config.persistent_cache_dir);
  r.size("persistent_cache_max_entries", config.persistent_cache_max_entries);
  r.size("persistent_cache_max_bytes", config.persistent_cache_max_bytes);
  r.str("checkpoint_dir", config.checkpoint_dir);
  r.integer("checkpoint_every", config.checkpoint_every);
  r.boolean("resume", config.resume);
  r.finish();
  return config;
}

util::Json scenario_to_json(const Scenario& scenario, bool include_defaults) {
  util::Json j = util::Json::object();
  j["name"] = scenario.name;
  j["summary"] = scenario.summary;
  if (include_defaults || !scenario.description.empty()) {
    j["description"] = scenario.description;
  }
  j["default_strategy"] = std::string(strategy_name(scenario.default_strategy));
  j["config"] = config_to_json(scenario.config, include_defaults);
  return j;
}

Scenario scenario_from_json(const util::Json& j) {
  Scenario s;
  Reader r(j, "scenario");
  r.str("name", s.name);
  r.str("summary", s.summary);
  r.str("description", s.description);
  std::string strategy(strategy_name(s.default_strategy));
  r.str("default_strategy", strategy);
  s.default_strategy = strategy_from_name(strategy);
  if (const util::Json* c = r.child("config")) s.config = config_from_json(*c);
  r.finish();
  if (s.name.empty()) {
    throw std::invalid_argument("scenario_from_json: missing \"name\"");
  }
  return s;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_scenario: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return scenario_from_json(util::Json::parse(buffer.str()));
}

void save_scenario(const Scenario& scenario, const std::string& path) {
  write_json_file(scenario_to_json(scenario), path);
}

void apply_override(ExperimentConfig& config, std::string_view key_value) {
  const std::size_t eq = key_value.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw std::invalid_argument("apply_override: expected key=value, got \"" +
                                std::string(key_value) + "\"");
  }
  const std::string path(util::trim(key_value.substr(0, eq)));
  const std::string value(util::trim(key_value.substr(eq + 1)));

  // Edit the full (defaults included) dump, then reload: every legal path
  // exists in the dump, and the reload re-applies all validation.
  util::Json full = config_to_json(config, /*include_defaults=*/true);
  util::Json* cursor = &full;
  const std::vector<std::string> segments = util::split(path, '.');
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (!cursor->contains(segments[i])) {
      throw std::invalid_argument("apply_override: unknown key \"" + path +
                                  "\" (no \"" + segments[i] + "\")");
    }
    cursor = &(*cursor)[segments[i]];
    if (i + 1 < segments.size() && !cursor->is_object()) {
      throw std::invalid_argument("apply_override: \"" + segments[i] +
                                  "\" in \"" + path + "\" is not an object");
    }
  }

  util::Json parsed;
  try {
    parsed = util::Json::parse(value);
  } catch (const std::runtime_error&) {
    parsed = util::Json(value);  // bare strings: objective=latency
  }
  *cursor = std::move(parsed);
  config = config_from_json(full);
}

// ------------------------------------------------------------------ registry

namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, Scenario>& registry() {
  static std::map<std::string, Scenario> r;
  return r;
}

void register_locked(Scenario s) {
  if (s.name.empty()) {
    throw std::invalid_argument("register_scenario: empty name");
  }
  if (!registry().emplace(s.name, s).second) {
    throw std::invalid_argument("register_scenario: duplicate scenario \"" +
                                s.name + "\"");
  }
}

/// Loads and registers every *.json in `directory`, in file-name order.
/// Used by both the public register_scenarios_from and the
/// LCDA_SCENARIO_DIR autoload inside registry initialization (which must
/// not re-enter ensure_builtins, hence the separate entry point).
///
/// All-or-nothing: every file is loaded and every name checked for
/// collisions BEFORE anything is registered, so a failure (malformed
/// third file, duplicate name) leaves the registry untouched and a retry
/// reports the same real error instead of colliding with a half-registered
/// batch.
std::vector<std::string> register_directory(const std::string& directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(directory, ec);
  if (ec) {
    throw std::runtime_error("register_scenarios_from: cannot read \"" +
                             directory + "\": " + ec.message());
  }
  std::vector<fs::path> files;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  std::vector<Scenario> loaded;
  loaded.reserve(files.size());
  for (const fs::path& file : files) {
    loaded.push_back(load_scenario(file.string()));
  }

  // Re-registering a byte-identical definition is a no-op (so an
  // LCDA_SCENARIO_DIR autoload followed by an explicit --scenario-dir of
  // the same directory is harmless); only a CONFLICTING definition under
  // a taken name is an error.
  const auto same_definition = [](const Scenario& a, const Scenario& b) {
    return scenario_to_json(a, /*include_defaults=*/true).dump() ==
           scenario_to_json(b, /*include_defaults=*/true).dump();
  };

  std::vector<std::string> names;
  names.reserve(loaded.size());
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<bool> skip(loaded.size(), false);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const std::string& name = loaded[i].name;
    if (auto it = registry().find(name); it != registry().end()) {
      if (!same_definition(loaded[i], it->second)) {
        throw std::invalid_argument("register_scenarios_from: " +
                                    files[i].string() +
                                    " conflicts with registered scenario \"" +
                                    name + "\"");
      }
      skip[i] = true;
      continue;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (!skip[j] && loaded[j].name == name) {
        throw std::invalid_argument("register_scenarios_from: " +
                                    files[i].string() + " and " +
                                    files[j].string() +
                                    " both define scenario \"" + name + "\"");
      }
    }
  }
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    if (skip[i]) continue;
    names.push_back(loaded[i].name);
    register_locked(std::move(loaded[i]));
  }
  return names;
}

/// The built-in catalog. The four paper scenarios reproduce Sec. IV
/// bit-for-bit; the rest open new workloads on the same engine (README
/// "Scenario catalog" documents each).
void register_builtins();

void ensure_builtins() {
  // Two separate once-flags: register_builtins cannot fail, but the
  // LCDA_SCENARIO_DIR autoload can (malformed file, unreadable dir). A
  // failed call_once leaves its flag unset, so the autoload is retried on
  // the next registry access — and because register_directory is
  // all-or-nothing, the retry reports the same real error instead of
  // colliding with a half-registered batch or re-running the builtins.
  static std::once_flag builtins_once;
  std::call_once(builtins_once, register_builtins);

  // Drop-in scenario files: a directory named by LCDA_SCENARIO_DIR is
  // loaded right after the built-ins, so every registry consumer (CLI,
  // benches, examples) sees its scenarios without code changes. Errors
  // propagate: a broken scenario file fails the registry access loudly
  // instead of silently vanishing from --list.
  static std::once_flag autoload_once;
  std::call_once(autoload_once, [] {
    if (const char* dir = std::getenv("LCDA_SCENARIO_DIR");
        dir != nullptr && *dir != '\0') {
      (void)register_directory(dir);
    }
  });
}

void register_builtins() {
  std::lock_guard<std::mutex> lock(registry_mutex());

  {
    Scenario s;
    s.name = "paper-energy";
    s.summary = "the paper's Sec. IV-A accuracy-energy study (Figs. 2-3, "
                "Table 1): NACIM space, surrogate evaluator, reward Eq. (1)";
    s.description =
        "Reproduces the headline result: GPT-4-guided co-design search over "
        "the NACIM network/hardware space, maximizing accuracy with an "
        "inference-energy term, 20 LCDA vs 500 NACIM-RL episodes.";
    s.default_strategy = Strategy::kLcda;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "paper-latency";
    s.summary = "the paper's Sec. IV-B accuracy-latency study (Fig. 4), "
                "where GPT-4's kernel priors mislead it: reward Eq. (2)";
    s.description =
        "Same space and engine as paper-energy but rewarding frames per "
        "second; the simulated LLM's GPU-shaped kernel intuitions hurt "
        "here, which is the paper's motivation for fine-tuning.";
    s.default_strategy = Strategy::kLcda;
    s.config.objective = llm::Objective::kLatency;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "naive";
    s.summary = "the paper's Sec. IV-C prompt ablation (Fig. 5): the same "
                "energy study driven without any co-design context";
    s.description =
        "Ablates the prompt: the LLM is asked for designs without being "
        "told it is co-designing CiM hardware, isolating how much of the "
        "speedup comes from domain framing.";
    s.default_strategy = Strategy::kLcdaNaive;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "finetuned";
    s.summary = "the paper's unfulfilled future-work point: the latency "
                "study with corrected CiM kernel priors";
    s.description =
        "What Sec. IV-B's fine-tuning would buy: the latency study rerun "
        "with a simulated LLM whose kernel-size priors match CiM crossbar "
        "economics instead of GPU folklore.";
    s.default_strategy = Strategy::kLcdaFinetuned;
    s.config.objective = llm::Objective::kLatency;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "tight-area";
    s.summary = "edge-class 20 mm^2 area budget: most of the space is "
                "invalid, stressing validity handling and -1 rewards";
    s.description =
        "Shrinks the silicon budget until most candidate chips are "
        "infeasible, so the search spends its episodes learning the "
        "validity boundary rather than polishing a reward.";
    s.default_strategy = Strategy::kLcda;
    s.config.space.area_budget_mm2 = 20.0;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "high-variation";
    s.summary = "RRAM-only devices at 2x variation sensitivity, rescued by "
                "SWIM-style selective write-verify on 25% of weights";
    s.description =
        "Doubles device-variation sensitivity on an RRAM-only space and "
        "turns on selective write-verify for the most sensitive quarter of "
        "the weights — the noise-robustness workload.";
    s.default_strategy = Strategy::kLcda;
    s.config.space.hw.devices = {cim::DeviceType::kRram};
    s.config.evaluator.accuracy.variation_coeff = 2.0;
    s.config.evaluator.write_verify_fraction = 0.25;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "deep-backbone";
    s.summary = "an 8-conv-layer backbone (pool after stages 2/4/6/8): a "
                "larger space where channel scheduling matters more";
    s.description =
        "Doubles the network depth (and the LCDA budget to 30 episodes): "
        "the design space grows combinatorially and per-stage channel "
        "scheduling dominates the reward.";
    s.default_strategy = Strategy::kLcda;
    s.config.space.conv_layers = 8;
    s.config.space.backbone.pool_after = {1, 3, 5, 7};
    s.config.evaluator.backbone.pool_after = {1, 3, 5, 7};
    s.config.lcda_episodes = 30;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "multi-objective";
    s.summary = "accuracy/energy/latency combined reward (Eq. 1's energy "
                "term plus Eq. 2's FPS term); NSGA-II by default";
    s.description =
        "Optimizes accuracy, energy and latency at once through the "
        "combined reward; NSGA-II drives it by default so the result is a "
        "Pareto front rather than a single champion.";
    s.default_strategy = Strategy::kNsga2;
    s.config.combined_reward = true;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "trained-small";
    s.summary = "the faithful train-then-Monte-Carlo evaluator on a "
                "reduced 16x16/6-class dataset and a 4-layer space";
    s.description =
        "Swaps the calibrated surrogate for the real pipeline — train each "
        "candidate, then Monte-Carlo its accuracy under device noise — on "
        "a dataset small enough to keep a study interactive.";
    s.default_strategy = Strategy::kLcda;
    s.config.evaluator_kind = EvaluatorKind::kTrained;
    s.config.lcda_episodes = 5;
    s.config.nacim_episodes = 10;
    s.config.space.conv_layers = 4;
    s.config.space.channel_choices = {16, 24, 32, 48, 64};
    s.config.space.kernel_choices = {1, 3, 5};
    nn::BackboneOptions backbone;
    backbone.input_size = 16;
    backbone.num_classes = 6;
    backbone.hidden = 64;
    backbone.pool_after = {0, 2};
    s.config.space.backbone = backbone;
    s.config.trained.backbone = backbone;
    s.config.trained.dataset.image_size = 16;
    s.config.trained.dataset.num_classes = 6;
    s.config.trained.dataset.train_per_class = 40;
    s.config.trained.dataset.test_per_class = 16;
    s.config.trained.dataset.seed = 11;
    s.config.trained.epochs = 3;
    s.config.trained.monte_carlo_samples = 4;
    register_locked(s);
  }
}

}  // namespace

void register_scenario(Scenario scenario) {
  ensure_builtins();
  std::lock_guard<std::mutex> lock(registry_mutex());
  register_locked(std::move(scenario));
}

std::vector<std::string> register_scenarios_from(const std::string& directory) {
  ensure_builtins();
  return register_directory(directory);
}

Scenario scenario_by_name(std::string_view name) {
  ensure_builtins();
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(std::string(name));
  if (it == registry().end()) {
    std::string known;
    for (const auto& [key, value] : registry()) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw std::invalid_argument("scenario_by_name: unknown scenario \"" +
                                std::string(name) + "\" (known: " + known + ")");
  }
  return it->second;
}

std::vector<std::string> list_scenarios() {
  ensure_builtins();
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [key, value] : registry()) names.push_back(key);
  return names;
}

std::uint64_t study_fingerprint(const ExperimentConfig& config,
                                Strategy strategy, int episodes) {
  // Engine knobs that provably never change a trace, and the *default*
  // budgets (run_strategy takes the real count as a parameter), are
  // normalized out so equivalent studies share cache files. The actual
  // episode count stays in: a batched optimizer's final batch truncates
  // at the budget, so a shorter run's RNG stream is not a prefix of a
  // longer one's and the entries must not be shared.
  ExperimentConfig canon = config;
  const ExperimentConfig def;
  canon.parallelism = def.parallelism;
  canon.pipeline_depth = def.pipeline_depth;
  canon.cache_evaluations = def.cache_evaluations;
  canon.persistent_cache_dir = def.persistent_cache_dir;
  canon.persistent_cache_max_entries = def.persistent_cache_max_entries;
  canon.persistent_cache_max_bytes = def.persistent_cache_max_bytes;
  canon.lcda_episodes = def.lcda_episodes;
  canon.nacim_episodes = def.nacim_episodes;
  // The checkpoint knobs are engine knobs too, and they postdate the v1
  // flat-JSON cache, whose file names this fingerprint still reproduces
  // (store migration): they are left out of the hashed text entirely.
  util::Json hashed = util::Json::object();
  for (const auto& [key, value] :
       config_to_json(canon, /*include_defaults=*/true).items()) {
    if (key != "checkpoint_dir" && key != "checkpoint_every" && key != "resume") {
      hashed[key] = value;
    }
  }
  const std::string text = std::string(strategy_name(strategy)) + '/' +
                           std::to_string(episodes) + '\n' + hashed.dump();
  return util::fnv1a64(text);
}

std::uint64_t evaluation_fingerprint(const ExperimentConfig& config) {
  // The study fingerprint's canonicalization, additionally normalizing the
  // stream-shaping knobs (seed, batch size) and dropping strategy/episodes
  // entirely: what remains — space, evaluator kind and options, noise and
  // write-verify settings, reward shape — is exactly what determines an
  // Evaluation's deterministic part, so sibling studies of a sweep land in
  // one shared namespace. The tag keeps this hash disjoint from
  // study_fingerprint's for identical configs.
  ExperimentConfig canon = config;
  const ExperimentConfig def;
  canon.parallelism = def.parallelism;
  canon.pipeline_depth = def.pipeline_depth;
  canon.cache_evaluations = def.cache_evaluations;
  canon.persistent_cache_dir = def.persistent_cache_dir;
  canon.persistent_cache_max_entries = def.persistent_cache_max_entries;
  canon.persistent_cache_max_bytes = def.persistent_cache_max_bytes;
  canon.lcda_episodes = def.lcda_episodes;
  canon.nacim_episodes = def.nacim_episodes;
  canon.checkpoint_dir = def.checkpoint_dir;
  canon.checkpoint_every = def.checkpoint_every;
  canon.resume = def.resume;
  canon.seed = def.seed;
  canon.batch_size = def.batch_size;
  const std::string text =
      "lcda-eval-identity-v1\n" +
      config_to_json(canon, /*include_defaults=*/true).dump();
  return util::fnv1a64(text);
}

std::uint64_t stream_fingerprint(const ExperimentConfig& config,
                                 Strategy strategy, int episodes) {
  // Everything evaluation_fingerprint normalized away: together the two
  // halves key what study_fingerprint keys, so (eval, stream) equality is
  // the v1 full-hit condition and eval-only equality is the legal sharing
  // condition.
  const std::string text = "lcda-stream-identity-v1\n" +
                           std::string(strategy_name(strategy)) + '/' +
                           std::to_string(episodes) + '/' +
                           std::to_string(config.seed) + '/' +
                           std::to_string(config.batch_size);
  return util::fnv1a64(text);
}

}  // namespace lcda::core
