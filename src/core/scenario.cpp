#include "lcda/core/scenario.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "lcda/core/report.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

namespace lcda::core {

namespace {

// ------------------------------------------------------------ value codecs
//
// How one member's value is written and read. A value of the wrong JSON
// type, or an integer its member cannot hold, fails naming the key path.

template <class E>
using NameOf = std::string_view (*)(E);
template <class E>
using FromName = E (*)(std::string_view);

template <class M>
util::Json encode(const M& value) {
  return util::Json(value);
}

util::Json encode(const std::vector<int>& value) {
  util::Json arr = util::Json::array();
  for (int v : value) arr.push_back(v);
  return arr;
}

/// Doubles hold every integer below 2^53 exactly; from 2^53 up the JSON
/// parser may already have rounded a decimal (9007199254740993 reads as
/// ...992). Seeds and sizes from 2^53 up therefore go through a "0x" hex
/// string, and a decimal number there is refused rather than trusted.
constexpr std::uint64_t kFirstInexact = 1ULL << 53;

util::Json encode_u64(std::uint64_t value) {
  if (value < kFirstInexact) return static_cast<long long>(value);
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(value));
  return "0x" + std::string(buf);
}

util::Json encode(std::size_t value) { return encode_u64(value); }

template <class E>
util::Json encode_named(E value, NameOf<E> name) {
  return std::string(name(value));
}

template <class E>
util::Json encode_named(const std::vector<E>& value, NameOf<E> name) {
  util::Json arr = util::Json::array();
  for (E v : value) arr.push_back(name(v));
  return arr;
}

// Decoders throw std::logic_error (as Json's typed accessors do) with the
// bare problem; Reader prefixes the key path.

void decode(const util::Json& v, double& out) { out = v.as_double(); }
void decode(const util::Json& v, bool& out) { out = v.as_bool(); }
void decode(const util::Json& v, std::string& out) { out = v.as_string(); }

void decode(const util::Json& v, int& out) {
  const long long raw = v.as_int();
  if (raw < std::numeric_limits<int>::min() ||
      raw > std::numeric_limits<int>::max()) {
    throw std::logic_error("out of range");
  }
  out = static_cast<int>(raw);
}

std::vector<util::Json> elements(const util::Json& v) {
  if (!v.is_array()) throw std::logic_error("expected array");
  return v.elements();
}

void decode(const util::Json& v, std::vector<int>& out) {
  out.clear();
  for (const util::Json& e : elements(v)) decode(e, out.emplace_back());
}

/// A non-negative integer: a JSON number below 2^53, or a string holding a
/// "0x"-prefixed hex or a plain decimal number (exact at any size). `what`
/// names the value in the error for a bad string.
std::uint64_t decode_u64(const util::Json& v, const char* what) {
  if (!v.is_string()) {
    if (v.as_double() >= static_cast<double>(kFirstInexact)) {
      throw std::logic_error(
          "a decimal number of 2^53 or more may already be rounded; write "
          "it as a \"0x\"-prefixed hex string");
    }
    const long long raw = v.as_int();
    if (raw < 0) throw std::logic_error("negative");
    return static_cast<std::uint64_t>(raw);
  }
  // Strings are hex only with an explicit "0x" prefix (what the writer
  // emits); a quoted decimal like "42" must not silently parse as 0x42.
  const std::string& s = v.as_string();
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
    throw std::logic_error("bad " + std::string(what) + " \"" + s + "\"");
  }
  return value;
}

void decode(const util::Json& v, std::size_t& out) {
  out = decode_u64(v, "integer");
}

template <class E>
void decode_named(const util::Json& v, E& out, FromName<E> from) {
  out = from(v.as_string());
}

template <class E>
void decode_named(const util::Json& v, std::vector<E>& out, FromName<E> from) {
  out.clear();
  for (const util::Json& e : elements(v)) decode_named(e, out.emplace_back(), from);
}

// ---------------------------------------------------------- struct codecs
//
// Each config struct names its fields once, in `fields(io)` below; the
// same list drives the Writer and the Reader, so a key cannot be written
// under one name and read under another.

template <class T>
util::Json write(const T& value, const T& def, bool all);
template <class T>
void read(const util::Json& j, T& out, const std::string& context);

/// Writes one struct as a JSON object, emitting a field only when it
/// differs from its default (or always, with include_defaults) — so saved
/// scenarios read as "what this study changes about the paper setting".
template <class T>
class Writer {
 public:
  Writer(const T& value, const T& def, bool all)
      : value_(value), def_(def), all_(all) {}

  template <class M>
  void field(const char* key, M T::*m) {
    if (changed(m)) j_[key] = encode(value_.*m);
  }

  void seed(const char* key, std::uint64_t T::*m) {
    if (changed(m)) j_[key] = encode_u64(value_.*m);
  }

  /// An enum, or a list of them, written by name.
  template <class M, class E>
  void named(const char* key, M T::*m, NameOf<E> name, FromName<E>) {
    if (changed(m)) j_[key] = encode_named(value_.*m, name);
  }

  /// Nested struct; an all-defaults child (empty object) is omitted.
  template <class C>
  void child(const char* key, C T::*m) {
    util::Json sub = write(value_.*m, def_.*m, all_);
    if (all_ || sub.size() > 0) j_[key] = std::move(sub);
  }

  [[nodiscard]] util::Json take() { return std::move(j_); }

 private:
  template <class M>
  bool changed(M T::*m) const {
    return all_ || value_.*m != def_.*m;
  }

  const T& value_;
  const T& def_;
  bool all_;
  util::Json j_ = util::Json::object();
};

/// Reads one struct from a JSON object: each field consumes its key,
/// finish() rejects whatever was not consumed — the unknown-key guarantee.
template <class T>
class Reader {
 public:
  Reader(const util::Json& j, T& out, std::string context)
      : out_(out), context_(std::move(context)) {
    if (!j.is_object()) {
      throw std::invalid_argument(context_ + ": expected a JSON object");
    }
    items_ = j.items();
    consumed_.assign(items_.size(), false);
  }

  template <class M>
  void field(const char* key, M T::*m) {
    decode_at(key, [&](const util::Json& v) { decode(v, out_.*m); });
  }

  void seed(const char* key, std::uint64_t T::*m) {
    decode_at(key, [&](const util::Json& v) { out_.*m = decode_u64(v, "seed"); });
  }

  template <class M, class E>
  void named(const char* key, M T::*m, NameOf<E>, FromName<E> from) {
    decode_at(key, [&](const util::Json& v) { decode_named(v, out_.*m, from); });
  }

  template <class C>
  void child(const char* key, C T::*m) {
    if (const util::Json* v = consume(key)) read(*v, out_.*m, path(key));
  }

  /// Marks `key` read and returns its value (nullptr when absent).
  const util::Json* consume(const char* key) {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (!consumed_[i] && items_[i].first == key) {
        consumed_[i] = true;
        return &items_[i].second;
      }
    }
    return nullptr;
  }

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
  std::string path(const char* key) const { return context_ + "." + key; }

  /// Decodes `key` when present. A decoder's std::logic_error gains the
  /// key path; a name lookup's std::invalid_argument passes unchanged.
  template <class Decode>
  void decode_at(const char* key, Decode read_value) {
    const util::Json* v = consume(key);
    if (!v) return;
    try {
      read_value(*v);
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::logic_error& e) {
      throw std::invalid_argument(path(key) + ": " + e.what());
    }
  }

  T& out_;
  std::string context_;
  std::vector<std::pair<std::string, util::Json>> items_;
  std::vector<bool> consumed_;
};

// ------------------------------------------------------------- field lists
//
// One line per JSON key, in the order keys are written and read.

template <template <class> class Io>
void fields(Io<nn::BackboneOptions>& io) {
  using T = nn::BackboneOptions;
  io.field("input_channels", &T::input_channels);
  io.field("input_size", &T::input_size);
  io.field("num_classes", &T::num_classes);
  io.field("hidden", &T::hidden);
  io.field("pool_after", &T::pool_after);
  io.field("batch_norm", &T::batch_norm);
}

template <template <class> class Io>
void fields(Io<cim::HardwareChoices>& io) {
  using T = cim::HardwareChoices;
  io.named("devices", &T::devices, cim::device_name, cim::device_from_name);
  io.field("bits_per_cell", &T::bits_per_cell);
  io.field("adc_bits", &T::adc_bits);
  io.field("xbar_sizes", &T::xbar_sizes);
  io.field("col_mux", &T::col_mux);
}

template <template <class> class Io>
void fields(Io<search::SearchSpace::Options>& io) {
  using T = search::SearchSpace::Options;
  io.field("conv_layers", &T::conv_layers);
  io.field("channel_choices", &T::channel_choices);
  io.field("kernel_choices", &T::kernel_choices);
  io.child("hardware", &T::hw);
  io.child("backbone", &T::backbone);
  io.field("area_budget_mm2", &T::area_budget_mm2);
}

template <template <class> class Io>
void fields(Io<surrogate::AccuracyModel::Options>& io) {
  using T = surrogate::AccuracyModel::Options;
  io.field("base", &T::base);
  io.field("amplitude", &T::amplitude);
  io.field("width_coeff", &T::width_coeff);
  io.field("kernel1_penalty", &T::kernel1_penalty);
  io.field("kernel5_bonus", &T::kernel5_bonus);
  io.field("kernel7_bonus", &T::kernel7_bonus);
  io.field("shrink_penalty", &T::shrink_penalty);
  io.field("jump_penalty", &T::jump_penalty);
  io.field("saturation_scale", &T::saturation_scale);
  io.field("variation_coeff", &T::variation_coeff);
  io.field("injection_recovery", &T::injection_recovery);
  io.field("adc_deficit_penalty", &T::adc_deficit_penalty);
  io.field("luck_sigma", &T::luck_sigma);
  io.field("floor", &T::floor);
  io.seed("calibration_seed", &T::calibration_seed);
}

template <template <class> class Io>
void fields(Io<cim::MapperOptions>& io) {
  using T = cim::MapperOptions;
  io.field("input_bits", &T::input_bits);
  io.field("max_replication", &T::max_replication);
  io.field("replication_area_fraction", &T::replication_area_fraction);
}

template <template <class> class Io>
void fields(Io<cim::CostModelOptions>& io) {
  using T = cim::CostModelOptions;
  io.field("arrays_per_tile", &T::arrays_per_tile);
  io.field("buffer_kb_per_tile", &T::buffer_kb_per_tile);
  io.child("mapper", &T::mapper);
}

template <template <class> class Io>
void fields(Io<SurrogateEvaluator::Options>& io) {
  using T = SurrogateEvaluator::Options;
  io.child("accuracy", &T::accuracy);
  io.child("cost", &T::cost);
  io.child("backbone", &T::backbone);
  io.field("monte_carlo_samples", &T::monte_carlo_samples);
  io.field("write_verify_fraction", &T::write_verify_fraction);
  io.field("write_verify_sigma_scale", &T::write_verify_sigma_scale);
  io.field("write_verify_pulses", &T::write_verify_pulses);
}

template <template <class> class Io>
void fields(Io<data::SyntheticCifarOptions>& io) {
  using T = data::SyntheticCifarOptions;
  io.field("num_classes", &T::num_classes);
  io.field("image_size", &T::image_size);
  io.field("train_per_class", &T::train_per_class);
  io.field("test_per_class", &T::test_per_class);
  io.field("noise", &T::noise);
  io.field("max_shift", &T::max_shift);
  io.seed("seed", &T::seed);
}

template <template <class> class Io>
void fields(Io<TrainedEvaluator::Options>& io) {
  using T = TrainedEvaluator::Options;
  io.child("dataset", &T::dataset);
  io.child("backbone", &T::backbone);
  io.child("cost", &T::cost);
  io.field("epochs", &T::epochs);
  io.field("monte_carlo_samples", &T::monte_carlo_samples);
}

template <template <class> class Io>
void fields(Io<ExperimentConfig>& io) {
  using T = ExperimentConfig;
  io.named("objective", &T::objective, llm::objective_name,
           llm::objective_from_name);
  io.field("combined_reward", &T::combined_reward);
  io.field("energy_weight", &T::energy_weight);
  io.field("latency_weight", &T::latency_weight);
  io.field("lcda_episodes", &T::lcda_episodes);
  io.field("nacim_episodes", &T::nacim_episodes);
  io.seed("seed", &T::seed);
  io.child("space", &T::space);
  io.named("evaluator_kind", &T::evaluator_kind, evaluator_kind_name,
           evaluator_kind_from_name);
  io.child("evaluator", &T::evaluator);
  io.child("trained", &T::trained);
  io.field("parallelism", &T::parallelism);
  io.field("batch_size", &T::batch_size);
  io.field("pipeline_depth", &T::pipeline_depth);
  io.field("cache_evaluations", &T::cache_evaluations);
  io.field("persistent_cache_dir", &T::persistent_cache_dir);
  io.field("persistent_cache_max_entries", &T::persistent_cache_max_entries);
  io.field("persistent_cache_max_bytes", &T::persistent_cache_max_bytes);
  io.field("checkpoint_dir", &T::checkpoint_dir);
  io.field("checkpoint_every", &T::checkpoint_every);
  io.field("resume", &T::resume);
}

template <class T>
util::Json write(const T& value, const T& def, bool all) {
  Writer<T> w(value, def, all);
  fields(w);
  return w.take();
}

template <class T>
void read(const util::Json& j, T& out, const std::string& context) {
  Reader<T> r(j, out, context);
  fields(r);
  r.finish();
}

}  // namespace

util::Json config_to_json(const ExperimentConfig& config, bool include_defaults) {
  return write(config, ExperimentConfig{}, include_defaults);
}

ExperimentConfig config_from_json(const util::Json& j) {
  ExperimentConfig config;
  read(j, config, "config");
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
  Reader<Scenario> r(j, s, "scenario");
  r.field("name", &Scenario::name);
  r.field("summary", &Scenario::summary);
  r.field("description", &Scenario::description);
  r.named("default_strategy", &Scenario::default_strategy, strategy_name,
          strategy_from_name);
  if (const util::Json* c = r.consume("config")) s.config = config_from_json(*c);
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

namespace {

/// `config` without the engine knobs that provably never change a trace,
/// and with the *default* budgets (run_strategy takes the real count as a
/// parameter): the normalization both fingerprints start from.
ExperimentConfig without_engine_knobs(ExperimentConfig config) {
  const ExperimentConfig def;
  config.parallelism = def.parallelism;
  config.pipeline_depth = def.pipeline_depth;
  config.cache_evaluations = def.cache_evaluations;
  config.persistent_cache_dir = def.persistent_cache_dir;
  config.persistent_cache_max_entries = def.persistent_cache_max_entries;
  config.persistent_cache_max_bytes = def.persistent_cache_max_bytes;
  config.lcda_episodes = def.lcda_episodes;
  config.nacim_episodes = def.nacim_episodes;
  return config;
}

}  // namespace

std::uint64_t study_fingerprint(const ExperimentConfig& config,
                                Strategy strategy, int episodes) {
  // Equivalent studies share cache files. The actual episode count stays
  // in: a batched optimizer's final batch truncates at the budget, so a
  // shorter run's RNG stream is not a prefix of a longer one's and the
  // entries must not be shared.
  // The checkpoint knobs are engine knobs too, and they postdate the v1
  // flat-JSON cache, whose file names this fingerprint still reproduces
  // (store migration): they are left out of the hashed text entirely.
  // Their keys are the ones a config that changes only them writes.
  ExperimentConfig checkpointed;
  checkpointed.checkpoint_dir = "-";
  checkpointed.checkpoint_every += 1;
  checkpointed.resume = !checkpointed.resume;
  const util::Json checkpoint_keys = config_to_json(checkpointed);
  util::Json hashed = util::Json::object();
  for (const auto& [key, value] :
       config_to_json(without_engine_knobs(config), /*include_defaults=*/true)
           .items()) {
    if (!checkpoint_keys.contains(key)) hashed[key] = value;
  }
  const std::string text = std::string(strategy_name(strategy)) + '/' +
                           std::to_string(episodes) + '\n' + hashed.dump();
  return util::fnv1a64(text);
}

std::uint64_t evaluation_fingerprint(const ExperimentConfig& config) {
  // The study fingerprint's canonicalization, additionally normalizing the
  // checkpoint knobs and the stream-shaping knobs (seed, batch size) and
  // dropping strategy/episodes entirely: what remains — space, evaluator
  // kind and options, noise and write-verify settings, reward shape — is
  // exactly what determines an Evaluation's deterministic part, so sibling
  // studies of a sweep land in one shared namespace. The tag keeps this
  // hash disjoint from study_fingerprint's for identical configs.
  ExperimentConfig canon = without_engine_knobs(config);
  const ExperimentConfig def;
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
