// Scenario registry, ExperimentConfig serialization, and the run-level
// behaviour of the persistent evaluation store: the contracts behind
// `lcda_run` and the data-driven benches. (Store internals — segments,
// budgets, corruption recovery, migration — live in store_test.)
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "lcda/core/scenario.h"
#include "lcda/core/report.h"
#include "lcda/noise/write_verify.h"
#include "lcda/util/strings.h"

namespace {

using namespace lcda;

std::string canonical(const core::ExperimentConfig& config) {
  return core::config_to_json(config, /*include_defaults=*/true).dump();
}

/// Episode trace only — cache counters legitimately differ between a cold
/// and a warm run of the same study.
std::string trace_text(const core::RunResult& run) {
  return core::run_to_json(run, "run").at("trace").dump();
}

/// A unique fresh temp directory per test.
std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("lcda_scenario_test_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ------------------------------------------------------- config round-trip

TEST(ConfigJson, DefaultConfigSerializesEmpty) {
  const core::ExperimentConfig def;
  EXPECT_EQ(core::config_to_json(def).dump(), "{}");
}

TEST(ConfigJson, NonDefaultFieldsSurviveRoundTrip) {
  core::ExperimentConfig config;
  config.objective = llm::Objective::kLatency;
  config.combined_reward = true;
  config.latency_weight = 0.5;
  config.lcda_episodes = 7;
  config.seed = 99;
  config.space.conv_layers = 4;
  config.space.channel_choices = {8, 16};
  config.space.hw.devices = {cim::DeviceType::kFefet, cim::DeviceType::kSram};
  config.space.area_budget_mm2 = 12.5;
  config.space.backbone.pool_after = {0, 2};
  config.evaluator.monte_carlo_samples = 3;
  config.evaluator.accuracy.variation_coeff = 1.75;
  config.evaluator.write_verify_fraction = 0.2;
  config.evaluator_kind = core::EvaluatorKind::kTrained;
  config.trained.dataset.image_size = 16;
  config.trained.epochs = 2;
  config.batch_size = 8;
  config.cache_evaluations = false;
  config.persistent_cache_dir = "/tmp/cache";

  const util::Json sparse = core::config_to_json(config);
  const core::ExperimentConfig back = core::config_from_json(sparse);
  EXPECT_EQ(canonical(back), canonical(config));

  // The sparse form names only what changed.
  EXPECT_FALSE(sparse.contains("nacim_episodes"));
  EXPECT_FALSE(sparse.at("space").contains("kernel_choices"));
}

TEST(ConfigJson, FullDumpRoundTripsToo) {
  core::ExperimentConfig config;
  config.space.conv_layers = 5;
  const core::ExperimentConfig back =
      core::config_from_json(core::config_to_json(config, true));
  EXPECT_EQ(canonical(back), canonical(config));
}

/// A scenario in which every header key and every config field holds a
/// value other than its default.
core::Scenario every_field_changed() {
  core::Scenario s;
  s.name = "every-field";
  s.summary = "each key set";
  s.description = "pins the full encoding";
  s.default_strategy = core::Strategy::kNsga2;
  core::ExperimentConfig& c = s.config;
  c.objective = llm::Objective::kLatency;
  c.combined_reward = true;
  c.energy_weight = 0.25;
  c.latency_weight = 1.5;
  c.lcda_episodes = 21;
  c.nacim_episodes = 501;
  c.seed = 0xdeadbeefcafef00dULL;  // > 2^53: the hex-string form
  c.space.conv_layers = 5;
  c.space.channel_choices = {8, 16};
  c.space.kernel_choices = {3};
  c.space.hw.devices = {cim::DeviceType::kSram, cim::DeviceType::kFefet};
  c.space.hw.bits_per_cell = {2};
  c.space.hw.adc_bits = {6, 8};
  c.space.hw.xbar_sizes = {128};
  c.space.hw.col_mux = {8};
  const auto change_backbone = [](nn::BackboneOptions& b, int hidden) {
    b.input_channels = 1;
    b.input_size = 28;
    b.num_classes = 7;
    b.hidden = hidden;
    b.pool_after = {0, 2};
    b.batch_norm = true;
  };
  const auto change_cost = [](cim::CostModelOptions& cost, int arrays) {
    cost.arrays_per_tile = arrays;
    cost.buffer_kb_per_tile = 32;
    cost.mapper.input_bits = 4;
    cost.mapper.max_replication = 2;
    cost.mapper.replication_area_fraction = 0.5;
  };
  change_backbone(c.space.backbone, 512);
  c.space.area_budget_mm2 = 33.5;
  surrogate::AccuracyModel::Options& a = c.evaluator.accuracy;
  a.base += 0.01;
  a.amplitude += 0.01;
  a.width_coeff += 0.01;
  a.kernel1_penalty += 0.01;
  a.kernel5_bonus += 0.01;
  a.kernel7_bonus += 0.01;
  a.shrink_penalty += 0.01;
  a.jump_penalty += 0.01;
  a.saturation_scale += 0.01;
  a.variation_coeff += 0.01;
  a.injection_recovery += 0.01;
  a.adc_deficit_penalty += 0.01;
  a.luck_sigma += 0.01;
  a.floor += 0.01;
  a.calibration_seed = 7;
  change_cost(c.evaluator.cost, 8);
  change_backbone(c.evaluator.backbone, 256);
  c.evaluator.monte_carlo_samples = 3;
  c.evaluator.write_verify_fraction = 0.2;
  c.evaluator.write_verify_sigma_scale = 0.3;
  c.evaluator.write_verify_pulses = 4.0;
  c.evaluator_kind = core::EvaluatorKind::kTrained;
  c.trained.dataset.num_classes = 4;
  c.trained.dataset.image_size = 8;
  c.trained.dataset.train_per_class = 5;
  c.trained.dataset.test_per_class = 3;
  c.trained.dataset.noise = 0.125;
  c.trained.dataset.max_shift = 1;
  c.trained.dataset.seed = 99;
  change_backbone(c.trained.backbone, 128);
  change_cost(c.trained.cost, 4);
  c.trained.epochs = 2;
  c.trained.monte_carlo_samples = 2;
  c.parallelism = 3;
  c.batch_size = 4;
  c.pipeline_depth = 2;
  c.cache_evaluations = false;
  c.persistent_cache_dir = "cache";
  c.persistent_cache_max_entries = 10;
  c.persistent_cache_max_bytes = 4096;
  c.checkpoint_dir = "ckpt";
  c.checkpoint_every = 5;
  c.resume = true;
  return s;
}

TEST(ConfigJson, BuiltinScenarioDumpsArePinned) {
  // fnv1a64 of the sparse and the full dump, then the study and evaluation
  // fingerprints: these bytes feed shard-spec checksums and every store
  // and checkpoint key, so a codec change must reproduce them exactly.
  std::vector<core::Scenario> scenarios;
  for (const char* name :
       {"deep-backbone", "finetuned", "high-variation", "multi-objective",
        "naive", "paper-energy", "paper-latency", "tight-area",
        "trained-small"}) {
    scenarios.push_back(core::scenario_by_name(name));
  }
  scenarios.push_back(every_field_changed());
  std::string table;
  for (const core::Scenario& s : scenarios) {
    const auto hash = [](const util::Json& j) {
      return util::hex_u64(util::fnv1a64(j.dump()));
    };
    table += s.name + ' ' + hash(core::scenario_to_json(s)) + ' ' +
             hash(core::scenario_to_json(s, /*include_defaults=*/true)) + ' ' +
             util::hex_u64(core::study_fingerprint(s.config,
                                                   core::Strategy::kLcda, 20)) +
             ' ' + util::hex_u64(core::evaluation_fingerprint(s.config)) + '\n';
  }
  EXPECT_EQ(table,
            "deep-backbone 5836910ac889c84e 44d2d64a8fe1376a b9cc281990ab53c7 "
            "0a22cb03b4d794ec\n"
            "finetuned c50c4b3c735c2b7d 5b180e41e1bf322f 9daf27c4be263c55 "
            "014a8540fb8a0e70\n"
            "high-variation 63f47fcb573af4c3 c81abc2bf5144217 943fe253d68f48bd "
            "107aa0decca7a210\n"
            "multi-objective 05ff99d087cc39a7 7874c661dea55d7a 05c0749705ced4f6 "
            "8029284de618c471\n"
            "naive ab0a6753256f4e1b 5039067985b626d0 283cc86d1565fcdb "
            "5701058edc09554c\n"
            "paper-energy 0a729cfc8ea9c465 2560dcf5447e152e 283cc86d1565fcdb "
            "5701058edc09554c\n"
            "paper-latency b754dec9eb01a02f c5a150205e01c089 9daf27c4be263c55 "
            "014a8540fb8a0e70\n"
            "tight-area 8fb65a6eece1feca d12d382a66757d93 ca642814f2cba901 "
            "0b9bb0bc7d26b44e\n"
            "trained-small ae60e3923f8ec198 8d77d7c1407515e3 940cf248d1023721 "
            "df0d3b6f0a83da12\n"
            "every-field b20e90a29257fc88 b20e90a29257fc88 b393f8d056533dc3 "
            "719ee5e751a55a50\n");
  // Every field of the changed scenario really differs from its default:
  // its sparse dump is its full dump.
  const core::Scenario changed = every_field_changed();
  EXPECT_EQ(core::scenario_to_json(changed).dump(),
            core::scenario_to_json(changed, /*include_defaults=*/true).dump());
}

TEST(ConfigJson, LargeSeedsRoundTripThroughHexStrings) {
  core::ExperimentConfig config;
  config.seed = 0xdeadbeefcafef00dULL;  // > 2^53
  const util::Json j = core::config_to_json(config);
  EXPECT_TRUE(j.at("seed").is_string());
  EXPECT_EQ(core::config_from_json(j).seed, config.seed);

  // Quoted seeds are hex only with an explicit 0x prefix; "42" means 42.
  EXPECT_EQ(core::config_from_json(util::Json::parse(R"({"seed":"42"})")).seed,
            42u);
  EXPECT_EQ(core::config_from_json(util::Json::parse(R"({"seed":"0x42"})")).seed,
            0x42u);
  EXPECT_THROW((void)core::config_from_json(
                   util::Json::parse(R"({"seed":"fast"})")),
               std::invalid_argument);
}

TEST(ConfigJson, DecimalsFromTwoToTheFiftyThreeAreRefused) {
  // A JSON number of 2^53 or more may already be rounded by the parser
  // (9007199254740993 reads as ...992), so seeds and sizes from 2^53 up
  // are written, and must be given, as "0x" hex strings.
  constexpr std::uint64_t k53 = 1ULL << 53;
  core::ExperimentConfig config;
  config.seed = k53 - 1;
  EXPECT_FALSE(core::config_to_json(config).at("seed").is_string());
  config.seed = k53;
  config.persistent_cache_max_bytes = k53 + 1;
  const util::Json j = core::config_to_json(config);
  EXPECT_EQ(j.at("seed").as_string(), "0x20000000000000");
  EXPECT_EQ(j.at("persistent_cache_max_bytes").as_string(), "0x20000000000001");
  const core::ExperimentConfig back = core::config_from_json(j);
  EXPECT_EQ(back.seed, k53);
  EXPECT_EQ(back.persistent_cache_max_bytes, k53 + 1);

  EXPECT_EQ(core::config_from_json(
                util::Json::parse(R"({"seed":9007199254740991})"))
                .seed,
            k53 - 1);
  EXPECT_EQ(core::config_from_json(
                util::Json::parse(R"({"batch_size":"0x20000000000001"})"))
                .batch_size,
            k53 + 1);
  const std::string hint =
      ": a decimal number of 2^53 or more may already be rounded; write it "
      "as a \"0x\"-prefixed hex string";
  for (const auto& [doc, key] :
       std::vector<std::pair<const char*, const char*>>{
           {R"({"seed":9007199254740992})", "config.seed"},
           {R"({"seed":9007199254740993})", "config.seed"},
           {R"({"seed":1e19})", "config.seed"},
           {R"({"batch_size":9007199254740993})", "config.batch_size"},
           {R"({"trained":{"dataset":{"seed":9007199254740993}}})",
            "config.trained.dataset.seed"}}) {
    try {
      (void)core::config_from_json(util::Json::parse(doc));
      ADD_FAILURE() << doc << " decoded";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), std::string(key) + hint) << doc;
    }
  }
  EXPECT_THROW((void)core::config_from_json(
                   util::Json::parse(R"({"batch_size":"lots"})")),
               std::invalid_argument);

  // --set takes the hex form as a bare string.
  core::ExperimentConfig overridden;
  core::apply_override(overridden, "seed=0x20000000000001");
  EXPECT_EQ(overridden.seed, k53 + 1);
}

TEST(ConfigJson, UnknownKeysAreRejected) {
  EXPECT_THROW((void)core::config_from_json(util::Json::parse(
                   R"({"objectives":"energy"})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::config_from_json(util::Json::parse(
                   R"({"space":{"conv_layer":4}})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::config_from_json(util::Json::parse(
                   R"({"evaluator":{"accuracy":{"lucky_sigma":1}}})")),
               std::invalid_argument);
  // The error names the offending key.
  try {
    (void)core::config_from_json(util::Json::parse(R"({"space":{"typo":1}})"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("typo"), std::string::npos);
  }
}

TEST(ConfigJson, BadEnumValuesAreRejected) {
  EXPECT_THROW((void)core::config_from_json(
                   util::Json::parse(R"({"objective":"power"})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::config_from_json(
                   util::Json::parse(R"({"evaluator_kind":"oracle"})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::config_from_json(util::Json::parse(
                   R"({"space":{"hardware":{"devices":["MRAM"]}}})")),
               std::invalid_argument);
}

TEST(ConfigJson, BadValuesAreRejectedNamingTheirPath) {
  // Integers that do not fit their member are refused rather than wrapped
  // (4294967300 once read as 4), and a value of the wrong type names the
  // key it was read from.
  const std::vector<std::pair<const char*, const char*>> rows = {
      {R"({"space":{"conv_layers":4294967300}})",
       "config.space.conv_layers: out of range"},
      {R"({"space":{"conv_layers":-2147483649}})",
       "config.space.conv_layers: out of range"},
      {R"({"space":{"channel_choices":[16,4294967312]}})",
       "config.space.channel_choices: out of range"},
      {R"({"evaluator":{"cost":{"mapper":{"input_bits":1e10}}}})",
       "config.evaluator.cost.mapper.input_bits: out of range"},
      {R"({"seed":true})", "config.seed: Json::as_double: not a number"},
      {R"({"seed":-1})", "config.seed: negative"},
      {R"({"seed":"fast"})", "config.seed: bad seed \"fast\""},
      {R"({"batch_size":-1})", "config.batch_size: negative"},
      {R"({"lcda_episodes":2.5})",
       "config.lcda_episodes: Json::as_int: not an integral number"},
      {R"({"resume":1})", "config.resume: Json::as_bool: not a bool"},
      {R"({"objective":3})", "config.objective: Json::as_string: not a string"},
      {R"({"space":{"kernel_choices":3}})",
       "config.space.kernel_choices: expected array"},
      {R"({"space":{"hardware":{"devices":["RRAM",1]}}})",
       "config.space.hardware.devices: Json::as_string: not a string"},
      {R"({"trained":{"dataset":5}})",
       "config.trained.dataset: expected a JSON object"},
  };
  for (const auto& [doc, message] : rows) {
    try {
      (void)core::config_from_json(util::Json::parse(doc));
      ADD_FAILURE() << doc << " decoded";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message) << doc;
    }
  }
  // The extremes of int still decode.
  EXPECT_EQ(core::config_from_json(util::Json::parse(
                                       R"({"space":{"conv_layers":-2147483648}})"))
                .space.conv_layers,
            -2147483647 - 1);
  EXPECT_EQ(core::config_from_json(util::Json::parse(
                                       R"({"checkpoint_every":2147483647})"))
                .checkpoint_every,
            2147483647);
}

// --------------------------------------------------------------- overrides

TEST(ApplyOverride, DottedPathsReachEveryLayer) {
  core::ExperimentConfig config;
  core::apply_override(config, "objective=latency");
  core::apply_override(config, "space.conv_layers=4");
  core::apply_override(config, "space.channel_choices=[16,32,64]");
  core::apply_override(config, "space.hardware.devices=[\"FeFET\"]");
  core::apply_override(config, "evaluator.accuracy.variation_coeff=2.25");
  core::apply_override(config, "cache_evaluations=false");
  EXPECT_EQ(config.objective, llm::Objective::kLatency);
  EXPECT_EQ(config.space.conv_layers, 4);
  EXPECT_EQ(config.space.channel_choices, (std::vector<int>{16, 32, 64}));
  ASSERT_EQ(config.space.hw.devices.size(), 1u);
  EXPECT_EQ(config.space.hw.devices[0], cim::DeviceType::kFefet);
  EXPECT_EQ(config.evaluator.accuracy.variation_coeff, 2.25);
  EXPECT_FALSE(config.cache_evaluations);
}

TEST(ApplyOverride, RejectsUnknownPathsAndBadSyntax) {
  core::ExperimentConfig config;
  EXPECT_THROW(core::apply_override(config, "space.conv_layer=4"),
               std::invalid_argument);
  EXPECT_THROW(core::apply_override(config, "nope.deep.path=1"),
               std::invalid_argument);
  EXPECT_THROW(core::apply_override(config, "no_equals_sign"),
               std::invalid_argument);
  EXPECT_THROW(core::apply_override(config, "=5"), std::invalid_argument);
}

// ---------------------------------------------------------------- registry

TEST(Registry, BuiltinCatalogIsComplete) {
  const std::vector<std::string> names = core::list_scenarios();
  for (const char* required :
       {"paper-energy", "paper-latency", "naive", "finetuned", "tight-area",
        "high-variation", "deep-backbone", "multi-objective", "trained-small"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing builtin scenario " << required;
  }
  EXPECT_GE(names.size(), 9u);
}

TEST(Registry, PaperScenariosMatchTheLegacyConfigs) {
  // The refactor's contract: the paper scenarios ARE the pre-registry
  // hardcoded configs. paper-energy is a default ExperimentConfig...
  EXPECT_EQ(canonical(core::scenario_by_name("paper-energy").config),
            canonical(core::ExperimentConfig{}));
  // ...and paper-latency/finetuned only flip the objective.
  core::ExperimentConfig latency;
  latency.objective = llm::Objective::kLatency;
  EXPECT_EQ(canonical(core::scenario_by_name("paper-latency").config),
            canonical(latency));
  EXPECT_EQ(canonical(core::scenario_by_name("finetuned").config),
            canonical(latency));
  EXPECT_EQ(core::scenario_by_name("naive").default_strategy,
            core::Strategy::kLcdaNaive);
  EXPECT_EQ(core::scenario_by_name("finetuned").default_strategy,
            core::Strategy::kLcdaFinetuned);
}

TEST(Registry, DuplicateAndUnknownNamesThrow) {
  core::Scenario s;
  s.name = "paper-energy";
  EXPECT_THROW(core::register_scenario(s), std::invalid_argument);
  try {
    (void)core::scenario_by_name("no-such-scenario");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error lists what IS available.
    EXPECT_NE(std::string(e.what()).find("paper-energy"), std::string::npos);
  }
}

TEST(Registry, CustomScenariosRegisterAndRoundTripThroughFiles) {
  core::Scenario s;
  s.name = "test-custom";
  s.summary = "registered by scenario_test";
  s.default_strategy = core::Strategy::kGenetic;
  s.config.space.conv_layers = 3;
  s.config.lcda_episodes = 4;
  core::register_scenario(s);

  const core::Scenario back = core::scenario_by_name("test-custom");
  EXPECT_EQ(back.summary, s.summary);
  EXPECT_EQ(back.default_strategy, core::Strategy::kGenetic);
  EXPECT_EQ(canonical(back.config), canonical(s.config));

  const std::string path = temp_dir("files") + "/custom.json";
  core::save_scenario(s, path);
  const core::Scenario loaded = core::load_scenario(path);
  EXPECT_EQ(loaded.name, s.name);
  EXPECT_EQ(loaded.default_strategy, s.default_strategy);
  EXPECT_EQ(canonical(loaded.config), canonical(s.config));
}

TEST(Registry, ScenarioDirRegistersDroppedInFilesInNameOrder) {
  const std::string dir = temp_dir("scenario_dir");
  core::Scenario s = core::scenario_by_name("tight-area");
  s.name = "dropped-in-b";
  core::save_scenario(s, dir + "/b.json");
  s.name = "dropped-in-a";
  core::save_scenario(s, dir + "/a.json");
  std::ofstream(dir + "/notes.txt") << "not a scenario";  // ignored

  const std::vector<std::string> names = core::register_scenarios_from(dir);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "dropped-in-a");  // deterministic file-name order
  EXPECT_EQ(names[1], "dropped-in-b");
  EXPECT_EQ(core::scenario_by_name("dropped-in-a").config.space.area_budget_mm2,
            20.0);

  // Re-registering identical definitions (env autoload + explicit
  // --scenario-dir of the same directory) is a harmless no-op ...
  EXPECT_TRUE(core::register_scenarios_from(dir).empty());
  // ... but a CONFLICTING definition under a taken name fails loudly.
  const std::string dir2 = temp_dir("scenario_dir_conflict");
  s.name = "dropped-in-a";
  s.config.seed = 999;
  core::save_scenario(s, dir2 + "/a.json");
  EXPECT_THROW(core::register_scenarios_from(dir2), std::invalid_argument);
  // And a directory that cannot be read is a hard error, not a no-op.
  EXPECT_THROW(core::register_scenarios_from(dir + "/missing"),
               std::runtime_error);
}

TEST(Registry, ScenarioDirRejectsMalformedFiles) {
  const std::string dir = temp_dir("scenario_dir_bad");
  std::ofstream(dir + "/broken.json") << R"({"name": "broken", "typo": 1})";
  EXPECT_THROW(core::register_scenarios_from(dir), std::invalid_argument);
}

TEST(Registry, EveryBuiltinScenarioRoundTripsThroughJson) {
  for (const std::string& name : core::list_scenarios()) {
    const core::Scenario s = core::scenario_by_name(name);
    const core::Scenario back = core::scenario_from_json(core::scenario_to_json(s));
    EXPECT_EQ(back.name, s.name);
    EXPECT_EQ(back.default_strategy, s.default_strategy);
    EXPECT_EQ(canonical(back.config), canonical(s.config)) << name;
  }
}

// ------------------------------------------------------- study fingerprint

TEST(StudyFingerprint, IgnoresEngineKnobsAndDefaultBudgets) {
  core::ExperimentConfig a;
  core::ExperimentConfig b;
  b.parallelism = 8;
  b.cache_evaluations = false;
  b.persistent_cache_dir = "/tmp/x";
  b.lcda_episodes = 50;  // only defaults; the real count is the parameter
  b.nacim_episodes = 100;
  EXPECT_EQ(core::study_fingerprint(a, core::Strategy::kLcda, 20),
            core::study_fingerprint(b, core::Strategy::kLcda, 20));
}

TEST(StudyFingerprint, SeparatesStudies) {
  const core::ExperimentConfig base;
  const auto fp = core::study_fingerprint(base, core::Strategy::kLcda, 20);
  EXPECT_NE(fp, core::study_fingerprint(base, core::Strategy::kNacimRl, 20));
  // Batched optimizers truncate their last batch at the budget, shifting
  // RNG consumption — different budgets must not share entries.
  EXPECT_NE(fp, core::study_fingerprint(base, core::Strategy::kLcda, 21));
  core::ExperimentConfig seeded = base;
  seeded.seed = 2;
  EXPECT_NE(fp, core::study_fingerprint(seeded, core::Strategy::kLcda, 20));
  core::ExperimentConfig spaced = base;
  spaced.space.area_budget_mm2 = 20.0;
  EXPECT_NE(fp, core::study_fingerprint(spaced, core::Strategy::kLcda, 20));
  core::ExperimentConfig batched = base;
  batched.batch_size = 4;  // batch composition can shape proposal streams
  EXPECT_NE(fp, core::study_fingerprint(batched, core::Strategy::kLcda, 20));
}

TEST(StudyFingerprint, NamesTheV1CacheFixtureFiles) {
  // tests/golden/eval_cache_v1/ holds the paper-energy LCDA study's v1
  // flat-JSON cache, one file per seed, named by this fingerprint: the
  // store's v1 migration finds those files only while the formula still
  // reproduces the names (config fields added later must stay out of it).
  const core::Scenario scenario = core::scenario_by_name("paper-energy");
  std::vector<std::string> names;
  for (std::uint64_t s = 0; s < 2; ++s) {
    core::ExperimentConfig config = scenario.config;
    config.seed = scenario.config.seed + s;  // lcda_run --seeds=2
    names.push_back(util::hex_u64(core::study_fingerprint(
        config, core::Strategy::kLcda,
        core::default_episodes(core::Strategy::kLcda, config))));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"283cc86d1565fcdb",
                                             "6a54beaee269d722"}));
}

// ------------------------------------------------ fingerprint namespaces

TEST(EvaluationFingerprint, IgnoresStreamIdentityAndEngineKnobs) {
  // The evaluation-identity namespace is what legally determines an
  // Evaluation: space, evaluator, reward, noise. Seed, batch size and every
  // engine knob belong to the stream/engine side, so studies differing only
  // there share records through the store's shared namespace.
  core::ExperimentConfig a;
  core::ExperimentConfig b;
  b.seed = 99;
  b.batch_size = 4;
  b.parallelism = 8;
  b.pipeline_depth = 2;
  b.persistent_cache_dir = "/tmp/x";
  b.lcda_episodes = 50;
  EXPECT_EQ(core::evaluation_fingerprint(a), core::evaluation_fingerprint(b));
}

TEST(EvaluationFingerprint, SeparatesEvaluationIdentities) {
  const core::ExperimentConfig base;
  const auto fp = core::evaluation_fingerprint(base);
  core::ExperimentConfig spaced = base;
  spaced.space.area_budget_mm2 = 20.0;
  EXPECT_NE(fp, core::evaluation_fingerprint(spaced));
  core::ExperimentConfig noisy = base;
  noisy.evaluator.accuracy.variation_coeff = 1.75;
  EXPECT_NE(fp, core::evaluation_fingerprint(noisy));
  core::ExperimentConfig objective = base;
  objective.objective = llm::Objective::kLatency;
  EXPECT_NE(fp, core::evaluation_fingerprint(objective));
}

TEST(StreamFingerprint, SeparatesStreams) {
  const core::ExperimentConfig base;
  const auto fp = core::stream_fingerprint(base, core::Strategy::kLcda, 20);
  EXPECT_NE(fp, core::stream_fingerprint(base, core::Strategy::kNacimRl, 20));
  // Batched optimizers truncate their last batch at the budget, shifting
  // RNG consumption — different budgets must not share full keys.
  EXPECT_NE(fp, core::stream_fingerprint(base, core::Strategy::kLcda, 21));
  core::ExperimentConfig seeded = base;
  seeded.seed = 2;
  EXPECT_NE(fp, core::stream_fingerprint(seeded, core::Strategy::kLcda, 20));
  core::ExperimentConfig batched = base;
  batched.batch_size = 4;
  EXPECT_NE(fp, core::stream_fingerprint(batched, core::Strategy::kLcda, 20));
}

// ------------------------------------------- persistent evaluation store

TEST(PersistentStore, SecondRunIsServedFromDiskWithIdenticalTrace) {
  core::ExperimentConfig config;
  config.persistent_cache_dir = temp_dir("reuse");
  config.lcda_episodes = 8;

  const core::RunResult cold =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_EQ(cold.persistent_hits, 0);
  EXPECT_GT(cold.cache_misses, 0);

  const core::RunResult warm =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.persistent_hits, cold.cache_misses);
  EXPECT_EQ(trace_text(warm), trace_text(cold));
}

TEST(PersistentStore, DifferentEpisodeBudgetsDoNotShareEntries) {
  // Batched optimizers truncate the final batch at the budget, which
  // shifts RNG consumption: a 4-episode stream is NOT a prefix of an
  // 8-episode stream in general, so budgets must not share full keys. And
  // shared-namespace reuse only ever flows through compacted index buckets,
  // which don't exist until --store-compact runs.
  const std::string dir = temp_dir("budgets");
  core::ExperimentConfig config;
  config.persistent_cache_dir = dir;
  (void)core::run_strategy(core::Strategy::kLcda, 4, config);
  const core::RunResult big = core::run_strategy(core::Strategy::kLcda, 8, config);
  EXPECT_EQ(big.persistent_hits, 0);
  EXPECT_EQ(big.persistent_shared_hits, 0);
  // Each study published its own append-only segment.
  std::size_t segments = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/segments")) {
    (void)entry;
    ++segments;
  }
  EXPECT_EQ(segments, 2u);
}

TEST(PersistentStore, WarmBatchedOptimizerRunsStayBitIdentical) {
  // The guarantee that forced episodes into the fingerprint: a genetic
  // run's warm rerun (same budget) must match its cold run bit for bit,
  // even though the population batching truncates at the budget tail.
  core::ExperimentConfig config;
  config.persistent_cache_dir = temp_dir("batched");
  const core::RunResult cold =
      core::run_strategy(core::Strategy::kGenetic, 30, config);
  const core::RunResult warm =
      core::run_strategy(core::Strategy::kGenetic, 30, config);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_GT(warm.persistent_hits, 0);
  EXPECT_EQ(trace_text(warm), trace_text(cold));
}

TEST(PersistentStore, RunRespectsConfiguredBudgetAndStaysBitIdentical) {
  core::ExperimentConfig config;
  config.persistent_cache_dir = temp_dir("evict_run");
  config.persistent_cache_max_entries = 4;
  config.lcda_episodes = 8;

  const core::RunResult cold =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  ASSERT_GT(cold.cache_misses, 4);  // else the budget never binds
  EXPECT_GT(cold.persistent_evictions, 0);

  // The warm rerun only finds the newest entries on disk, re-evaluates the
  // evicted ones — deterministically — and must stay bit-identical.
  const core::RunResult warm =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_GT(warm.persistent_hits, 0);
  EXPECT_GT(warm.cache_misses, 0);
  EXPECT_EQ(warm.persistent_hits + warm.cache_misses, cold.cache_misses);
  EXPECT_EQ(trace_text(warm), trace_text(cold));
}

TEST(PersistentStore, DistinctStreamsDoNotShareFullKeys) {
  // LCDA and LCDA-naive share an evaluation identity (same space, evaluator
  // and reward) but not a stream, so neither study may claim the other's
  // records as its own — and the shared namespace stays silent until an
  // explicit --store-compact publishes index buckets.
  const std::string dir = temp_dir("separate");
  core::ExperimentConfig config;
  config.persistent_cache_dir = dir;
  config.lcda_episodes = 4;
  (void)core::run_strategy(core::Strategy::kLcda, 4, config);
  const core::RunResult other =
      core::run_strategy(core::Strategy::kLcdaNaive, 4, config);
  EXPECT_EQ(other.persistent_hits, 0);
  EXPECT_EQ(other.persistent_shared_hits, 0);
}

TEST(PersistentStore, SkippedFilesSurfaceInRunResult) {
  core::ExperimentConfig config;
  config.persistent_cache_dir = temp_dir("skip_visible");
  config.lcda_episodes = 4;
  const core::RunResult cold =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_EQ(cold.persistent_skipped, 0);
  EXPECT_EQ(cold.persistent_save_failures, 0);

  // Corrupt the study's published segment; the rerun reports the skip,
  // still completes (cold, deterministically), and stays bit-identical.
  std::size_t corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           config.persistent_cache_dir + "/segments")) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "garbage";
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 1u);
  const core::RunResult rerun =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_EQ(rerun.persistent_skipped, 1);
  EXPECT_EQ(rerun.persistent_hits, 0);
  EXPECT_EQ(trace_text(rerun), trace_text(cold));
}

// --------------------------------------------------- scenario behaviours

TEST(Scenarios, DescriptionsExistAndRoundTrip) {
  // Every built-in carries a description (lcda_run --list prints it, shard
  // specs embed it), and the field survives serialization. Only the
  // built-ins are checked: other tests drop scenarios into the shared
  // registry, and those need not carry one.
  for (const char* name :
       {"paper-energy", "paper-latency", "naive", "finetuned", "tight-area",
        "high-variation", "deep-backbone", "multi-objective", "trained-small"}) {
    EXPECT_FALSE(core::scenario_by_name(name).description.empty())
        << name << " has no description";
  }
  const core::Scenario s = core::scenario_by_name("paper-energy");
  const core::Scenario back = core::scenario_from_json(
      util::Json::parse(core::scenario_to_json(s).dump()));
  EXPECT_EQ(back.description, s.description);

  // Absent field stays absent: a description-less scenario serializes
  // without the key and loads back empty.
  core::Scenario bare;
  bare.name = "bare";
  EXPECT_FALSE(core::scenario_to_json(bare).contains("description"));
  EXPECT_TRUE(core::scenario_from_json(core::scenario_to_json(bare))
                  .description.empty());
}

TEST(Scenarios, TightAreaBudgetPropagatesToDesigns) {
  const core::Scenario s = core::scenario_by_name("tight-area");
  const search::SearchSpace space(s.config.space);
  util::Rng rng(1);
  const search::Design d = space.sample(rng);
  EXPECT_EQ(d.hw.area_budget_mm2, 20.0);
  // And snapping an out-of-space design stamps the budget too.
  EXPECT_EQ(space.snap(search::Design{}).hw.area_budget_mm2, 20.0);
}

TEST(Scenarios, WriteVerifyReducesEffectiveSigma) {
  EXPECT_EQ(noise::effective_sigma_scale(0.0, 0.1), 1.0);
  EXPECT_NEAR(noise::effective_sigma_scale(1.0, 0.1), 0.1, 1e-12);
  const double scale = noise::effective_sigma_scale(0.25, 0.1);
  EXPECT_GT(scale, 0.85);
  EXPECT_LT(scale, 0.88);
  EXPECT_THROW((void)noise::effective_sigma_scale(1.5, 0.1),
               std::invalid_argument);
}

TEST(Scenarios, WriteVerifyAccuracyGainIsPaidInProgrammingEnergy) {
  search::Design design;
  design.rollout = {{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}};
  core::SurrogateEvaluator plain;
  core::SurrogateEvaluator::Options wv_opts;
  wv_opts.write_verify_fraction = 0.25;
  core::SurrogateEvaluator with_wv(wv_opts);
  util::Rng rng_a(1), rng_b(1);
  const core::Evaluation base = plain.evaluate(design, rng_a);
  const core::Evaluation verified = with_wv.evaluate(design, rng_b);
  EXPECT_GT(verified.accuracy, base.accuracy);  // reduced effective sigma
  // ...bought with extra one-time write pulses: (1-f) + f*pulses = 2.75x.
  EXPECT_NEAR(verified.cost.programming_energy_pj,
              2.75 * base.cost.programming_energy_pj,
              1e-6 * base.cost.programming_energy_pj);
}

TEST(Scenarios, CombinedRewardTradesBothMetrics) {
  const core::ExperimentConfig cfg = core::scenario_by_name("multi-objective").config;
  EXPECT_TRUE(cfg.combined_reward);
  const core::RewardFunction reward = core::make_reward(cfg);
  EXPECT_TRUE(reward.is_combined());
  cim::CostReport cost;
  cost.valid = true;
  cost.energy_total_pj = 8e7;  // energy term = 1
  cost.latency_ns = 1e9 / 1600.0;  // FPS term = 1
  EXPECT_NEAR(reward(0.5, cost), 0.5 - 1.0 + 1.0, 1e-12);
  cost.valid = false;
  EXPECT_EQ(reward(0.5, cost), core::kInvalidReward);
}

TEST(Scenarios, DeepBackbonePromptsYieldEightLayerRollouts) {
  core::ExperimentConfig cfg = core::scenario_by_name("deep-backbone").config;
  cfg.lcda_episodes = 3;
  const core::RunResult run =
      core::run_strategy(core::Strategy::kLcda, cfg.lcda_episodes, cfg);
  for (const auto& ep : run.episodes) {
    EXPECT_EQ(ep.design.rollout.size(), 8u);
  }
}

TEST(Scenarios, PaperEnergyViaRegistryMatchesLegacyHardcodedRun) {
  // The acceptance contract in miniature: driving the run through the
  // registry reproduces the pre-refactor (hand-built config) trace.
  core::ExperimentConfig legacy;  // what the benches used to build inline
  legacy.objective = llm::Objective::kEnergy;
  legacy.seed = 1;
  const core::RunResult expected = core::run_strategy(
      core::Strategy::kLcda, legacy.lcda_episodes, legacy);
  const core::RunResult actual = core::run_strategy(
      core::Strategy::kLcda, 20, core::scenario_by_name("paper-energy").config);
  EXPECT_EQ(trace_text(actual), trace_text(expected));
}

}  // namespace
