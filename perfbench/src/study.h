#pragma once

// The benchmark's workloads and the study call they time.
//
// A study is what a user of the library calls: a multi-seed aggregate of
// one strategy on the paper-energy scenario, composed from
// core::CodesignLoop, make_evaluator, make_reward and
// aggregate_seed_config exactly as core::run_aggregate / run_strategy
// compose it. Rebuilding the composition here (rather than calling
// run_aggregate) is what lets the traced pass slip decorators between the
// layers; the untraced pass runs the same composition with the bare
// library objects.

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"
#include "lcda/core/experiment.h"
#include "lcda/core/stats_runner.h"
#include "spans.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  lcda::core::Strategy strategy = lcda::core::Strategy::kLcda;
  int episodes = 0;     ///< per seed-run
  int seeds = 0;        ///< seed-runs per study
  int parallelism = 1;  ///< the study's ExperimentConfig::parallelism
  int pool = 0;         ///< distinct study inputs, cycled
  /// Timed studies read an evaluation store that set-up writes with one
  /// cold, checkpointed run of every input.
  bool warm_store = false;
};

/// The workloads (lcda-paper, store-warm) at full or tiny size. Throws std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name, bool tiny,
                                         int hardware_threads);

/// The study inputs the benchmark seed expands to: one ExperimentConfig
/// per pool entry, differing only in the library seed.
[[nodiscard]] std::vector<lcda::core::ExperimentConfig> derive_inputs(
    const WorkloadSpec& spec, std::uint64_t bench_seed);

/// Where a study's persistent state goes ("" = off).
struct StudyDirs {
  std::string store;
  std::string checkpoint;
};

/// Traced-pass instrumentation; a study run with no Probe is untraced.
struct Probe {
  Recorder* recorder = nullptr;
  LayerCounters* counters = nullptr;
};

/// What one seed-run did, read from the library objects after the run.
struct SeedTally {
  std::int64_t wall_ns = 0;
  std::int64_t episodes = 0;
  std::int64_t cache_hits = 0;
  std::int64_t llm_turns = 0;
  std::int64_t llm_parse_failed = 0;
  std::int64_t llm_parse_repairs = 0;
  std::int64_t llm_fallbacks = 0;  ///< proposals that fell back to random
  std::int64_t saves = 0;
  std::int64_t save_failures = 0;
  std::int64_t skipped_files = 0;
  std::int64_t store_hits = 0;
  std::int64_t store_misses = 0;
  std::int64_t store_shared_hits = 0;
  std::int64_t store_bytes_read = 0;
  std::int64_t store_bytes_published = 0;
  std::int64_t snapshots = 0;         ///< on_snapshot calls
  std::int64_t snapshots_failed = 0;  ///< calls that wrote no snapshot
  std::int64_t rounds_logged = 0;     ///< on_round calls
  std::uint64_t ckpt_identity = 0;    ///< 0 = not checkpointed

  SeedTally& operator+=(const SeedTally& o);
};

struct StudyResult {
  std::int64_t wall_ns = 0;  ///< the study call, serialization excluded
  SeedTally total;           ///< summed over seed-runs (wall_ns included)
  std::vector<std::uint64_t> ckpt_identities;
  /// The library's serialized result (scrubbed); empty unless requested.
  std::string serialized;
};

/// Runs one study; `serialize` also fills StudyResult::serialized (after
/// the wall clock stops). Never throws on I/O trouble inside the library
/// (that degrades to counted failures); propagates logic errors.
[[nodiscard]] StudyResult run_study(const WorkloadSpec& spec,
                                    const lcda::core::ExperimentConfig& input,
                                    int study_id, const StudyDirs& dirs,
                                    const Probe* probe, bool serialize);

/// The same study through the library's own entry points
/// (core::run_aggregate plus core::run_strategy per seed), serialized the
/// same way — the byte-neutrality reference for the composition above.
[[nodiscard]] std::string run_study_via_library(
    const WorkloadSpec& spec, const lcda::core::ExperimentConfig& input,
    const StudyDirs& dirs);

}  // namespace perfbench
