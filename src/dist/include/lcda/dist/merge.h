#pragma once

#include <string>
#include <vector>

#include "lcda/core/stats_runner.h"
#include "lcda/dist/shard.h"
#include "lcda/util/json_lite.h"

namespace lcda::dist {

/// Loads the result manifest `spec.result_path` points at and verifies it
/// belongs to this spec: format tag, shard index, mode, and the spec
/// checksum the worker echoed back — a stale manifest in a reused shard
/// directory fails here instead of corrupting a merge. Throws
/// std::runtime_error on a missing/unreadable/foreign manifest.
[[nodiscard]] util::Json load_shard_manifest(const ShardSpec& spec);

/// Folds the per-seed summaries of one strategy's shards back into the
/// AggregateResult a single-process core::run_aggregate would have
/// produced, byte-for-byte: the fold walks seeds in canonical order (the
/// Welford accumulators are order-sensitive in floating point), every
/// double has already survived the JSON round trip bit-exactly, and the
/// cache counters are order-free sums. All specs must share one strategy,
/// episode budget, seed count and threshold; the seed partition must cover
/// 0..total_seeds-1 exactly once.
[[nodiscard]] core::AggregateResult merge_aggregate(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests);

/// Reassembles a speedup study's per-seed reports in canonical seed order
/// — identical to core::speedup_study over the same config and seeds.
[[nodiscard]] std::vector<core::SpeedupReport> merge_speedup(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests);

/// One runs-mode run as lcda_run prints and writes it: the full run JSON
/// (embedded verbatim in merged experiment documents), its trace CSV rows,
/// and the scalars the summary lines print.
struct MergedRun {
  int seed = 0;
  std::string label;
  util::Json run_json;  // null when built without it (no --json)
  std::string csv;      // empty when built without it (no --trace)
  long long episodes = 0;
  double best_reward = 0.0;
  int best_episode = -1;
  std::string best_design;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long persistent_hits = 0;
  long long persistent_shared_hits = 0;
  long long persistent_skipped = 0;
  long long persistent_save_failures = 0;
};

/// The record of one finished run — the worker's and lcda_run's
/// in-process runs mode's one builder, so both execution paths print and
/// write the same bytes. The run JSON and CSV rows cost O(episodes) each;
/// `with_json` / `with_csv` leave them out when nothing will write them.
[[nodiscard]] MergedRun run_record(int seed, const std::string& label,
                                   const core::RunResult& run,
                                   bool with_json = true, bool with_csv = true);

/// A full run record as one runs-mode manifest entry (the worker's), and
/// back. merged_run(run_entry(r)) equals `r`.
[[nodiscard]] util::Json run_entry(MergedRun run);
[[nodiscard]] MergedRun merged_run(const util::Json& entry);

/// One aggregate-mode seed as a manifest entry (the worker's), and back:
/// exactly the values core::fold_seed consumes. Doubles survive the JSON
/// round trip bit-for-bit (shortest-round-trip formatting), which is what
/// makes the merged AggregateResult byte-identical to the single-process
/// one. `threshold_episode` travels only when `threshold` is not NaN.
[[nodiscard]] util::Json aggregate_entry(int seed, const core::SeedSummary& s,
                                         double threshold);
[[nodiscard]] core::SeedSummary seed_summary(const util::Json& entry,
                                             double threshold);

/// One speedup-mode seed as a manifest entry, and back.
[[nodiscard]] util::Json speedup_entry(int seed, const core::SpeedupReport& r);
[[nodiscard]] core::SpeedupReport speedup_report(const util::Json& entry);

/// Reassembles runs-mode payloads in canonical order — study-major (the
/// planner's strategy order via study_slot), seeds ascending — the order
/// the single-process CLI produces its runs in. `specs` is the full plan
/// after the coordinator ran it, steal-appended specs included; seeds
/// published by two shards (steal races) are arbitrated to the lowest
/// shard index, and each study's partition must cover its seed range
/// exactly.
[[nodiscard]] std::vector<MergedRun> merge_runs(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests);

}  // namespace lcda::dist
