// Worker-side half of the distributed study runner: executes one ShardSpec
// exactly as the single-process engine would have (same seed derivation,
// same per-seed parallelism split, same evaluator sharing) and reports a
// result manifest the merger can fold back bit-for-bit.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "lcda/core/report.h"
#include "lcda/core/stats_runner.h"
#include "lcda/dist/merge.h"
#include "lcda/dist/progress.h"
#include "lcda/dist/protocol.h"
#include "lcda/dist/shard.h"
#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/util/fault.h"
#include "lcda/util/strings.h"

namespace lcda::dist {

namespace {

constexpr std::string_view kResultFormat = "lcda-shard-result-v1";

std::string hex64(std::uint64_t v) { return "0x" + util::hex_u64(v); }

/// Atomic publication, same discipline as the persistent cache: a
/// coordinator or a human inspecting the shard directory never sees a
/// torn manifest, and a crashed attempt leaves at most a stale temp file.
void write_manifest_atomically(const util::Json& manifest,
                               const std::string& path) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  core::write_json_file(manifest, tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("worker: rename to " + path +
                             " failed: " + ec.message());
  }
}

/// Drives the per-seed loop shared by all three modes: re-reads the
/// revocation file before each seed (a stolen seed is skipped — the
/// coordinator re-dispatched it), emits start/done progress records, and
/// honours the LCDA_FAULT injection harness (util/fault.h): wedge@seed
/// hangs without heartbeats (the injected dead worker — still a live
/// process, so only the coordinator's staleness reaper can catch it),
/// kill@seed _exit(42)s (the injected mid-spec crash — only the
/// respawn-and-retry path can recover), and sleep@seed is the injected
/// straggler. `body(seed)` computes one seed and appends its manifest
/// entry.
template <typename Body>
void for_each_owned_seed(const ShardSpec& spec, ProgressWriter* progress,
                         const Body& body) {
  util::FaultInjector::set_attempt(spec.attempt);
  const util::FaultInjector& faults = util::FaultInjector::instance();
  for (int s : spec.seeds) {
    if (!spec.revoke_path.empty()) {
      const std::set<int> revoked = read_revocations(spec.revoke_path);
      if (revoked.count(s) != 0) continue;
    }
    if (progress != nullptr) progress->seed_started(s);
    if (faults.wedge_at_seed(s, spec.attempt)) {
      std::fprintf(stderr, "worker: shard %d wedging at seed %d (injected)\n",
                   spec.index, s);
      if (progress != nullptr) progress->stop_heartbeats();
      std::this_thread::sleep_for(std::chrono::hours(1));
    }
    if (faults.kill_at_seed(s, spec.attempt)) {
      std::fprintf(stderr, "worker: shard %d dying at seed %d (injected)\n",
                   spec.index, s);
      std::fflush(stderr);
      ::_exit(42);
    }
    if (const int sleep_ms = faults.sleep_ms_at_seed(s); sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    std::optional<obs::Span> seed_span;
    if (obs::SpanTracer::instance().enabled()) {
      char label[32];
      std::snprintf(label, sizeof(label), "seed-%d", s);
      seed_span.emplace(label);
    }
    const auto t0 = std::chrono::steady_clock::now();
    body(s);
    if (progress != nullptr) {
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      progress->seed_done(s, wall_ms);
    }
  }
}

}  // namespace

util::Json run_shard(const ShardSpec& spec, ProgressWriter* progress,
                     core::PerformanceEvaluator* warm_evaluator) {
  const core::ExperimentConfig& config = spec.scenario.config;
  // This spec's slice of the worker's metrics: the resident loop runs many
  // specs in one process, so the manifest carries a DELTA over the
  // registry, not the process totals. Disabled registry -> empty delta.
  const obs::MetricsSnapshot obs_base = obs::Registry::instance().snapshot();

  util::Json manifest = util::Json::object();
  manifest["format"] = kResultFormat;
  manifest["shard"] = spec.index;
  manifest["count"] = spec.count;
  manifest["mode"] = std::string(shard_mode_name(spec.mode));
  manifest["strategy"] = std::string(core::strategy_name(spec.strategy));
  manifest["episodes"] = spec.episodes;
  manifest["spec_checksum"] = hex64(shard_spec_checksum(spec));
  util::Json entries = util::Json::array();
  core::StoreMetrics store_total;
  long long resumed_total = 0;

  // Retried and stolen shard copies resume each seed from its checkpoint
  // when the study checkpoints at all: a seed the dead attempt finished
  // restores instantly from its final snapshot, a seed it died inside
  // continues from the last boundary — and either way the re-run seed's
  // output is byte-identical to a clean first attempt, which is what
  // keeps the retry path inside the merge byte-contract.
  const bool resume_retries = spec.attempt > 0 || spec.stolen_from >= 0;
  auto with_resume = [&](core::ExperimentConfig cfg) {
    if (!cfg.checkpoint_dir.empty() && resume_retries) cfg.resume = true;
    return cfg;
  };

  switch (spec.mode) {
    case ShardMode::kAggregate: {
      // One shared evaluator across the shard's seeds, like run_aggregate
      // shares one across the whole study: its memos are content-keyed,
      // so sharing scope cannot change a result. A warm evaluator from the
      // worker loop widens the scope to "across specs" under the same
      // contract.
      const auto owned =
          warm_evaluator != nullptr ? nullptr : core::make_evaluator(config);
      core::PerformanceEvaluator* evaluator =
          warm_evaluator != nullptr ? warm_evaluator : owned.get();
      for_each_owned_seed(spec, progress, [&](int s) {
        const core::RunResult run = core::run_strategy(
            spec.strategy, spec.episodes,
            with_resume(core::aggregate_seed_config(config, s, spec.total_seeds)),
            evaluator);
        store_total += run.store;
        resumed_total += run.resumed_episodes;
        entries.push_back(aggregate_entry(
            s, core::summarize_seed(run, spec.threshold), spec.threshold));
      });
      break;
    }
    case ShardMode::kSpeedup: {
      const auto owned =
          warm_evaluator != nullptr ? nullptr : core::make_evaluator(config);
      core::PerformanceEvaluator* evaluator =
          warm_evaluator != nullptr ? warm_evaluator : owned.get();
      for_each_owned_seed(spec, progress, [&](int s) {
        const core::SpeedupReport report = core::measure_speedup(
            with_resume(core::aggregate_seed_config(config, s, spec.total_seeds)),
            spec.threshold_fraction, evaluator);
        store_total += report.store;
        resumed_total += report.resumed_episodes;
        entries.push_back(speedup_entry(s, report));
      });
      break;
    }
    case ShardMode::kRuns: {
      for_each_owned_seed(spec, progress, [&](int s) {
        // The CLI's per-seed mode offsets the base seed directly (the
        // aggregate modes derive by key instead); both are replicated
        // here verbatim so either partitioning is bit-compatible.
        core::ExperimentConfig cfg = config;
        cfg.seed = config.seed + static_cast<std::uint64_t>(s);
        cfg = with_resume(std::move(cfg));
        const core::RunResult run = core::run_strategy(
            spec.strategy, spec.episodes, cfg, warm_evaluator);
        const std::string label =
            std::string(core::strategy_name(spec.strategy)) + "/seed" +
            std::to_string(cfg.seed);
        store_total += run.store;
        resumed_total += run.resumed_episodes;
        entries.push_back(run_entry(run_record(s, label, run)));
      });
      break;
    }
  }

  manifest["entries"] = entries;
  // Store-level traffic, shard-total. Deliberately OUTSIDE the entries the
  // merger folds (the merge byte-contract stays untouched — a warm store
  // shifts these without changing any merged byte); the coordinator sums
  // them across manifests into the non-reproducible "dist" stats object.
  util::Json store = util::Json::object();
  store["hits"] = static_cast<long long>(store_total.hits);
  store["misses"] = static_cast<long long>(store_total.misses);
  store["shared_hits"] = static_cast<long long>(store_total.shared_hits);
  store["shared_misses"] = static_cast<long long>(store_total.shared_misses);
  store["bytes_read"] = static_cast<long long>(store_total.bytes_read);
  store["bytes_published"] =
      static_cast<long long>(store_total.bytes_published);
  manifest["store"] = store;
  // Episodes this shard restored from checkpoints instead of re-running —
  // like "store", outside the merged byte-contract (the coordinator sums
  // it into the non-reproducible "dist" stats object).
  manifest["resumed_episodes"] = resumed_total;
  // The spec's metrics delta (lcda-metrics-v1). Rides outside the merge
  // byte-contract like "store"; lcda_run merges the deltas across
  // manifests with the coordinator's own snapshot into the study totals.
  manifest["obs"] =
      obs::Registry::instance().snapshot().delta_since(obs_base).to_json();
  return manifest;
}

namespace {

/// One dispatched spec: progress sidecar lifecycle, run_shard, atomic
/// manifest publication, and the completion line on stderr. Throws on any
/// failure.
void execute_spec(const ShardSpec& spec,
                  core::PerformanceEvaluator* warm_evaluator) {
  if (spec.result_path.empty()) {
    throw std::invalid_argument("worker: spec has no result_path");
  }
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  const bool tracing = !spec.trace_path.empty();
  if (tracing) {
    // Each exported file covers exactly this spec: a resident worker
    // clears between specs, so its ring never mixes two shards' spans.
    tracer.enable();
    tracer.clear();
  }
  {
    char label[32];
    std::snprintf(label, sizeof(label), "shard-%d", spec.index);
    obs::Span span(label);
    std::unique_ptr<ProgressWriter> progress;
    if (!spec.progress_path.empty()) {
      progress = std::make_unique<ProgressWriter>(spec.progress_path);
      progress->begin(spec.attempt);
      progress->start_heartbeats(spec.heartbeat_ms);
    }
    util::Json manifest = run_shard(spec, progress.get(), warm_evaluator);
    if (progress != nullptr) progress->stop_heartbeats();
    write_manifest_atomically(manifest, spec.result_path);
  }
  if (tracing) {
    // After the manifest: an attempt that died mid-spec leaves no trace
    // file, so the gatherer only ever sees complete timelines.
    obs::write_trace_file(
        tracer.export_chrome(static_cast<int>(::getpid()),
                             "worker shard " + std::to_string(spec.index)),
        spec.trace_path);
  }
  std::fprintf(stderr, "worker: shard %d/%d done (%zu seed(s), attempt %d)\n",
               spec.index, spec.count, spec.seeds.size(), spec.attempt);
}

void send_reply(const WorkerReply& reply) {
  const std::string line = encode_worker_reply(reply);
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fflush(stdout);
}

}  // namespace

int run_worker_loop() {
  // Workers always meter: the manifest's "obs" delta is how store totals
  // and engine counters reach the coordinator's merged snapshot. Metering
  // is counter bumps at run/round granularity — noise next to a spec's
  // evaluation work — and it never touches an output byte.
  obs::Registry::instance().enable();
  // Warm evaluators keyed by evaluation identity: a spec whose
  // evaluation_fingerprint matches an earlier one reuses its evaluator,
  // so the striped cost-plan/layer-span memos survive across specs.
  // Surrogate only — the trained evaluator's options are not covered by
  // the fingerprint's replay contract, so it stays per-spec. Bounded so a
  // long-lived worker serving many distinct studies cannot grow without
  // limit (the memos inside one evaluator are already budgeted).
  constexpr std::size_t kMaxWarmEvaluators = 8;
  std::map<std::uint64_t, std::unique_ptr<core::PerformanceEvaluator>> warm;

  std::string line;
  while (std::getline(std::cin, line)) {
    const std::optional<WorkerCommand> cmd = parse_worker_command(line);
    if (!cmd) {
      WorkerReply reply;
      reply.kind = WorkerReply::Kind::kFailed;
      reply.reason = "malformed command line";
      send_reply(reply);
      continue;
    }
    if (cmd->kind == WorkerCommand::Kind::kShutdown) return 0;
    WorkerReply reply;
    try {
      const ShardSpec spec = load_shard_spec(cmd->spec_path);
      core::PerformanceEvaluator* warm_evaluator = nullptr;
      const core::ExperimentConfig& config = spec.scenario.config;
      if (config.evaluator_kind == core::EvaluatorKind::kSurrogate) {
        const std::uint64_t fp = core::evaluation_fingerprint(config);
        auto it = warm.find(fp);
        if (it == warm.end()) {
          if (warm.size() >= kMaxWarmEvaluators) warm.clear();
          it = warm.emplace(fp, core::make_evaluator(config)).first;
        }
        warm_evaluator = it->second.get();
      }
      execute_spec(spec, warm_evaluator);
      reply.kind = WorkerReply::Kind::kDone;
      reply.manifest_path = spec.result_path;
    } catch (const std::exception& e) {
      reply.kind = WorkerReply::Kind::kFailed;
      reply.reason = e.what();
    }
    send_reply(reply);
  }
  // stdin EOF: the coordinator is gone (or closed us out) — exit cleanly.
  return 0;
}

}  // namespace lcda::dist
