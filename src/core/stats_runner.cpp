#include "lcda/core/stats_runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "lcda/util/thread_pool.h"

namespace lcda::core {

// The seed stream is derived by key (order-independent), and the worker
// budget is split between seed-level fan-out and the inner loop — seeds
// get the pool, and only the parallelism the fan-out cannot use
// (seeds < workers) is passed down, so the machine is never
// oversubscribed. Inner parallelism does not affect traces.
ExperimentConfig aggregate_seed_config(const ExperimentConfig& config, int s,
                                       int seeds) {
  ExperimentConfig cfg = config;
  cfg.seed = util::derive_seed(config.seed, static_cast<std::uint64_t>(s));
  const int par = util::ThreadPool::resolve_parallelism(config.parallelism);
  cfg.parallelism = std::max(1, par / std::max(seeds, 1));
  return cfg;
}

namespace {

std::unique_ptr<util::ThreadPool> make_pool(const ExperimentConfig& config) {
  const int par = util::ThreadPool::resolve_parallelism(config.parallelism);
  return par > 1 ? std::make_unique<util::ThreadPool>(par) : nullptr;
}

}  // namespace

SeedSummary summarize_seed(const RunResult& run, double threshold) {
  SeedSummary s;
  s.running_max = run.reward_running_max();
  s.final_best = run.best_reward();
  s.cache_hits = run.cache_hits;
  s.cache_misses = run.cache_misses;
  s.persistent_hits = run.persistent_hits;
  s.persistent_shared_hits = run.persistent_shared_hits;
  s.persistent_skipped = run.persistent_skipped;
  s.persistent_save_failures = run.persistent_save_failures;
  s.resumed_episodes = run.resumed_episodes;
  if (!std::isnan(threshold)) {
    s.threshold_episode = run.episodes_to_reach(threshold);
  }
  return s;
}

void fold_seed(AggregateResult& agg, const SeedSummary& seed) {
  for (std::size_t e = 0; e < agg.running_best.size(); ++e) {
    agg.running_best[e].add(seed.running_max.at(e));
  }
  agg.final_best.add(seed.final_best);
  agg.cache_hits += seed.cache_hits;
  agg.cache_misses += seed.cache_misses;
  agg.persistent_hits += seed.persistent_hits;
  agg.persistent_shared_hits += seed.persistent_shared_hits;
  agg.persistent_skipped += seed.persistent_skipped;
  agg.persistent_save_failures += seed.persistent_save_failures;
  agg.resumed_episodes += seed.resumed_episodes;
  if (seed.threshold_episode >= 0) {
    agg.episodes_to_threshold.add(
        static_cast<double>(seed.threshold_episode) + 1.0);
    ++agg.reached;
  }
}

AggregateResult run_aggregate(Strategy strategy, int episodes, int seeds,
                              const ExperimentConfig& config, double threshold) {
  if (episodes <= 0 || seeds <= 0) {
    throw std::invalid_argument("run_aggregate: episodes/seeds must be positive");
  }
  AggregateResult agg;
  agg.strategy = strategy;
  agg.episodes = episodes;
  agg.seeds = seeds;
  agg.threshold = threshold;
  agg.running_best.resize(static_cast<std::size_t>(episodes));

  // Fan the seeds out over the pool; every run's result is independent of
  // worker scheduling, and the fold below walks them in seed order, so the
  // aggregate is bit-identical to a sequential run. All seeds share one
  // evaluator: its memos are content-keyed and hash-striped, so each
  // hardware config's cost plan is built once for the whole study instead
  // of once per seed, and concurrent seed-runs don't serialize on a lock.
  std::vector<RunResult> runs(static_cast<std::size_t>(seeds));
  const auto evaluator = make_evaluator(config);
  const auto pool = make_pool(config);
  util::parallel_for_each_index(
      pool.get(), static_cast<std::size_t>(seeds), [&](std::size_t s) {
        runs[s] = run_strategy(
            strategy, episodes,
            aggregate_seed_config(config, static_cast<int>(s), seeds),
            evaluator.get());
      });

  for (const RunResult& run : runs) {
    fold_seed(agg, summarize_seed(run, threshold));
  }
  return agg;
}

std::vector<SpeedupReport> speedup_study(const ExperimentConfig& config,
                                         int seeds, double threshold_fraction) {
  if (seeds <= 0) throw std::invalid_argument("speedup_study: seeds");
  std::vector<SpeedupReport> out(static_cast<std::size_t>(seeds));
  const auto evaluator = make_evaluator(config);
  const auto pool = make_pool(config);
  util::parallel_for_each_index(
      pool.get(), static_cast<std::size_t>(seeds), [&](std::size_t s) {
        out[s] = measure_speedup(
            aggregate_seed_config(config, static_cast<int>(s), seeds),
            threshold_fraction, evaluator.get());
      });
  return out;
}

}  // namespace lcda::core
