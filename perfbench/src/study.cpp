#include "study.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/store/eval_store.h"
#include "lcda/util/rng.h"
#include "lcda/util/thread_pool.h"

namespace perfbench {

using lcda::core::AggregateResult;
using lcda::core::ExperimentConfig;
using lcda::core::RunResult;
using lcda::core::Strategy;

namespace {

// Every workload studies the paper's accuracy-energy scenario.
constexpr const char* kScenario = "paper-energy";

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool is_llm_strategy(Strategy s) {
  return s == Strategy::kLcda || s == Strategy::kLcdaNaive ||
         s == Strategy::kLcdaFinetuned;
}

// make_optimizer's LLM branch, rebuilt so the client can be decorated.
std::unique_ptr<lcda::llm::LlmOptimizer> make_llm_optimizer(
    Strategy strategy, const ExperimentConfig& config, const Probe* probe) {
  lcda::llm::SimulatedGpt4::Options gpt;
  gpt.seed = lcda::util::hash_combine(config.seed, 0x69f7);
  gpt.wrong_cim_kernel_priors = strategy != Strategy::kLcdaFinetuned;
  std::shared_ptr<lcda::llm::LlmClient> client =
      std::make_shared<lcda::llm::SimulatedGpt4>(gpt);
  if (probe != nullptr) {
    client = std::make_shared<TimedClient>(std::move(client), probe->recorder,
                                           probe->counters);
  }
  lcda::llm::LlmOptimizer::Options opts;
  opts.prompt.objective = config.objective;
  opts.prompt.codesign_context = strategy != Strategy::kLcdaNaive;
  return std::make_unique<lcda::llm::LlmOptimizer>(
      lcda::search::SearchSpace(config.space), std::move(client), opts);
}

void tally_transcript(const lcda::llm::LlmOptimizer& opt, SeedTally& t) {
  // LlmOptimizer gives up after max_parse_retries + 1 failed exchanges
  // in a row and proposes a random design instead.
  const int give_up = lcda::llm::LlmOptimizer::Options{}.max_parse_retries + 1;
  int failed_in_a_row = 0;
  for (const auto& ex : opt.transcript()) {
    ++t.llm_turns;
    t.llm_parse_repairs += ex.repairs;
    if (ex.parsed_ok) {
      failed_in_a_row = 0;
      continue;
    }
    ++t.llm_parse_failed;
    if (++failed_in_a_row == give_up) {
      ++t.llm_fallbacks;
      failed_in_a_row = 0;
    }
  }
}

// core::run_strategy, step for step, with decorators when probed.
RunResult run_seed(Strategy strategy, int episodes,
                   const ExperimentConfig& config,
                   lcda::core::PerformanceEvaluator& evaluator,
                   const Probe* probe, std::uint64_t study_span, int study_id,
                   int seed_index, SeedTally& tally) {
  Recorder* rec = probe ? probe->recorder : nullptr;
  ScopedSpan span(rec, "core.seed_run", study_span, study_id, seed_index);
  const std::int64_t start = now_ns();

  std::unique_ptr<lcda::search::Optimizer> optimizer;
  const lcda::llm::LlmOptimizer* llm_optimizer = nullptr;
  if (is_llm_strategy(strategy)) {
    auto llm = make_llm_optimizer(strategy, config, probe);
    llm_optimizer = llm.get();
    optimizer = std::move(llm);
  } else {
    optimizer = lcda::core::make_optimizer(strategy, config);
  }
  std::unique_ptr<TimedOptimizer> timed;
  lcda::search::Optimizer* opt = optimizer.get();
  if (probe != nullptr) {
    timed = std::make_unique<TimedOptimizer>(*optimizer, rec, probe->counters);
    opt = timed.get();
  }

  lcda::core::RewardFunction reward = lcda::core::make_reward(config);
  lcda::core::CodesignLoop::Options opts;
  opts.episodes = episodes;
  opts.parallelism = config.parallelism;
  opts.batch_size = config.batch_size;
  opts.pipeline_depth = config.pipeline_depth;
  opts.cache_evaluations = config.cache_evaluations;

  std::unique_ptr<lcda::store::EvalStore> pstore;
  if (!config.persistent_cache_dir.empty()) {
    lcda::store::EvalStore::Options store_opts;
    store_opts.directory = config.persistent_cache_dir;
    store_opts.eval_fingerprint = lcda::core::evaluation_fingerprint(config);
    store_opts.stream_fingerprint =
        lcda::core::stream_fingerprint(config, strategy, episodes);
    store_opts.legacy_fingerprint =
        lcda::core::study_fingerprint(config, strategy, episodes);
    store_opts.budget = lcda::store::Budget{config.persistent_cache_max_entries,
                                            config.persistent_cache_max_bytes};
    ScopedSpan open_span(rec, "store.open");
    pstore = std::make_unique<lcda::store::EvalStore>(std::move(store_opts));
    opts.persistent_store = pstore.get();
  }

  std::unique_ptr<lcda::ckpt::RunCheckpointer> checkpointer;
  if (!config.checkpoint_dir.empty() && config.checkpoint_every > 0) {
    std::string probe_state;
    if (opt->serialize_state(probe_state)) {
      lcda::ckpt::RunCheckpointer::Options copts;
      copts.directory = config.checkpoint_dir;
      copts.identity = lcda::core::study_fingerprint(config, strategy, episodes);
      tally.ckpt_identity = copts.identity;
      checkpointer = std::make_unique<lcda::ckpt::RunCheckpointer>(copts);
      opts.checkpoint_every = config.checkpoint_every;
      opts.on_snapshot = [cp = checkpointer.get(), rec,
                          &tally](const lcda::core::LoopSnapshot& snap) {
        ScopedSpan s(rec, "ckpt.snapshot");
        const int before = cp->snapshots_written();
        cp->on_snapshot(snap);
        ++tally.snapshots;
        if (cp->snapshots_written() == before) ++tally.snapshots_failed;
      };
      opts.on_round = [cp = checkpointer.get(), rec,
                       &tally](const lcda::core::RoundDelta& delta) {
        ScopedSpan s(rec, "ckpt.log");
        cp->on_round(delta);
        ++tally.rounds_logged;
      };
    }
  }

  lcda::core::CodesignLoop loop(*opt, evaluator, reward, opts);
  lcda::util::Rng rng(lcda::util::hash_combine(
      config.seed, static_cast<std::uint64_t>(strategy) + 101));
  RunResult result = loop.run(rng);
  if (pstore) {
    bool saved = false;
    {
      ScopedSpan save_span(rec, "store.save");
      saved = pstore->save();
    }
    ++tally.saves;
    if (!saved) ++tally.save_failures;
    result.persistent_evictions =
        static_cast<std::int64_t>(pstore->evictions());
    result.persistent_skipped =
        static_cast<std::int64_t>(pstore->skipped_files());
    result.persistent_save_failures =
        static_cast<std::int64_t>(pstore->save_failures());
    const lcda::store::EvalStore::Metrics& m = pstore->metrics();
    result.store.hits = static_cast<std::int64_t>(m.hits);
    result.store.misses = static_cast<std::int64_t>(m.misses);
    result.store.shared_hits = static_cast<std::int64_t>(m.shared_hits);
    result.store.shared_misses = static_cast<std::int64_t>(m.shared_misses);
    result.store.bytes_read = static_cast<std::int64_t>(m.bytes_read);
    result.store.bytes_published = static_cast<std::int64_t>(m.bytes_published);
  }

  tally.wall_ns = now_ns() - start;
  tally.episodes = static_cast<std::int64_t>(result.episodes.size());
  tally.cache_hits = result.cache_hits;
  tally.skipped_files = result.persistent_skipped;
  tally.store_hits = result.store.hits;
  tally.store_misses = result.store.misses;
  tally.store_shared_hits = result.store.shared_hits;
  tally.store_bytes_read = result.store.bytes_read;
  tally.store_bytes_published = result.store.bytes_published;
  if (llm_optimizer != nullptr) tally_transcript(*llm_optimizer, tally);
  return result;
}

// The counters that record where an answer came from (fresh evaluation,
// in-memory alias, disk) rather than what it was. A warm store moves them
// by design, so the digest holds them at zero.
void scrub_provenance(lcda::util::Json& j) {
  for (const char* key : {"cache_misses", "persistent_hits",
                          "persistent_shared_hits", "persistent_skipped",
                          "persistent_save_failures"}) {
    if (j.contains(key)) j[key] = 0;
  }
}

std::string serialize_study(const AggregateResult& agg,
                            const std::vector<RunResult>& runs) {
  lcda::util::Json doc = lcda::core::aggregate_to_json(agg);
  scrub_provenance(doc);
  lcda::util::Json arr = lcda::util::Json::array();
  for (const RunResult& run : runs) {
    lcda::util::Json r =
        lcda::core::run_to_json(run, lcda::core::strategy_name(agg.strategy));
    scrub_provenance(r);
    arr.push_back(std::move(r));
  }
  doc["runs"] = std::move(arr);
  return doc.dump();
}

ExperimentConfig with_dirs(const ExperimentConfig& input,
                           const StudyDirs& dirs) {
  ExperimentConfig config = input;
  config.persistent_cache_dir = dirs.store;
  config.checkpoint_dir = dirs.checkpoint;
  return config;
}

}  // namespace

SeedTally& SeedTally::operator+=(const SeedTally& o) {
  wall_ns += o.wall_ns;
  episodes += o.episodes;
  cache_hits += o.cache_hits;
  llm_turns += o.llm_turns;
  llm_parse_failed += o.llm_parse_failed;
  llm_parse_repairs += o.llm_parse_repairs;
  llm_fallbacks += o.llm_fallbacks;
  saves += o.saves;
  save_failures += o.save_failures;
  skipped_files += o.skipped_files;
  store_hits += o.store_hits;
  store_misses += o.store_misses;
  store_shared_hits += o.store_shared_hits;
  store_bytes_read += o.store_bytes_read;
  store_bytes_published += o.store_bytes_published;
  snapshots += o.snapshots;
  snapshots_failed += o.snapshots_failed;
  rounds_logged += o.rounds_logged;
  return *this;
}

WorkloadSpec workload_spec(const std::string& name, bool tiny,
                           int hardware_threads) {
  // Every workload fans its seed-runs over the thread pool, as
  // core::run_aggregate does: on a shared host each hardware thread's speed
  // drifts on its own, and a study spread over all of them averages that
  // out where a single-threaded study would not. Studies are sized to
  // about 100 ms: a shorter study waits on its slowest thread for a larger
  // share of its wall whenever the host pauses a vCPU, which widens the
  // tail and moves the median from run to run.
  WorkloadSpec w;
  w.name = name;
  w.pool = tiny ? 2 : 8;
  w.parallelism = std::clamp(hardware_threads, 1, 4);
  if (name == "lcda-paper") {
    // Past the prompt's 64-entry history cap, so both the growing-prompt
    // and the capped phase are timed.
    w.strategy = Strategy::kLcda;
    w.episodes = tiny ? 8 : 96;
    w.seeds = tiny ? 4 : 8;
  } else if (name == "store-warm") {
    // Fewer inputs: set-up writes every one of them, cold, three times.
    // 2000 episodes rather than more seeds: every warm lookup probes each
    // segment of the store, one per seed-run, so study cost grows with the
    // square of the seed count but only with the episode count.
    w.strategy = Strategy::kGenetic;
    w.episodes = tiny ? 32 : 2000;
    w.seeds = tiny ? 4 : 32;
    w.pool = tiny ? 2 : 3;
    w.warm_store = true;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

std::vector<ExperimentConfig> derive_inputs(const WorkloadSpec& spec,
                                            std::uint64_t bench_seed) {
  const std::uint64_t family = lcda::util::hash_combine(
      bench_seed,
      lcda::util::fnv1a64(lcda::core::strategy_name(spec.strategy)));
  const ExperimentConfig base =
      lcda::core::scenario_by_name(kScenario).config;
  std::vector<ExperimentConfig> inputs;
  for (int i = 0; i < spec.pool; ++i) {
    ExperimentConfig c = base;
    c.seed = lcda::util::derive_seed(family, static_cast<std::uint64_t>(i));
    c.parallelism = spec.parallelism;
    inputs.push_back(std::move(c));
  }
  return inputs;
}

StudyResult run_study(const WorkloadSpec& spec, const ExperimentConfig& input,
                      int study_id, const StudyDirs& dirs,
                      const Probe* probe, bool serialize) {
  Recorder* rec = probe ? probe->recorder : nullptr;
  const ExperimentConfig config = with_dirs(input, dirs);
  StudyResult out;
  AggregateResult agg;
  std::vector<RunResult> runs(static_cast<std::size_t>(spec.seeds));
  std::vector<SeedTally> tallies(runs.size());
  const std::int64_t start = now_ns();
  {
    ScopedSpan span(rec, "core.study", 0, study_id, -1);
    // core::run_aggregate: one shared evaluator, seeds fanned over a pool
    // sized by the config, results folded in seed order.
    agg.strategy = spec.strategy;
    agg.episodes = spec.episodes;
    agg.seeds = spec.seeds;
    agg.threshold = std::numeric_limits<double>::quiet_NaN();
    agg.running_best.resize(static_cast<std::size_t>(spec.episodes));
    const auto evaluator = lcda::core::make_evaluator(config);
    std::unique_ptr<TimedEvaluator> timed;
    lcda::core::PerformanceEvaluator* eval = evaluator.get();
    if (probe != nullptr) {
      timed = std::make_unique<TimedEvaluator>(*evaluator, rec, probe->counters);
      eval = timed.get();
    }
    const int par =
        lcda::util::ThreadPool::resolve_parallelism(config.parallelism);
    const auto pool =
        par > 1 ? std::make_unique<lcda::util::ThreadPool>(par) : nullptr;
    lcda::util::parallel_for_each_index(
        pool.get(), runs.size(), [&](std::size_t s) {
          const int si = static_cast<int>(s);
          runs[s] = run_seed(
              spec.strategy, spec.episodes,
              lcda::core::aggregate_seed_config(config, si, spec.seeds), *eval,
              probe, span.id(), study_id, si, tallies[s]);
        });
    for (const RunResult& run : runs) {
      const auto rmax = run.reward_running_max();
      for (int e = 0; e < spec.episodes; ++e) {
        agg.running_best[static_cast<std::size_t>(e)].add(
            rmax[static_cast<std::size_t>(e)]);
      }
      agg.final_best.add(run.best_reward());
      agg.cache_hits += run.cache_hits;
      agg.cache_misses += run.cache_misses;
      agg.persistent_hits += run.persistent_hits;
      agg.persistent_shared_hits += run.persistent_shared_hits;
      agg.persistent_skipped += run.persistent_skipped;
      agg.persistent_save_failures += run.persistent_save_failures;
      agg.resumed_episodes += run.resumed_episodes;
    }
  }
  out.wall_ns = now_ns() - start;
  for (const SeedTally& t : tallies) {
    out.total += t;
    if (t.ckpt_identity != 0) out.ckpt_identities.push_back(t.ckpt_identity);
  }
  if (serialize) out.serialized = serialize_study(agg, runs);
  return out;
}

std::string run_study_via_library(const WorkloadSpec& spec,
                                  const ExperimentConfig& input,
                                  const StudyDirs& dirs) {
  const ExperimentConfig config = with_dirs(input, dirs);
  const AggregateResult agg = lcda::core::run_aggregate(
      spec.strategy, spec.episodes, spec.seeds, config,
      std::numeric_limits<double>::quiet_NaN());
  std::vector<RunResult> runs;
  for (int s = 0; s < spec.seeds; ++s) {
    runs.push_back(lcda::core::run_strategy(
        spec.strategy, spec.episodes,
        lcda::core::aggregate_seed_config(config, s, spec.seeds)));
  }
  return serialize_study(agg, runs);
}

}  // namespace perfbench
