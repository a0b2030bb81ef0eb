// lcda_run — the scenario-driven experiment CLI.
//
// Every study in this repository is data: a named Scenario (search space,
// evaluator, objective/reward, noise setting, episode budgets) pulled from
// the registry or a JSON file, crossed with one or more strategies and
// seeds. This binary can therefore reproduce any figure of the paper and
// sweep any scenario x strategy grid without writing a new program.
//
//   lcda_run --list
//   lcda_run --scenario=paper-energy --strategy=lcda --seeds=2
//   lcda_run --scenario=paper-latency --strategy=lcda,nacim --json=out.json
//   lcda_run --scenario=tight-area --set space.area_budget_mm2=15
//   lcda_run --scenario-file=my_study.json --trace=trace.csv
//   lcda_run --scenario=paper-energy --aggregate --seeds=8 --json=agg.json
//   lcda_run --scenario=paper-energy --speedup --seeds=4 --trace=speedup.csv
//   lcda_run --scenario=paper-energy --aggregate --seeds=8 --distribute=2
//
// Flags (kFlags below is the authoritative table; a flag that another mode
// would silently ignore is rejected instead):
//   --list                 list registered scenarios and exit
//   --print-config         dump the resolved scenario as JSON and exit
//   --scenario=NAME        registry scenario (see --list)
//   --scenario-file=PATH   load a scenario JSON file instead
//   --scenario-dir=DIR     register every *.json scenario in DIR first
//                          (the LCDA_SCENARIO_DIR environment variable
//                          autoloads a directory the same way)
//   --strategy=A[,B...]    strategies to run (default: the scenario's);
//                          "all" sweeps every strategy. Not with --speedup
//   --aggregate            multi-seed aggregate per strategy instead of the
//                          per-seed episode listing (core::run_aggregate):
//                          running-best mean/stddev across seeds, final-best
//                          statistics, cache traffic. --seeds sets the seed
//                          count; --threshold=R also reports episodes-to-R.
//                          Not with --speedup
//   --speedup              paired LCDA-vs-NACIM episodes-to-threshold study
//                          (core::speedup_study) over --seeds seeds;
//                          --threshold-fraction=F sets the "comparable
//                          solution" bar (default 0.95 of NACIM's best)
//   --threshold=R          reward threshold for --aggregate's
//                          episodes-to-threshold statistic (requires
//                          --aggregate)
//   --threshold-fraction=F speedup threshold fraction (requires --speedup)
//   --episodes=N           override the per-strategy episode budget (not
//                          with --speedup, which takes its budgets from
//                          --set lcda_episodes=N / --set nacim_episodes=N)
//   --seeds=N              seeds per strategy (base, base+1, ...; default 1)
//   --seed=K               override the base seed
//   --set key=value        dotted-path config override (repeatable), e.g.
//                          --set space.conv_layers=4 --set objective=latency
//   --cache-dir=PATH       enable the on-disk evaluation store
//   --checkpoint-dir=DIR   enable crash-resumable checkpoints: each run
//                          journals its engine state (optimizer
//                          internals, RNG cursors, trace, cache log) under
//                          DIR/<study fingerprint>: a record per round,
//                          delta snapshots between them. Trace-invariant:
//                          output is byte-identical with or without it
//   --checkpoint-every=N   episodes between snapshots (default 64; requires
//                          --checkpoint-dir or a scenario checkpoint_dir)
//   --resume               restore the newest valid checkpoint before
//                          running; a run killed at any episode and resumed
//                          this way produces byte-identical final JSON and
//                          trace CSV. Falls back to a cold start (with a
//                          warning) when no usable checkpoint exists
//                          (requires --checkpoint-dir or a scenario
//                          checkpoint_dir)
//   --parallelism=N        worker threads (default: LCDA_PARALLELISM, else 1;
//                          0 = one per hardware thread); traces are
//                          bit-identical for every setting
//   --distribute=N         shard the study across N worker PROCESSES (the
//                          lcda::dist coordinator keeps a pool of N resident
//                          `lcda_run --worker-loop` subprocesses, dispatches
//                          shard specs to them over stdin/stdout pipes and
//                          merges their result manifests); every output —
//                          traces, JSON, cache counters — is byte-identical
//                          to the same command without --distribute (see
//                          README "Scaling out")
//   --max-retries=K        extra attempts per failed shard before the run
//                          aborts (default 2; requires --distribute)
//   --shard-dir=DIR        keep shard specs/manifests in DIR instead of an
//                          auto-cleaned temp directory (requires
//                          --distribute)
//   --keep-shard-dir       keep the automatic temp shard directory (specs,
//                          manifests, progress sidecars) for post-mortem;
//                          without it the temp directory is removed on
//                          success AND failure (requires --distribute)
//   --no-steal             disable straggler work stealing; shards then run
//                          exactly where the planner put them (requires
//                          --distribute)
//   --steal-threshold=K    a shard is a straggler when no seed has started
//                          or finished for longer than K x the median
//                          per-seed wall observed so far (default 2.0, must
//                          be >= 1; requires --distribute)
//   --worker-loop          internal: resident worker — read
//                          lcda-worker-cmd-v1 command lines from stdin, run
//                          each dispatched spec, reply done/failed on stdout
//                          (what --distribute keeps one of per slot)
//   --json=PATH            write the full experiment (runs + traces + cache
//                          counters) as JSON
//   --trace=PATH           write the episode traces as CSV ("-" = stdout;
//                          human-readable output then moves to stderr so
//                          stdout stays valid CSV) — the format CI diffs
//                          against golden traces
//   --trace-spans=PATH     export the span timeline as Chrome trace-event
//                          JSON (load it in Perfetto or chrome://tracing).
//                          With --distribute the coordinator gathers every
//                          worker's per-attempt trace file and merges them
//                          into one timeline: pid 0 is the coordinator,
//                          pid 1+k is shard k. Purely additive — traces,
//                          JSON and manifests stay byte-identical
//   --metrics-out=PATH     write the final metrics snapshot
//                          (lcda-metrics-v1 JSON). Distributed runs fold
//                          every worker manifest's "obs" delta in, so the
//                          per-study store totals equal the manifest sums
//   --metrics-interval=SEC periodic "[obs] t=..s name=value" heartbeat on
//                          stderr while the study runs (and a final line
//                          when it stops)
//   --quiet                suppress the per-episode listing
//
// Store maintenance (act on --cache-dir=DIR, which both require, and exit):
//   --store-compact        merge segments into fresh index buckets, dedupe
//                          republished records, drop corrupt ones
//                          (skip-and-count) and enforce the budget
//                          oldest-first; safe while readers/writers are
//                          live. --store-buckets=N sets the index shard
//                          count (default 16); --store-max-entries=N /
//                          --store-max-bytes=N apply a budget (all three
//                          require --store-compact)
//   --store-fsck           verify every segment and index bucket (headers,
//                          per-record checksums, sort order); exits
//                          nonzero when any damage is found
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "lcda/core/report.h"
#include "lcda/store/eval_store.h"
#include "lcda/core/scenario.h"
#include "lcda/core/stats_runner.h"
#include "lcda/dist/coordinator.h"
#include "lcda/dist/merge.h"
#include "lcda/dist/shard.h"
#include "lcda/obs/metrics.h"
#include "lcda/obs/reporter.h"
#include "lcda/obs/trace.h"
#include "lcda/util/strings.h"
#include "lcda/util/subprocess.h"

namespace {

using namespace lcda;

/// ", N shared" when cross-study reuse happened, "" otherwise — existing
/// cache summary lines (and everything that greps them) stay unchanged
/// until the store actually shares across studies.
std::string shared_hits_suffix(long long shared) {
  return shared > 0 ? ", " + std::to_string(shared) + " shared" : std::string();
}

struct CliOptions {
  bool list = false;
  bool print_config = false;
  bool quiet = false;
  bool aggregate = false;
  bool speedup = false;
  std::string scenario;
  std::string scenario_file;
  std::string scenario_dir;
  std::string strategies;
  std::string cache_dir;
  std::string checkpoint_dir;
  int checkpoint_every = 0;     // 0 = scenario default
  bool resume = false;
  std::string json_path;
  std::string trace_path;
  std::string trace_spans;      // --trace-spans: Chrome trace-event JSON
  std::string metrics_out;      // --metrics-out: final snapshot JSON
  double metrics_interval = 0.0;  // --metrics-interval: stderr heartbeat
  std::string shard_dir;        // --distribute: where shard files live
  bool store_compact = false;   // store maintenance modes (need --cache-dir)
  bool store_fsck = false;
  std::size_t store_buckets = 16;
  std::size_t store_max_entries = 0;
  std::size_t store_max_bytes = 0;
  bool worker_loop = false;     // internal --worker-loop mode
  std::vector<std::string> overrides;
  int episodes = 0;  // 0 = scenario default
  int seeds = 1;
  long long seed = -1;          // -1 = scenario default
  int parallelism = -1;         // -1 = environment default
  int distribute = 0;           // 0 = in-process; N = worker processes
  int max_retries = 2;          // per-shard retry budget (--distribute)
  bool keep_shard_dir = false;  // keep the auto temp shard dir
  bool no_steal = false;        // disable straggler work stealing
  double steal_threshold = 2.0; // stall bar (x median per-seed wall)
  double threshold = std::numeric_limits<double>::quiet_NaN();
  double threshold_fraction = 0.95;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario=NAME [--scenario-dir=DIR] "
               "[--strategy=A,B] [--seeds=N] "
               "[--episodes=N] [--seed=K] [--set key=value ...] "
               "[--cache-dir=DIR] [--parallelism=N] [--json=PATH] "
               "[--trace=PATH|-] [--trace-spans=PATH] [--metrics-out=PATH] "
               "[--metrics-interval=SEC] [--quiet]\n"
               "       %s ... --distribute=N [--max-retries=K] "
               "[--shard-dir=DIR] [--keep-shard-dir] [--no-steal] "
               "[--steal-threshold=K]\n"
               "       %s --scenario=NAME --aggregate [--threshold=R] [...]\n"
               "       %s --scenario=NAME --speedup [--threshold-fraction=F] "
               "[...]\n"
               "       %s --scenario-file=PATH [...]\n"
               "       %s --cache-dir=DIR --store-compact "
               "[--store-buckets=N] [--store-max-entries=N] "
               "[--store-max-bytes=N] | --store-fsck\n"
               "       %s --list | --print-config --scenario=NAME\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Where a flag's value lands. The member's type picks the parse: a bool
/// is a switch, a string takes =VALUE, an integer must be >= the row's
/// `min`, a double must be finite (and pass the row's `accept`), and the
/// vector collects every `--set key=value` / `--set=key=value`.
using Field = std::variant<bool CliOptions::*, std::string CliOptions::*,
                           int CliOptions::*, long long CliOptions::*,
                           std::size_t CliOptions::*, double CliOptions::*,
                           std::vector<std::string> CliOptions::*>;

/// One row of the flag table. `needs` names a flag that must also be
/// given, or with a leading '!' one that must not be; `hint` replaces the
/// default "X requires Y" / "X and Y are exclusive" message. Rows are
/// checked in table order, so the first broken rule is the one reported.
/// A string flag with an empty value ("--cache-dir=", an unset $DIR in a
/// script) counts as not given: it sets nothing the program acts on, so it
/// can neither satisfy a rule nor break one.
/// Integers must be >= `min`; a double may also have to pass `accept`,
/// and `want` says what that asks for.
struct Flag {
  std::string_view name;
  Field field;
  std::string_view needs = {};
  std::string_view hint = {};
  long long min = 0;
  bool (*accept)(double) = nullptr;
  std::string_view want = {};
};

constexpr std::string_view kDistributeOnly =
    "--shard-dir / --max-retries / --keep-shard-dir / --no-steal / "
    "--steal-threshold require --distribute";
constexpr std::string_view kCacheDirOnly =
    "--store-compact/--store-fsck require --cache-dir=DIR";

using O = CliOptions;
const Flag kFlags[] = {
    {"--list", &O::list},
    {"--print-config", &O::print_config},
    {"--aggregate", &O::aggregate, "!--speedup"},
    {"--speedup", &O::speedup, "!--threshold",
     "--threshold applies to --aggregate; --speedup takes --threshold-fraction"},
    {"--threshold", &O::threshold, "--aggregate"},
    {"--threshold-fraction", &O::threshold_fraction, "--speedup"},
    {"--episodes", &O::episodes, "!--speedup",
     "--speedup uses the scenario's episode budgets; override them with "
     "--set lcda_episodes=N / --set nacim_episodes=N instead of --episodes",
     1},
    {"--scenario", &O::scenario},
    {"--scenario-file", &O::scenario_file},
    {"--scenario-dir", &O::scenario_dir},
    {"--strategy", &O::strategies, "!--speedup",
     "--speedup always pairs LCDA with NACIM; drop --strategy"},
    {"--seeds", &O::seeds, {}, {}, 1},
    {"--seed", &O::seed},
    {"--set", &O::overrides},
    {"--cache-dir", &O::cache_dir},
    {"--checkpoint-dir", &O::checkpoint_dir},
    {"--checkpoint-every", &O::checkpoint_every, {}, {}, 1},
    {"--resume", &O::resume},
    {"--parallelism", &O::parallelism},
    {"--distribute", &O::distribute, {}, {}, 1},
    {"--max-retries", &O::max_retries, "--distribute", kDistributeOnly},
    {"--shard-dir", &O::shard_dir, "--distribute", kDistributeOnly},
    {"--keep-shard-dir", &O::keep_shard_dir, "--distribute", kDistributeOnly},
    {"--no-steal", &O::no_steal, "--distribute", kDistributeOnly},
    {"--steal-threshold", &O::steal_threshold, "--distribute", kDistributeOnly,
     0, [](double k) { return k >= 1.0; }, "a number >= 1"},
    {"--worker-loop", &O::worker_loop},
    {"--json", &O::json_path},
    {"--trace", &O::trace_path},
    {"--trace-spans", &O::trace_spans},
    {"--metrics-out", &O::metrics_out},
    {"--metrics-interval", &O::metrics_interval, {}, {}, 0,
     [](double sec) { return sec > 0.0; }, "seconds > 0"},
    {"--quiet", &O::quiet},
    {"--store-compact", &O::store_compact, "--cache-dir", kCacheDirOnly},
    {"--store-fsck", &O::store_fsck, "--cache-dir", kCacheDirOnly},
    {"--store-buckets", &O::store_buckets, "--store-compact", {}, 1},
    {"--store-max-entries", &O::store_max_entries, "--store-compact"},
    {"--store-max-bytes", &O::store_max_bytes, "--store-compact"},
};

/// Stores `value` into the row's field. A typo or out-of-range value must
/// fail loudly, not become 0 (which --parallelism would read as "use every
/// hardware thread") or silently fall back to a default.
void set_field(const Flag& flag, const std::string& value, CliOptions& cli) {
  const auto bad = [&](std::string_view want) {
    return std::invalid_argument("bad value for " + std::string(flag.name) +
                                 ": \"" + value + "\" (want " +
                                 std::string(want) + ")");
  };
  std::visit(
      [&](auto member) {
        auto& field = cli.*member;
        using T = std::remove_reference_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          field = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          field = value;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          field.push_back(value);
        } else if constexpr (std::is_same_v<T, double>) {
          char* end = nullptr;
          field = std::strtod(value.c_str(), &end);
          if (end == value.c_str() || *end != '\0' || !std::isfinite(field)) {
            throw bad("a finite number");
          }
          if (flag.accept != nullptr && !flag.accept(field)) throw bad(flag.want);
        } else {
          const auto parsed = util::parse_int(value);
          if (!parsed || *parsed < flag.min) {
            throw bad("an integer >= " + std::to_string(flag.min));
          }
          field = static_cast<T>(*parsed);
        }
      },
      flag.field);
}

/// Parses argv through kFlags, then checks every given flag's `needs`.
/// Returns 0 when the command line is usable, else the exit status after
/// reporting why. Bad values throw.
int parse_args(int argc, char** argv, CliOptions& cli) {
  std::set<std::string_view> given;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if (f.name == arg.substr(0, eq)) flag = &f;
    }
    const bool is_switch =
        flag != nullptr && std::holds_alternative<bool O::*>(flag->field);
    const bool bare = eq == std::string_view::npos;
    std::string value;
    if (flag != nullptr && !is_switch && !bare) {
      value = arg.substr(eq + 1);
    } else if (flag != nullptr && flag->name == "--set" && bare &&
               i + 1 < argc) {
      value = argv[++i];  // "--set key=value" takes the next argument
    } else if (flag == nullptr || !is_switch || !bare) {
      std::fprintf(stderr, "lcda_run: unknown argument \"%s\"\n",
                   std::string(arg).c_str());
      return usage(argv[0]);
    }
    set_field(*flag, value, cli);
    if (is_switch || !value.empty()) given.insert(flag->name);
  }
  for (const Flag& flag : kFlags) {
    if (flag.needs.empty() || given.count(flag.name) == 0) continue;
    const bool exclusive = flag.needs.front() == '!';
    const std::string other(flag.needs.substr(exclusive ? 1 : 0));
    if ((given.count(other) != 0) != exclusive) continue;
    const std::string rule = exclusive ? " and " + other + " are exclusive"
                                       : " requires " + other;
    std::fprintf(stderr, "lcda_run: %s\n",
                 flag.hint.empty() ? (std::string(flag.name) + rule).c_str()
                                   : std::string(flag.hint).c_str());
    return usage(argv[0]);
  }
  return 0;
}

/// The --strategy list ("all" sweeps every strategy) with per-strategy
/// episode budgets, resolved once so the in-process and distributed paths
/// can never disagree on them. The speedup study has no strategy axis and
/// takes both budgets from the config: one entry.
std::vector<dist::StrategyStudy> resolve_studies(
    const CliOptions& cli, const core::Scenario& scenario,
    dist::ShardMode mode) {
  if (mode == dist::ShardMode::kSpeedup) return {{core::Strategy::kLcda, 0}};
  std::vector<core::Strategy> strategies = {scenario.default_strategy};
  if (util::to_lower(cli.strategies) == "all") {
    strategies = core::all_strategies();
  } else if (!cli.strategies.empty()) {
    strategies.clear();
    for (const std::string& name : util::split(cli.strategies, ',')) {
      strategies.push_back(core::strategy_from_name(util::trim(name)));
    }
  }
  std::vector<dist::StrategyStudy> studies;
  for (core::Strategy strategy : strategies) {
    const int episodes =
        cli.episodes > 0 ? cli.episodes
                         : core::default_episodes(strategy, scenario.config);
    studies.push_back({strategy, episodes});
  }
  return studies;
}

/// A completed distributed study: the executed plan (steal-appended specs
/// included) plus every shard's loaded (and spec-verified) result
/// manifest, index-aligned with specs, and the coordinator's scheduling
/// stats for the "dist" JSON object.
struct DistributedStudy {
  std::vector<dist::ShardSpec> specs;
  std::vector<util::Json> manifests;
  dist::Coordinator::Stats stats;

  /// Study-wide metrics: every worker manifest's "obs" delta folded
  /// together, then the coordinator's own registry merged in. The store
  /// totals and resumed_episodes the summary line and "dist" JSON report
  /// read from here (counters "store.*", "engine.resumed_episodes") —
  /// the same values the old per-manifest-key sums produced, since
  /// run_strategy mirrors each run's counters into the registry exactly
  /// once. Observability only — the numbers shift with pooling and
  /// scheduling, never the bytes.
  obs::MetricsSnapshot obs;

  /// Worker span timelines gathered from the shard directory before it
  /// is cleaned up: one (shard index, export_chrome document) pair per
  /// successful attempt that ran with --trace-spans.
  std::vector<std::pair<int, util::Json>> trace_docs;
};

/// The "dist" object distributed --json documents carry: study-level
/// scheduling counters plus one record per shard that ever existed in the
/// plan. Wall times are real milliseconds, so this object is the one part
/// of a distributed document that is NOT byte-reproducible — consumers
/// diffing documents strip it first (CI does).
util::Json dist_stats_to_json(const DistributedStudy& study) {
  const dist::Coordinator::Stats& stats = study.stats;
  util::Json j = util::Json::object();
  j["planned"] = stats.planned;
  j["spawned"] = stats.spawned;
  j["pool_workers"] = stats.pool_workers;
  j["retries"] = stats.retries;
  j["steals"] = stats.steals;
  j["stolen_seeds"] = stats.stolen_seeds;
  j["dead_workers"] = stats.dead_workers;
  util::Json shards = util::Json::array();
  for (const dist::Coordinator::ShardStats& s : stats.shards) {
    util::Json e = util::Json::object();
    e["index"] = s.index;
    e["seeds"] = s.seeds;
    e["attempts"] = s.attempts;
    e["slot"] = s.slot;
    e["wall_ms"] = s.wall_ms;
    if (s.stolen_from >= 0) e["stolen_from"] = s.stolen_from;
    shards.push_back(e);
  }
  j["shards"] = shards;
  util::Json store = util::Json::object();
  for (const char* key : {"hits", "misses", "shared_hits", "shared_misses",
                          "bytes_read", "bytes_published"}) {
    store[key] = study.obs.counter(std::string("store.") + key);
  }
  j["store"] = store;
  j["resumed_episodes"] = study.obs.counter("engine.resumed_episodes");
  j["steal_considered"] = stats.steal_considered;
  j["steal_suppressed_min_stale"] = stats.steal_suppressed_min_stale;
  j["obs"] = study.obs.to_json();
  return j;
}

/// Plans the study, drives the shard workers to completion through the
/// coordinator, and loads their manifests. The shard directory is the
/// user's --shard-dir (theirs to keep) or an automatic temp directory,
/// removed on success AND failure unless --keep-shard-dir asks for a
/// post-mortem copy.
DistributedStudy run_distributed(const CliOptions& cli,
                                 const core::Scenario& scenario,
                                 dist::ShardMode mode,
                                 const std::vector<dist::StrategyStudy>& studies,
                                 const char* argv0) {
  namespace fs = std::filesystem;
  const bool auto_dir = cli.shard_dir.empty();
  const std::string shard_dir =
      auto_dir ? (fs::temp_directory_path() /
                  ("lcda-shards-" + std::to_string(static_cast<long>(::getpid()))))
                     .string()
               : cli.shard_dir;
  const bool cleanup = auto_dir && !cli.keep_shard_dir;
  const auto release_shard_dir = [&] {
    std::error_code ec;
    if (cleanup) {
      fs::remove_all(shard_dir, ec);
    } else if (auto_dir) {
      std::fprintf(stderr, "lcda_run: shard dir kept at %s\n",
                   shard_dir.c_str());
    }
  };

  DistributedStudy study;
  study.specs =
      dist::plan_shards(scenario, mode, studies, cli.seeds, cli.distribute,
                        cli.threshold, cli.threshold_fraction);

  dist::Coordinator::Options opts;
  opts.worker_command = {util::self_executable_path(argv0)};
  opts.shard_dir = shard_dir;
  opts.max_parallel = cli.distribute;
  opts.max_retries = cli.max_retries;
  opts.verbose = !cli.quiet;  // --quiet silences shard narration too
  opts.enable_steal = !cli.no_steal;
  opts.steal_threshold = cli.steal_threshold;
  opts.trace_spans = !cli.trace_spans.empty();

  try {
    dist::Coordinator coordinator(opts);
    coordinator.run(study.specs);
    study.stats = coordinator.stats();
    study.manifests.reserve(study.specs.size());
    for (const dist::ShardSpec& spec : study.specs) {
      study.manifests.push_back(dist::load_shard_manifest(spec));
    }
    // Fold every worker's metrics delta (the tolerated extra "obs"
    // manifest key), then merge the coordinator's own registry — the
    // dist.* scheduling counters land there at the end of
    // Coordinator::run. Store totals and resumed_episodes read from this
    // snapshot downstream.
    for (const util::Json& manifest : study.manifests) {
      if (!manifest.contains("obs")) continue;
      study.obs.merge(obs::MetricsSnapshot::from_json(manifest.at("obs")));
    }
    study.obs.merge(obs::Registry::instance().snapshot());
    // Worker span timelines must leave the shard directory before the
    // cleanup below removes it. Failed attempts never write a trace
    // file, so missing paths are expected, not errors.
    if (opts.trace_spans) {
      for (const dist::Coordinator::ShardStats& s : study.stats.shards) {
        for (int a = 0; a <= s.attempts; ++a) {
          const std::string path = shard_dir + "/shard-" +
                                   std::to_string(s.index) + "-trace-a" +
                                   std::to_string(a) + ".json";
          std::ifstream in(path);
          if (!in) continue;
          std::ostringstream buf;
          buf << in.rdbuf();
          try {
            study.trace_docs.emplace_back(s.index,
                                          util::Json::parse(buf.str()));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "lcda_run: skipping damaged trace %s: %s\n",
                         path.c_str(), e.what());
          }
        }
      }
    }
  } catch (...) {
    release_shard_dir();
    throw;
  }
  release_shard_dir();

  // One greppable scheduling summary per distributed run (bench_record.sh,
  // CI and humans read it by field name; byte-diffed outputs never include
  // stderr). Store fields come from the merged registry snapshot.
  const dist::Coordinator::Stats& st = study.stats;
  std::fprintf(stderr,
               "[dist] summary: shards=%d spawned=%d retries=%d steals=%d "
               "stolen_seeds=%d dead_workers=%d pool_workers=%d "
               "store_hits=%lld store_shared=%lld store_misses=%lld "
               "store_bytes_read=%lld store_bytes_published=%lld "
               "resumed_episodes=%lld steal_considered=%d "
               "steal_suppressed_min_stale=%d\n",
               st.planned, st.spawned, st.retries, st.steals, st.stolen_seeds,
               st.dead_workers, st.pool_workers, study.obs.counter("store.hits"),
               study.obs.counter("store.shared_hits"),
               study.obs.counter("store.misses"),
               study.obs.counter("store.bytes_read"),
               study.obs.counter("store.bytes_published"),
               study.obs.counter("engine.resumed_episodes"),
               st.steal_considered, st.steal_suppressed_min_stale);
  return study;
}

/// Final observability artifacts, written once just before a successful
/// exit: the Chrome-trace span timeline (--trace-spans) and the final
/// metrics snapshot (--metrics-out). `study` is non-null on distributed
/// runs: its gathered worker timelines land on per-shard pid lanes
/// (pid 1+k for shard k; the coordinator owns pid 0) and its merged
/// snapshot — not the local registry — becomes the metrics document, so
/// per-study store totals equal the manifest-summed values.
void write_observability(const CliOptions& cli, const DistributedStudy* study) {
  if (!cli.trace_spans.empty()) {
    util::Json doc = obs::SpanTracer::instance().export_chrome(
        0, study != nullptr ? "coordinator" : "lcda_run");
    if (study != nullptr) {
      util::Json& events = doc["traceEvents"];
      for (const auto& [index, worker_doc] : study->trace_docs) {
        obs::append_chrome_events(events, worker_doc, 1 + index,
                                  "worker shard " + std::to_string(index));
      }
    }
    obs::write_trace_file(doc, cli.trace_spans);
    std::fprintf(stderr, "[obs] wrote span timeline %s\n",
                 cli.trace_spans.c_str());
  }
  if (!cli.metrics_out.empty()) {
    obs::write_metrics_file(study != nullptr
                                ? study->obs
                                : obs::Registry::instance().snapshot(),
                            cli.metrics_out);
    std::fprintf(stderr, "[obs] wrote metrics %s\n", cli.metrics_out.c_str());
  }
}

/// What one study produced, whichever way it ran: the records of its mode
/// (runs, aggregates or speedup reports) and, with --distribute, the
/// distributed study they were merged from.
struct Outcome {
  std::vector<dist::MergedRun> runs;
  std::vector<core::AggregateResult> aggregates;
  std::vector<core::SpeedupReport> reports;
  std::optional<DistributedStudy> distributed;
  /// In-process only: each run's episodes for the listing (empty with
  /// --quiet) and the episodes restored from checkpoints.
  std::vector<std::vector<core::EpisodeRecord>> listings;
  long long resumed_episodes = 0;
};

/// Executes the study: in this process, or sharded across worker
/// processes with the manifests merged back into the records the
/// in-process path would have produced, byte for byte. Runs-mode records
/// go through the worker's own manifest entry on both paths.
Outcome run_study(const CliOptions& cli, const core::Scenario& scenario,
                  dist::ShardMode mode,
                  const std::vector<dist::StrategyStudy>& studies,
                  const char* argv0) {
  Outcome out;
  if (cli.distribute > 0) {
    const DistributedStudy& d = out.distributed.emplace(
        run_distributed(cli, scenario, mode, studies, argv0));
    if (mode == dist::ShardMode::kRuns) {
      out.runs = dist::merge_runs(d.specs, d.manifests);
    } else if (mode == dist::ShardMode::kSpeedup) {
      out.reports = dist::merge_speedup(d.specs, d.manifests);
    } else {
      // Work stealing appends specs out of plan order: select each
      // study's shards by the study_slot the planner stamped.
      for (int slot = 0; slot < static_cast<int>(studies.size()); ++slot) {
        std::vector<dist::ShardSpec> specs;
        std::vector<util::Json> manifests;
        for (std::size_t i = 0; i < d.specs.size(); ++i) {
          if (d.specs[i].study_slot != slot) continue;
          specs.push_back(d.specs[i]);
          manifests.push_back(d.manifests[i]);
        }
        out.aggregates.push_back(dist::merge_aggregate(specs, manifests));
      }
    }
  } else if (mode == dist::ShardMode::kSpeedup) {
    out.reports = core::speedup_study(scenario.config, cli.seeds,
                                      cli.threshold_fraction);
    for (const core::SpeedupReport& r : out.reports) {
      out.resumed_episodes += r.resumed_episodes;
    }
  } else if (mode == dist::ShardMode::kAggregate) {
    for (const dist::StrategyStudy& study : studies) {
      out.aggregates.push_back(core::run_aggregate(
          study.strategy, study.episodes, cli.seeds, scenario.config,
          cli.threshold));
      out.resumed_episodes += out.aggregates.back().resumed_episodes;
    }
  } else {
    for (const dist::StrategyStudy& study : studies) {
      for (int s = 0; s < cli.seeds; ++s) {
        core::ExperimentConfig config = scenario.config;
        config.seed += static_cast<std::uint64_t>(s);
        core::RunResult run =
            core::run_strategy(study.strategy, study.episodes, config);
        const std::string label =
            std::string(core::strategy_name(study.strategy)) + "/seed" +
            std::to_string(config.seed);
        out.runs.push_back(dist::run_record(s, label, run,
                                            !cli.json_path.empty(),
                                            !cli.trace_path.empty()));
        if (!cli.quiet) out.listings.push_back(std::move(run.episodes));
        out.resumed_episodes += run.resumed_episodes;
      }
    }
  }
  return out;
}

/// Prints the study's summary, then writes --trace, --json and the
/// observability artifacts. The one output path of every mode: quiet
/// stdout, the trace and the JSON (but for "dist") cannot tell how the
/// study ran. Consumes `out`: each run's JSON moves into the document
/// instead of being copied.
int emit(const CliOptions& cli, const core::Scenario& scenario,
         dist::ShardMode mode, Outcome out, std::FILE* human) {
  if (!out.distributed && !scenario.config.checkpoint_dir.empty()) {
    std::fprintf(stderr, "[ckpt] %s: resumed_episodes=%lld\n",
                 std::string(dist::shard_mode_name(mode)).c_str(),
                 out.resumed_episodes);
  }
  util::Json doc = util::Json::object();
  doc["experiment"] = scenario.name;
  doc["seed"] = static_cast<long long>(scenario.config.seed);
  // The --trace rows, written after the summary; runs mode's stay in
  // their records until then.
  std::ostringstream csv;

  if (mode == dist::ShardMode::kRuns) {
    util::Json runs = util::Json::array();
    for (std::size_t i = 0; i < out.runs.size(); ++i) {
      dist::MergedRun& run = out.runs[i];
      std::fprintf(human, "\n== %s (%lld episodes) ==\n", run.label.c_str(),
                   run.episodes);
      if (i < out.listings.size()) {
        for (const core::EpisodeRecord& ep : out.listings[i]) {
          std::fprintf(human,
                       "  ep %3d  reward %+8.3f  acc %.3f  E %10.4g pJ  "
                       "L %10.4g ns  %s%s\n",
                       ep.episode, ep.reward, ep.accuracy, ep.energy_pj,
                       ep.latency_ns, ep.design.rollout_text().c_str(),
                       ep.valid ? "" : "  [invalid]");
        }
      }
      std::fprintf(human, "best reward %+0.4f at episode %d (%s)\n",
                   run.best_reward, run.best_episode, run.best_design.c_str());
      std::fprintf(human,
                   "cache: %lld hits, %lld misses, %lld persistent hits%s\n",
                   run.cache_hits, run.cache_misses, run.persistent_hits,
                   shared_hits_suffix(run.persistent_shared_hits).c_str());
      runs.push_back(std::move(run.run_json));
    }
    doc["runs"] = runs;
  } else if (mode == dist::ShardMode::kAggregate) {
    std::fprintf(human, "%-14s %8s %8s %10s %10s %10s %10s\n", "strategy",
                 "episodes", "seeds", "best mean", "stddev", "min", "max");
    util::Json aggregates = util::Json::array();
    for (const core::AggregateResult& agg : out.aggregates) {
      std::fprintf(human, "%-14s %8d %8d %10.4f %10.4f %10.4f %10.4f\n",
                   std::string(core::strategy_name(agg.strategy)).c_str(),
                   agg.episodes, agg.seeds, agg.final_best.mean(),
                   agg.final_best.stddev(), agg.final_best.min(),
                   agg.final_best.max());
      if (!std::isnan(agg.threshold)) {
        std::fprintf(human,
                     "  threshold %+0.4f: %d/%d seeds reached, "
                     "mean %.1f episodes\n",
                     agg.threshold, agg.reached, agg.seeds,
                     agg.episodes_to_threshold.mean());
      }
      std::fprintf(human, "  cache: %lld hits, %lld misses, %lld persistent%s\n",
                   static_cast<long long>(agg.cache_hits),
                   static_cast<long long>(agg.cache_misses),
                   static_cast<long long>(agg.persistent_hits),
                   shared_hits_suffix(agg.persistent_shared_hits).c_str());
      core::write_aggregate_csv(csv, agg, core::strategy_name(agg.strategy));
      aggregates.push_back(core::aggregate_to_json(agg));
    }
    doc["seeds"] = cli.seeds;
    doc["aggregates"] = aggregates;
  } else {
    std::fprintf(human, "%-6s %12s %10s %10s %10s %10s\n", "seed",
                 "threshold", "lcda eps", "nacim eps", "nacim best",
                 "speedup");
    util::OnlineStats speedups;
    for (std::size_t s = 0; s < out.reports.size(); ++s) {
      const core::SpeedupReport& r = out.reports[s];
      std::fprintf(human, "%-6zu %12.4f %10d %10d %10.4f %9.1fx\n", s,
                   r.threshold, r.lcda_episodes, r.nacim_episodes,
                   r.nacim_best, r.speedup());
      if (r.speedup() > 0.0) speedups.add(r.speedup());
    }
    if (speedups.count() > 0) {
      std::fprintf(human, "mean speedup over %zu seed(s): %.1fx\n",
                   speedups.count(), speedups.mean());
    }
    core::write_speedup_csv(csv, out.reports, scenario.name);
    doc["speedup_study"] = core::speedup_study_to_json(out.reports);
  }

  // --trace=- writes the CSV to stdout (narration then went to stderr).
  if (!cli.trace_path.empty()) {
    std::ofstream file;
    if (cli.trace_path != "-") {
      file.open(cli.trace_path, std::ios::trunc);
      if (!file) {
        std::fprintf(stderr, "lcda_run: cannot write %s\n",
                     cli.trace_path.c_str());
        return 1;
      }
    }
    std::ostream& trace = cli.trace_path == "-" ? std::cout : file;
    trace << csv.str();
    for (const dist::MergedRun& run : out.runs) trace << run.csv;
  }
  if (!cli.json_path.empty()) {
    doc["scenario"] = core::scenario_to_json(scenario);
    if (out.distributed) doc["dist"] = dist_stats_to_json(*out.distributed);
    core::write_json_file(doc, cli.json_path);
    std::fprintf(human, "\nwrote %s\n", cli.json_path.c_str());
  }
  write_observability(cli, out.distributed ? &*out.distributed : nullptr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  try {
    if (const int status = parse_args(argc, argv, cli)) return status;

    // Internal worker mode: --worker-loop stays resident and executes
    // specs dispatched over stdin until `shutdown` or EOF. Everything a
    // shard needs travels in its spec file, so no other flag applies.
    if (cli.worker_loop) return dist::run_worker_loop();

    // Arm observability before any worker thread exists: the enabled
    // flags are plain bools, written single-threaded here and only read
    // afterwards. Distributed runs always meter — the merged registry
    // feeds the "dist" JSON store totals and the summary line. Worker
    // processes never reach this point; they arm themselves at
    // run_worker_loop entry.
    if (!cli.metrics_out.empty() || cli.metrics_interval > 0.0 ||
        !cli.trace_spans.empty() || cli.distribute > 0) {
      obs::Registry::instance().enable();
    }
    if (!cli.trace_spans.empty()) obs::SpanTracer::instance().enable();
    std::optional<obs::StatsReporter> reporter;
    if (cli.metrics_interval > 0.0) reporter.emplace(cli.metrics_interval);

    // Store maintenance modes: act on the store directory and exit.
    if (cli.store_compact) {
      const store::CompactionReport rep = store::compact_store(
          cli.cache_dir, {cli.store_max_entries, cli.store_max_bytes},
          cli.store_buckets);
      std::printf(
          "store-compact %s: %zu files merged (%zu unreadable dropped), "
          "%zu records kept, %zu duplicates dropped, %zu corrupt dropped, "
          "%zu evicted\n",
          cli.cache_dir.c_str(), rep.input_files, rep.skipped_files,
          rep.records_kept, rep.duplicates_dropped, rep.corrupt_dropped,
          rep.evicted);
    }
    if (cli.store_fsck) {
      const store::FsckReport rep = store::fsck(cli.cache_dir);
      std::printf(
          "store-fsck %s: %zu files, %zu records ok, %zu bad files, "
          "%zu bad records -> %s\n",
          cli.cache_dir.c_str(), rep.files, rep.records, rep.bad_files,
          rep.bad_records, rep.clean() ? "clean" : "DAMAGED");
      if (!rep.clean()) return 1;
    }
    if (cli.store_compact || cli.store_fsck) {
      write_observability(cli, nullptr);
      return 0;
    }

    // Tracing to stdout reserves it for CSV; narration moves to stderr.
    std::FILE* const human = cli.trace_path == "-" ? stderr : stdout;

    if (!cli.scenario_dir.empty()) {
      (void)core::register_scenarios_from(cli.scenario_dir);
    }

    if (cli.list) {
      std::fprintf(human, "%-16s %s\n", "scenario", "what it stresses");
      for (const std::string& name : core::list_scenarios()) {
        const core::Scenario s = core::scenario_by_name(name);
        std::fprintf(human, "%-16s %s  [default strategy: %s]\n",
                     s.name.c_str(), s.summary.c_str(),
                     std::string(core::strategy_name(s.default_strategy)).c_str());
        if (!s.description.empty()) {
          std::fprintf(human, "%-16s %s\n", "", s.description.c_str());
        }
      }
      return 0;
    }

    if (cli.scenario.empty() == cli.scenario_file.empty()) {
      std::fprintf(stderr,
                   "lcda_run: exactly one of --scenario / --scenario-file "
                   "is required\n");
      return usage(argv[0]);
    }
    core::Scenario scenario = cli.scenario_file.empty()
                                  ? core::scenario_by_name(cli.scenario)
                                  : core::load_scenario(cli.scenario_file);

    core::ExperimentConfig& config = scenario.config;
    for (const std::string& kv : cli.overrides) core::apply_override(config, kv);
    if (cli.seed >= 0) config.seed = static_cast<std::uint64_t>(cli.seed);
    config.parallelism =
        cli.parallelism >= 0 ? cli.parallelism : core::env_parallelism();
    if (!cli.cache_dir.empty()) config.persistent_cache_dir = cli.cache_dir;
    if (!cli.checkpoint_dir.empty()) config.checkpoint_dir = cli.checkpoint_dir;
    if (cli.checkpoint_every > 0) config.checkpoint_every = cli.checkpoint_every;
    if (cli.resume) config.resume = true;
    // The one rule the flag table cannot hold: a scenario's own
    // checkpoint_dir satisfies it as well as --checkpoint-dir.
    if ((cli.checkpoint_every > 0 || cli.resume) &&
        config.checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "lcda_run: --checkpoint-every/--resume require "
                   "--checkpoint-dir (or a scenario checkpoint_dir)\n");
      return 2;
    }

    if (cli.print_config) {
      std::printf("%s\n", core::scenario_to_json(scenario).dump(2).c_str());
      return 0;
    }

    const dist::ShardMode mode = cli.aggregate ? dist::ShardMode::kAggregate
                                 : cli.speedup ? dist::ShardMode::kSpeedup
                                               : dist::ShardMode::kRuns;
    const std::vector<dist::StrategyStudy> studies =
        resolve_studies(cli, scenario, mode);

    std::fprintf(human, "# scenario %s: %s\n", scenario.name.c_str(),
                 scenario.summary.c_str());
    std::fprintf(human, "# parallelism %d, base seed %llu\n",
                 config.parallelism,
                 static_cast<unsigned long long>(config.seed));

    return emit(cli, scenario, mode,
                run_study(cli, scenario, mode, studies, argv[0]), human);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcda_run: %s\n", e.what());
    return 1;
  }
}
