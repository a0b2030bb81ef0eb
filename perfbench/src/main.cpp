// lcda_perfbench — one workload of the repository benchmark.
//
//   lcda_perfbench --workload NAME --seed N --seconds S
//                  [--size full|tiny] [--work-dir DIR] [--trace-out PATH]
//                  [--store-root DIR] [--check-library]
//
// Runs, in one process: set-up (repeated, median reported), an untraced
// pass that runs studies back to back for S seconds (end-to-end
// metrics), and a traced pass over every study input once (per-layer
// metrics, span timeline). Both passes check every study's serialized
// result; see perfbench/README.md. The last stdout line is a JSON report
// that perfbench/run.py turns into the benchmark's result line.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/store/eval_store.h"
#include "lcda/util/json_lite.h"
#include "lcda/util/rng.h"
#include "spans.h"
#include "study.h"

namespace fs = std::filesystem;
using perfbench::StudyDirs;
using perfbench::StudyResult;
using perfbench::WorkloadSpec;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;
  std::string work_dir;
  std::string trace_out;
  std::string store_root;  // overrides where study stores live (tests)
  bool check_library = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "lcda_perfbench: %s\nusage: lcda_perfbench --workload NAME "
               "--seed N --seconds S [--size full|tiny] [--work-dir DIR] "
               "[--trace-out PATH] [--store-root DIR] [--check-library]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--size") {
      const std::string v = value();
      if (v != "full" && v != "tiny") usage("--size must be full or tiny");
      a.tiny = v == "tiny";
    }
    else if (flag == "--work-dir") a.work_dir = value();
    else if (flag == "--trace-out") a.trace_out = value();
    else if (flag == "--store-root") a.store_root = value();
    else if (flag == "--check-library") a.check_library = true;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::int64_t tree_bytes(const std::string& dir) {
  std::error_code ec;
  std::int64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<std::int64_t>(it->file_size(ec));
    }
  }
  return total;
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Failures of the correctness gate and of counted operations.
struct Gate {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;  ///< correctness failures (also counted in failed)
  std::vector<std::string> problems;

  void problem(const std::string& what) {
    ++failed;
    ++wrong;
    if (problems.size() < 20) problems.push_back(what);
    std::fprintf(stderr, "lcda_perfbench: FAIL %s\n", what.c_str());
  }
  /// Counts a study's library-level operations: LLM turns (failed when the
  /// optimizer fell back to a random design), store saves, checkpoint
  /// snapshot writes.
  void count_ops(const perfbench::SeedTally& t) {
    attempted += t.llm_turns + t.saves + t.snapshots;
    failed += t.llm_fallbacks + t.save_failures + t.snapshots_failed;
  }
};

class Workload {
 public:
  Workload(const Args& args, WorkloadSpec spec)
      : args_(args),
        spec_(std::move(spec)),
        inputs_(perfbench::derive_inputs(spec_, args.seed)),
        reference_(inputs_.size()) {}

  std::size_t pool() const { return inputs_.size(); }
  Gate& gate() { return gate_; }
  std::string root() const { return args_.work_dir; }

  /// Everything before the first timed study: a fresh work directory, for
  /// store-warm the store the timed studies read, and one untimed warm-up
  /// study. Returns the seconds this took, the benchmark's own checks
  /// (serializing and digesting results, loading checkpoints, fsck)
  /// excluded; `check` runs them (the repeats skip them: the traced
  /// population checks the same write path again).
  double set_up(bool check) {
    const auto t0 = std::chrono::steady_clock::now();
    remove_tree(root());
    fs::create_directories(root());
    double s = seconds_since(t0);
    if (spec_.warm_store) {
      s += populate(nullptr, "cold population", check).seconds;
    }
    const StudyResult warm_up = run(0, nullptr, -1, false);
    account(warm_up, 0, "warm-up");
    return s + static_cast<double>(warm_up.wall_ns) / 1e9;
  }

  /// The write path: one cold run of every input, each into a fresh store
  /// of its own and checkpointing into a fresh directory. Every checkpoint
  /// must load and every store must pass fsck; the results become the
  /// reference the warm studies must reproduce byte for byte. A store per
  /// input makes every warm study the same re-run of its own cold study:
  /// one shared store would make an input's lookups cost more the later
  /// its segments sit in the probe order, and the timed studies would
  /// split into per-input clusters whose median falls between two of them.
  struct Population {
    perfbench::SeedTally total;
    double seconds = 0.0;  ///< inside study calls
  };
  Population populate(const perfbench::Probe* probe, const char* pass,
                      bool check) {
    Population pop;
    const std::string base =
        args_.store_root.empty() ? root() : args_.store_root;
    stores_.clear();
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      stores_.push_back(base + "/store-" + std::to_string(dirs_++));
      const StudyDirs dirs{stores_.back(),
                           root() + "/ckpt-" + std::to_string(dirs_++)};
      const StudyResult r = perfbench::run_study(
          spec_, inputs_[i], static_cast<int>(i), dirs, probe, check);
      account(r, i, pass);
      pop.total += r.total;
      pop.seconds += static_cast<double>(r.wall_ns) / 1e9;
      if (!check) {
        remove_tree(dirs.checkpoint);
        continue;
      }
      if (r.ckpt_identities.size() != static_cast<std::size_t>(spec_.seeds)) {
        gate_.problem(std::string(pass) + ": not every seed-run checkpointed");
      }
      for (std::uint64_t id : r.ckpt_identities) {
        const auto resume = lcda::ckpt::load_resume(dirs.checkpoint, id);
        if (!resume || resume->next_episode != spec_.episodes) {
          gate_.problem(std::string(pass) + ": checkpoint " + hex(id) +
                        " of input " + std::to_string(i) + " does not load");
        }
      }
      if (probe != nullptr) {
        traced_checkpoint_bytes_ += tree_bytes(dirs.checkpoint);
      }
      remove_tree(dirs.checkpoint);
      const lcda::store::FsckReport f = lcda::store::fsck(stores_.back());
      if (!f.clean() || f.files == 0) {
        gate_.problem(std::string(pass) + ": store of input " +
                      std::to_string(i) + " fails fsck (" +
                      std::to_string(f.files) + " files, " +
                      std::to_string(f.bad_files + f.bad_records) + " bad)");
      }
    }
    return pop;
  }

  /// One timed study of input `index % pool` (against that input's last
  /// populated store on store-warm); `check` keeps its serialized result.
  StudyResult run(std::size_t index, const perfbench::Probe* probe, int id,
                  bool check) {
    const std::size_t i = index % inputs_.size();
    const StudyDirs dirs{spec_.warm_store ? stores_[i] : "", ""};
    return perfbench::run_study(spec_, inputs_[i], id, dirs, probe, check);
  }

  /// Counts a finished study's operations and, when it kept its serialized
  /// result, checks the bytes against the first run of the same input.
  void account(const StudyResult& r, std::size_t index, const char* pass) {
    const std::size_t i = index % inputs_.size();
    ++gate_.attempted;
    gate_.count_ops(r.total);
    if (r.serialized.empty()) return;
    const std::uint64_t digest = lcda::util::fnv1a64(r.serialized);
    if (reference_[i] == 0) {
      reference_[i] = digest;
    } else if (reference_[i] != digest) {
      gate_.problem(std::string(pass) + ": input " + std::to_string(i) +
                    " serialized to different bytes (" + hex(digest) +
                    " vs " + hex(reference_[i]) + ")");
    }
  }

  /// Bytes of the checkpoint directories the traced population left.
  std::int64_t traced_checkpoint_bytes() const {
    return traced_checkpoint_bytes_;
  }

  std::uint64_t digest() const {
    std::string all;
    for (std::uint64_t d : reference_) all += hex(d);
    return lcda::util::fnv1a64(all);
  }

 private:
  const Args& args_;
  WorkloadSpec spec_;
  std::vector<lcda::core::ExperimentConfig> inputs_;
  std::vector<std::uint64_t> reference_;  // per-input digest, 0 = unseen
  std::vector<std::string> stores_;  // per input, read by timed studies
  std::size_t dirs_ = 0;             // names fresh directories
  std::int64_t traced_checkpoint_bytes_ = 0;
  Gate gate_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
// launching process's footprint whenever that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

void print_metric(const Metric& m) {
  std::printf("metric %-24s %16.6f %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

lcda::util::Json metrics_json(const std::vector<Metric>& ms) {
  lcda::util::Json j = lcda::util::Json::object();
  for (const Metric& m : ms) {
    lcda::util::Json v = lcda::util::Json::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    j[m.name] = v;
  }
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  Args args = parse_args(argc, argv);
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  WorkloadSpec spec;
  try {
    spec = perfbench::workload_spec(args.workload, args.tiny, hw);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  if (args.work_dir.empty()) {
    args.work_dir = ".bench_out/" + spec.name + "-" +
                    std::to_string(static_cast<long>(::getpid()));
  }
  if (args.trace_out.empty()) {
    args.trace_out = ".bench_out/trace-" + spec.name + ".json";
  }
  // The traced threads' lanes are handed back at thread exit, including
  // the main thread's after main returns, so the recorder must be static.
  static perfbench::Recorder recorder;

  Workload w(args, spec);
  Gate& gate = w.gate();
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::map<std::string, perfbench::LayerTime> times;
  std::vector<double> setup_s;
  double first_setup_done_s = 0.0;
  try {
    // --- set-up, repeated; the median is the reported set-up time.
    const int setups = args.tiny ? 2 : 3;
    for (int k = 0; k < setups; ++k) {
      setup_s.push_back(w.set_up(k == 0));
      if (k == 0) first_setup_done_s = seconds_since(process_start);
    }

    // --- untraced pass: studies back to back for --seconds. The first
    // round over the inputs keeps its serialized results (the reference
    // the traced pass must reproduce); later studies skip that cost.
    std::vector<double> wall_ms;
    std::vector<std::vector<double>> per_input(w.pool());
    std::int64_t episodes = 0;
    std::int64_t busy_ns = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(args.seconds);
    for (std::size_t i = 0;
         i < w.pool() || std::chrono::steady_clock::now() < deadline; ++i) {
      const StudyResult r =
          w.run(i, nullptr, static_cast<int>(i), i < w.pool());
      wall_ms.push_back(static_cast<double>(r.wall_ns) / 1e6);
      per_input[i % w.pool()].push_back(wall_ms.back());
      episodes += r.total.episodes;
      busy_ns += r.wall_ns;
      w.account(r, i, "untraced");
    }
    const double rss = peak_rss_mb();

    // --- traced pass: decorators installed, every input once. store-warm
    // first writes a fresh store (the traced cold population), then reads
    // it back.
    perfbench::LayerCounters counters;
    const perfbench::Probe probe{&recorder, &counters};
    perfbench::SeedTally traced;
    if (spec.warm_store) {
      traced += w.populate(&probe, "traced population", true).total;
    }
    std::int64_t traced_wall_ns = 0;
    std::int64_t traced_seed_runs_ns = 0;  // the same studies' seed-runs
    double untraced_same_inputs_ms = 0.0;
    for (std::size_t i = 0; i < w.pool(); ++i) {
      const StudyResult r = w.run(i, &probe, static_cast<int>(i), true);
      traced += r.total;
      traced_wall_ns += r.wall_ns;
      traced_seed_runs_ns += r.total.wall_ns;
      untraced_same_inputs_ms += median(per_input[i]);
      w.account(r, i, "traced");
    }
    const int unaccounted = perfbench::unaccounted_seed_runs(recorder);
    if (unaccounted > 0) {
      gate.problem(std::to_string(unaccounted) +
                   " seed-runs whose layer spans overlap or overrun them");
    }
    const fs::path trace_dir = fs::path(args.trace_out).parent_path();
    if (!trace_dir.empty()) fs::create_directories(trace_dir);
    // The timeline holds the first traced study, which keeps the file a
    // few MB; the per-layer metrics cover every traced study.
    recorder.write_chrome_trace(args.trace_out, static_cast<int>(::getpid()),
                                0);
    times = perfbench::layer_times(recorder);

    if (args.check_library) {
      const auto inputs = perfbench::derive_inputs(spec, args.seed);
      for (std::size_t i = 0; i < w.pool(); ++i) {
        const StudyResult mine =
            w.run(i, nullptr, static_cast<int>(i), true);
        StudyDirs lib;
        if (spec.warm_store) {
          lib = {w.root() + "/library-store", w.root() + "/library-ckpt"};
        }
        const std::string theirs =
            perfbench::run_study_via_library(spec, inputs[i], lib);
        remove_tree(lib.store);
        remove_tree(lib.checkpoint);
        ++gate.attempted;
        if (theirs != mine.serialized) {
          gate.problem("input " + std::to_string(i) +
                       ": composition differs from core::run_aggregate");
        }
      }
    }

    // --- end-to-end metrics (untraced pass).
    const std::size_t n = wall_ms.size();
    std::vector<double> sorted = wall_ms;
    std::sort(sorted.begin(), sorted.end());
    // The highest percentile with at least ten studies beyond it; a short
    // run with too few studies for that percentile to sit above the median
    // reports the maximum instead.
    const bool full_tail = n > 20;
    const std::size_t tail_index = full_tail ? n - 11 : n - 1;
    const double tail_pct = 100.0 * static_cast<double>(tail_index + 1) /
                            static_cast<double>(n);
    e2e.push_back({"episodes_per_s",
                   static_cast<double>(episodes) /
                       (static_cast<double>(busy_ns) / 1e9),
                   "1/s"});
    e2e.push_back({"study_ms_p50", median(wall_ms), "ms"});
    e2e.push_back({"study_ms_tail", sorted[tail_index], "ms"});
    e2e.push_back({"setup_s", median(setup_s), "s"});
    e2e.push_back({"peak_rss_mb", rss, "MB"});
    std::printf("note study_ms_tail is p%.2f of %zu studies%s\n", tail_pct, n,
                full_tail ? "" : " (fewer than 21 studies: the maximum)");
    std::printf("note studies=%zu episodes_per_study=%d seeds_per_study=%d "
                "pool=%zu hardware_threads=%d\n",
                n, spec.episodes, spec.seeds, w.pool(), hw);
    std::printf("note the first set-up ended %.4f s after process start\n",
                first_setup_done_s);

    // --- per-layer metrics (traced pass).
    auto self_us = [&](const char* name) {
      auto it = times.find(name);
      return it == times.end() ? 0.0 : us(it->second.self_ns);
    };
    auto total_us = [&](const char* name) {
      auto it = times.find(name);
      return it == times.end() ? 0.0 : us(it->second.total_ns);
    };
    auto count = [](const std::atomic<std::int64_t>& c) {
      return static_cast<double>(c.load());
    };
    auto num = [](std::int64_t v) { return static_cast<double>(v); };
    layers = {
        {"llm.turns", num(traced.llm_turns), "count"},
        {"llm.complete_us", total_us("llm.complete"), "us"},
        {"llm.prompt_bytes", count(counters.llm_prompt_bytes), "bytes"},
        {"llm.response_bytes", count(counters.llm_response_bytes), "bytes"},
        {"llm.parse_failed", num(traced.llm_parse_failed), "count"},
        {"llm.parse_repairs", num(traced.llm_parse_repairs), "count"},
        {"search.propose_us", self_us("search.propose"), "us"},
        {"search.feedback_us", self_us("search.feedback"), "us"},
        {"search.rounds", count(counters.search_rounds), "count"},
        {"search.proposals", count(counters.search_proposals), "count"},
        {"eval.designs", count(counters.eval_designs), "count"},
        {"eval.busy_us", total_us("eval.evaluate") + total_us("eval.replay"),
         "us"},
        {"eval.replays", count(counters.eval_replays), "count"},
        {"core.self_us", self_us("core.seed_run"), "us"},
        {"core.cache_hit_ratio",
         traced.episodes > 0 ? num(traced.cache_hits) / num(traced.episodes)
                             : 0.0,
         "ratio"},
        {"core.fanout_concurrency",
         traced_wall_ns > 0 ? num(traced_seed_runs_ns) / num(traced_wall_ns)
                            : 0.0,
         "ratio"},
        {"store.open_us", total_us("store.open"), "us"},
        {"store.save_us", total_us("store.save"), "us"},
        {"store.hits", num(traced.store_hits), "count"},
        {"store.misses", num(traced.store_misses), "count"},
        {"store.shared_hits", num(traced.store_shared_hits), "count"},
        {"store.bytes_read", num(traced.store_bytes_read), "bytes"},
        {"store.bytes_published", num(traced.store_bytes_published), "bytes"},
        {"store.save_failures", num(traced.save_failures), "count"},
        {"store.skipped_files", num(traced.skipped_files), "count"},
        {"ckpt.snapshots", num(traced.snapshots), "count"},
        {"ckpt.snapshot_us", total_us("ckpt.snapshot"), "us"},
        {"ckpt.rounds_logged", num(traced.rounds_logged), "count"},
        {"ckpt.log_us", total_us("ckpt.log"), "us"},
        {"ckpt.dir_bytes", num(w.traced_checkpoint_bytes()), "bytes"},
        {"trace.overhead_ratio",
         untraced_same_inputs_ms > 0.0
             ? (static_cast<double>(traced_wall_ns) / 1e6) /
                   untraced_same_inputs_ms
             : 0.0,
         "ratio"},
    };

    // Self-time table over the traced pass.
    double seed_run_us = total_us("core.seed_run");
    const auto studies = times.find("core.study");
    std::printf("layer self time over the traced pass (%" PRId64
                " studies):\n",
                studies == times.end() ? std::int64_t{0}
                                       : studies->second.count);
    std::printf("  %-16s %8s %14s %14s %8s\n", "span", "count", "total_us",
                "self_us", "self%");
    for (const auto& [name, t] : times) {
      std::printf("  %-16s %8" PRId64 " %14.1f %14.1f %7.2f%%\n", name.c_str(),
                  t.count, us(t.total_ns), us(t.self_ns),
                  seed_run_us > 0 ? 100.0 * us(t.self_ns) / seed_run_us : 0.0);
    }
  } catch (const std::exception& e) {
    gate.problem(std::string("aborted: ") + e.what());
  }
  if (gate.attempted == 0) gate.attempted = 1;
  layers.push_back({"failed_frac",
                    static_cast<double>(gate.failed) /
                        static_cast<double>(gate.attempted),
                    "ratio"});
  std::printf("note failed_frac = %" PRId64 " failed / %" PRId64
              " attempted operations\n",
              gate.failed, gate.attempted);
  for (const Metric& m : e2e) print_metric(m);
  for (const Metric& m : layers) print_metric(m);
  remove_tree(w.root());

  lcda::util::Json report = lcda::util::Json::object();
  report["workload"] = spec.name;
  report["seed"] = static_cast<long long>(args.seed);
  report["correct"] = gate.wrong == 0;
  report["attempted"] = static_cast<long long>(gate.attempted);
  report["failed"] = static_cast<long long>(gate.failed);
  report["digest"] = hex(w.digest());
  report["trace_file"] = args.trace_out;
  report["end_to_end"] = metrics_json(e2e);
  report["per_layer"] = metrics_json(layers);
  lcda::util::Json problems = lcda::util::Json::array();
  for (const std::string& p : gate.problems) problems.push_back(p);
  report["problems"] = problems;
  std::printf("%s\n", report.dump().c_str());
  return 0;
}
