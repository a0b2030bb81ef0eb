// Micro-benchmarks of the content-addressed evaluation store: cold lookup
// (miss over mapped segments), warm mmap lookup (hit via compacted index
// buckets), insert, save (segment publication) and compaction throughput.
// These are the numbers behind the store-v2 claim that warm saves cost
// O(new entries) and warm lookups are zero-copy probes. The "own of 33"
// rows time one study's lookups in a store that also holds 32 sibling
// seed-runs' segments (other streams, overlapping designs): a full-key
// lookup skips those, so its cost must not grow with the segment count.
//
// Usage: bench_store [records] [reps]
//   records: store population size (default 20000)
//   reps:    timing repetitions, min is reported (default 5)
//   `--json=` (or LCDA_BENCH_JSON) archives the measurements.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lcda/core/report.h"
#include "lcda/store/eval_store.h"
#include "lcda/util/json_lite.h"

int main(int argc, char** argv) {
  using namespace lcda;
  using clock = std::chrono::steady_clock;
  namespace fs = std::filesystem;
  const auto args = core::positional_args(argc, argv);
  const std::uint64_t records = args.size() > 0
                                    ? std::strtoull(args[0].c_str(), nullptr, 10)
                                    : 20000;
  const int reps = args.size() > 1 ? std::atoi(args[1].c_str()) : 5;

  const std::string dir =
      (fs::temp_directory_path() / "lcda_bench_store").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  store::EvalStore::Options opts;
  opts.directory = dir;
  opts.eval_fingerprint = 0xbe7c;
  opts.stream_fingerprint = 0x1;

  core::Evaluation ev;
  ev.accuracy = 0.875;
  ev.accuracy_stddev = 0.01;
  ev.replay_mean = 0.9;
  ev.replay_spread = 0.02;
  ev.has_replay_params = true;
  ev.cost.valid = true;
  ev.cost.energy_total_pj = 6.02e7;
  ev.cost.latency_ns = 5.5e5;
  ev.cost.area_total_mm2 = 42.0;

  const auto min_over_reps = [&](auto&& body) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = clock::now();
      body();
      const auto t1 = clock::now();
      const double ms =
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count() /
          1e6;
      if (ms < best) best = ms;
    }
    return best;
  };

  // Populate once: inserts + one save (the O(new) warm-save path).
  double insert_ms = 0.0;
  double save_ms = 0.0;
  {
    store::EvalStore store(opts);
    const auto t0 = clock::now();
    for (std::uint64_t h = 1; h <= records; ++h) store.insert(h, ev);
    const auto t1 = clock::now();
    if (!store.save()) {
      std::fprintf(stderr, "bench_store: save failed\n");
      return 1;
    }
    const auto t2 = clock::now();
    insert_ms =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
        1e6;
    save_ms =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count() /
        1e6;
  }

  const auto time_hits = [&](const store::EvalStore& store) {
    return min_over_reps([&] {
      for (std::uint64_t h = 1; h <= records; ++h) {
        if (!store.lookup(h)) {
          std::fprintf(stderr, "bench_store: unexpected miss\n");
          std::exit(1);
        }
      }
    });
  };
  const auto time_misses = [&](const store::EvalStore& store) {
    return min_over_reps([&] {
      for (std::uint64_t h = 1; h <= records; ++h) {
        if (store.lookup(records + h)) {
          std::fprintf(stderr, "bench_store: unexpected hit\n");
          std::exit(1);
        }
      }
    });
  };

  // Lookups against live segments (what a warm rerun probes before any
  // compaction has happened).
  double segment_lookup_ms = 0.0;
  double segment_miss_ms = 0.0;
  {
    store::EvalStore store(opts);
    segment_lookup_ms = time_hits(store);
    segment_miss_ms = time_misses(store);
  }

  // The same study's records as one segment among 32 sibling seed-runs'
  // segments (in a directory of their own), each sibling holding every
  // 32nd design under its own stream.
  double own_of_33_hit_ms = 0.0;
  double own_of_33_miss_ms = 0.0;
  {
    store::EvalStore::Options own_opts = opts;
    own_opts.directory = dir + "_33";
    fs::remove_all(own_opts.directory);
    // Publishes designs first, first + step, ... as one segment.
    const auto publish = [&](const store::EvalStore::Options& o,
                             std::uint64_t first, std::uint64_t step) {
      store::EvalStore writer(o);
      for (std::uint64_t h = first; h <= records; h += step) writer.insert(h, ev);
      if (!writer.save()) {
        std::fprintf(stderr, "bench_store: save failed\n");
        std::exit(1);
      }
    };
    for (std::uint64_t s = 0; s < 32; ++s) {
      store::EvalStore::Options sibling = own_opts;
      sibling.stream_fingerprint = 0x100 + s;
      publish(sibling, 1 + s, 32);
    }
    publish(own_opts, 1, 1);
    store::EvalStore store(own_opts);
    own_of_33_hit_ms = time_hits(store);
    own_of_33_miss_ms = time_misses(store);
    fs::remove_all(own_opts.directory);
  }

  // Compaction throughput, then lookups against the mmap'd index buckets.
  const auto t0 = clock::now();
  const store::CompactionReport report = store::compact_store(dir, {}, 16);
  const auto t1 = clock::now();
  const double compact_ms =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
      1e6;
  if (report.records_kept != records) {
    std::fprintf(stderr, "bench_store: compaction lost records\n");
    return 1;
  }

  double bucket_lookup_ms = 0.0;
  double miss_ms = 0.0;
  {
    store::EvalStore store(opts);
    bucket_lookup_ms = time_hits(store);
    miss_ms = time_misses(store);
  }

  const double per = static_cast<double>(records) / 1000.0;  // -> us/k
  std::printf("# Evaluation store micro-benchmarks (%llu records, min of %d)\n",
              static_cast<unsigned long long>(records), reps);
  const auto row = [&](const char* operation, double ms) {
    std::printf("%-38s %12.2f %14.3f\n", operation, ms, ms / per);
  };
  std::printf("%-38s %12s %14s\n", "operation", "total(ms)", "per-record(us)");
  row("insert", insert_ms);
  row("save (publish segment)", save_ms);
  row("lookup (live segments)", segment_lookup_ms);
  row("lookup miss (live segments)", segment_miss_ms);
  row("lookup hit (own of 33 live segments)", own_of_33_hit_ms);
  row("lookup miss (own of 33 live segments)", own_of_33_miss_ms);
  row("compact", compact_ms);
  row("lookup (index buckets)", bucket_lookup_ms);
  row("lookup miss", miss_ms);

  if (const std::string json_path = core::json_output_path(argc, argv);
      !json_path.empty()) {
    util::Json doc = util::Json::object();
    doc["experiment"] = "store_micro";
    doc["records"] = records;
    doc["reps"] = reps;
    doc["insert_ms"] = insert_ms;
    doc["save_ms"] = save_ms;
    doc["segment_lookup_ms"] = segment_lookup_ms;
    doc["segment_miss_ms"] = segment_miss_ms;
    doc["own_of_33_hit_ms"] = own_of_33_hit_ms;
    doc["own_of_33_miss_ms"] = own_of_33_miss_ms;
    doc["compact_ms"] = compact_ms;
    doc["bucket_lookup_ms"] = bucket_lookup_ms;
    doc["miss_ms"] = miss_ms;
    core::write_json_file(doc, json_path);
  }

  fs::remove_all(dir);
  return 0;
}
