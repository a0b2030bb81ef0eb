#pragma once

// In-memory span recorder for the benchmark's traced pass.
//
// Spans are recorded only by the benchmark's own decorators, around the
// public entry points of each library layer (outside-in timing). Each span
// keeps (name, start, end, id, parent, study, seed) and lands in the lane
// of the thread that closed it. Lanes are owned by the Recorder and reused
// after their thread exits, so a pool torn down per study never leaves a
// dangling buffer and the exported timeline stays compact.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string: one of the layer span names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  int study = -1;
  int seed = -1;
};

/// One thread's spans, in the order they closed.
struct Lane {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
};

class Recorder {
 public:
  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] std::int64_t now_ns() const;

  /// The lane of the calling thread (claimed on first use, released for
  /// reuse when the thread exits).
  Lane& lane();
  void release(Lane* lane);

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Every recorded span, lane by lane (call once the traced threads are
  /// joined).
  [[nodiscard]] std::vector<const Lane*> lanes() const;

  /// Chrome trace-event document of one study's spans ("B"/"E" pairs per
  /// lane, properly nested, timestamps non-decreasing per lane; the span
  /// identity and its parent, study and seed ride in "args").
  void write_chrome_trace(const std::string& path, int pid, int study) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // guarded by mutex_
  std::vector<Lane*> free_;                   // guarded by mutex_
};

/// RAII span. With a null recorder it does nothing (the untraced pass).
/// A span opened with an explicit parent/study/seed becomes the calling
/// thread's context, so spans nested inside it inherit study and seed.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, const char* name);
  ScopedSpan(Recorder* rec, const char* name, std::uint64_t parent, int study,
             int seed);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return rec_.id; }

 private:
  void open(std::uint64_t parent, int study, int seed);

  Recorder* recorder_ = nullptr;
  SpanRecord rec_;
  const SpanRecord* saved_context_ = nullptr;
};

/// Self time per span name: duration minus the part of the interval its
/// children cover (children on other threads included, overlaps merged).
struct LayerTime {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
[[nodiscard]] std::map<std::string, LayerTime> layer_times(const Recorder& rec);

/// Per seed-run accounting: the children of every `core.seed_run` span must
/// fit inside it without overlapping, so the per-layer times plus the
/// seed-run's self time sum to its wall. Returns the number of seed-runs
/// that violate this (0 = every seed-run accounts).
[[nodiscard]] int unaccounted_seed_runs(const Recorder& rec);

}  // namespace perfbench
