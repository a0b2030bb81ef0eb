#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

// The innermost open span of this thread: nested spans inherit its id as
// their parent and its study/seed.
thread_local const SpanRecord* tl_context = nullptr;

// Returns the thread's lane to its recorder when the thread exits. The
// recorder must outlive every traced thread (main keeps it static).
struct LaneHandle {
  Recorder* owner = nullptr;
  Lane* lane = nullptr;
  ~LaneHandle() {
    if (owner != nullptr) owner->release(lane);
  }
};
thread_local LaneHandle tl_lane;

}  // namespace

Recorder::Recorder() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Recorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Lane& Recorder::lane() {
  if (tl_lane.owner == this) return *tl_lane.lane;
  std::lock_guard<std::mutex> lock(mutex_);
  Lane* lane = nullptr;
  if (!free_.empty()) {
    lane = free_.back();
    free_.pop_back();
  } else {
    lanes_.push_back(std::make_unique<Lane>());
    lane = lanes_.back().get();
    lane->tid = static_cast<std::uint32_t>(lanes_.size());
  }
  tl_lane.owner = this;
  tl_lane.lane = lane;
  return *lane;
}

void Recorder::release(Lane* lane) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(lane);
}

std::vector<const Lane*> Recorder::lanes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Lane*> out;
  for (const auto& l : lanes_) out.push_back(l.get());
  return out;
}

void Recorder::write_chrome_trace(const std::string& path, int pid,
                                  int study) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
               "\"name\":\"process_name\",\"args\":{\"name\":"
               "\"lcda_perfbench\"}}",
               pid);
  for (const Lane* lane : lanes()) {
    std::vector<SpanRecord> spans;
    for (const SpanRecord& s : lane->spans) {
      if (s.study == study) spans.push_back(s);
    }
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
                return a.id < b.id;
              });
    std::vector<const SpanRecord*> open;
    auto close_until = [&](std::int64_t t) {
      while (!open.empty() && open.back()->end_ns <= t) {
        std::fprintf(f,
                     ",\n{\"ph\":\"E\",\"pid\":%d,\"tid\":%u,\"name\":\"%s\","
                     "\"ts\":%.3f}",
                     pid, lane->tid, open.back()->name,
                     static_cast<double>(open.back()->end_ns) / 1000.0);
        open.pop_back();
      }
    };
    for (const SpanRecord& s : spans) {
      close_until(s.start_ns);
      std::fprintf(f,
                   ",\n{\"ph\":\"B\",\"pid\":%d,\"tid\":%u,\"name\":\"%s\","
                   "\"ts\":%.3f,\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                   ",\"study\":%d,\"seed\":%d}}",
                   pid, lane->tid, s.name,
                   static_cast<double>(s.start_ns) / 1000.0, s.id, s.parent,
                   s.study, s.seed);
      open.push_back(&s);
    }
    close_until(INT64_MAX);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

ScopedSpan::ScopedSpan(Recorder* rec, const char* name) : recorder_(rec) {
  if (recorder_ == nullptr) return;
  rec_.name = name;
  open(tl_context ? tl_context->id : 0, tl_context ? tl_context->study : -1,
       tl_context ? tl_context->seed : -1);
}

ScopedSpan::ScopedSpan(Recorder* rec, const char* name, std::uint64_t parent,
                       int study, int seed)
    : recorder_(rec) {
  if (recorder_ == nullptr) return;
  rec_.name = name;
  open(parent, study, seed);
}

void ScopedSpan::open(std::uint64_t parent, int study, int seed) {
  rec_.id = recorder_->next_id();
  rec_.parent = parent;
  rec_.study = study;
  rec_.seed = seed;
  saved_context_ = tl_context;
  tl_context = &rec_;
  rec_.start_ns = recorder_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  rec_.end_ns = recorder_->now_ns();
  tl_context = saved_context_;
  recorder_->lane().spans.push_back(rec_);
}

namespace {

struct SpanIndex {
  std::vector<const SpanRecord*> all;
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
};

SpanIndex index_spans(const Recorder& rec) {
  SpanIndex idx;
  for (const Lane* lane : rec.lanes()) {
    for (const SpanRecord& s : lane->spans) {
      idx.all.push_back(&s);
      if (s.parent != 0) idx.children[s.parent].push_back(&s);
    }
  }
  for (auto& [id, kids] : idx.children) {
    std::sort(kids.begin(), kids.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start_ns < b->start_ns;
              });
  }
  return idx;
}

}  // namespace

std::map<std::string, LayerTime> layer_times(const Recorder& rec) {
  const SpanIndex idx = index_spans(rec);
  std::map<std::string, LayerTime> out;
  for (const SpanRecord* s : idx.all) {
    const std::int64_t dur = s->end_ns - s->start_ns;
    std::int64_t covered = 0;
    if (auto it = idx.children.find(s->id); it != idx.children.end()) {
      // Union of the children's intervals, clipped to the parent's.
      std::int64_t cur_start = 0;
      std::int64_t cur_end = -1;
      for (const SpanRecord* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s->start_ns);
        const std::int64_t b = std::min(c->end_ns, s->end_ns);
        if (b <= a) continue;
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    LayerTime& t = out[s->name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - covered;
  }
  return out;
}

int unaccounted_seed_runs(const Recorder& rec) {
  const SpanIndex idx = index_spans(rec);
  int bad = 0;
  for (const SpanRecord* s : idx.all) {
    if (std::string_view(s->name) != "core.seed_run") continue;
    auto it = idx.children.find(s->id);
    if (it == idx.children.end()) continue;
    std::int64_t last_end = s->start_ns;
    for (const SpanRecord* c : it->second) {
      if (c->start_ns < last_end || c->end_ns > s->end_ns) {
        ++bad;
        break;
      }
      last_end = c->end_ns;
    }
  }
  return bad;
}

}  // namespace perfbench
