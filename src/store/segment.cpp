#include "lcda/store/segment.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "lcda/util/rng.h"

namespace lcda::store {

namespace {

constexpr std::uint32_t kFlagCostValid = 1u << 0;
constexpr std::uint32_t kFlagHasReplay = 1u << 1;

std::uint64_t checksum_bytes(const std::uint8_t* p, std::size_t n) {
  return util::fnv1a64(
      std::string_view(reinterpret_cast<const char*>(p), n));
}

void put_u64(std::uint8_t* p, std::size_t off, std::uint64_t v) {
  std::memcpy(p + off, &v, sizeof v);
}

void put_u32(std::uint8_t* p, std::size_t off, std::uint32_t v) {
  std::memcpy(p + off, &v, sizeof v);
}

void put_f64(std::uint8_t* p, std::size_t off, double v) {
  std::memcpy(p + off, &v, sizeof v);
}

void put_i64(std::uint8_t* p, std::size_t off, std::int64_t v) {
  std::memcpy(p + off, &v, sizeof v);
}

std::uint64_t get_u64(const std::uint8_t* p, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, p + off, sizeof v);
  return v;
}

std::uint32_t get_u32(const std::uint8_t* p, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, p + off, sizeof v);
  return v;
}

double get_f64(const std::uint8_t* p, std::size_t off) {
  double v;
  std::memcpy(&v, p + off, sizeof v);
  return v;
}

std::int64_t get_i64(const std::uint8_t* p, std::size_t off) {
  std::int64_t v;
  std::memcpy(&v, p + off, sizeof v);
  return v;
}

}  // namespace

bool record_encodable(const StoreRecord& record) {
  return record.evaluation.cost.invalid_reason.size() <= kMaxReason;
}

void encode_record(const StoreRecord& record, std::uint8_t* out) {
  const core::Evaluation& ev = record.evaluation;
  const cim::CostReport& c = ev.cost;
  std::memset(out, 0, kRecordSize);
  put_u64(out, 0, record.eval_fingerprint);
  put_u64(out, 8, record.design_hash);
  put_u64(out, 16, record.stream_fingerprint);
  put_u64(out, 24, record.seq);
  std::uint32_t flags = 0;
  if (c.valid) flags |= kFlagCostValid;
  if (ev.has_replay_params) flags |= kFlagHasReplay;
  put_u32(out, 32, flags);
  put_u32(out, 36, static_cast<std::uint32_t>(c.invalid_reason.size()));
  const double doubles[20] = {
      ev.accuracy,        ev.accuracy_stddev,  ev.replay_mean,
      ev.replay_spread,   c.area_arrays_mm2,   c.area_buffer_mm2,
      c.area_digital_mm2, c.area_noc_mm2,      c.area_total_mm2,
      c.energy_adc_pj,    c.energy_xbar_pj,    c.energy_dac_pj,
      c.energy_digital_pj, c.energy_buffer_pj, c.energy_noc_pj,
      c.energy_total_pj,  c.latency_ns,        c.leakage_mw,
      c.programming_energy_pj, c.weight_sigma};
  for (std::size_t i = 0; i < 20; ++i) put_f64(out, 40 + i * 8, doubles[i]);
  put_i64(out, 200, static_cast<std::int64_t>(c.total_weights));
  put_i64(out, 208, static_cast<std::int64_t>(c.total_cells));
  put_i64(out, 216, static_cast<std::int64_t>(c.max_adc_deficit_bits));
  std::memcpy(out + 224, c.invalid_reason.data(), c.invalid_reason.size());
  put_u64(out, kRecordSize - 8, checksum_bytes(out, kRecordSize - 8));
}

StoreRecord decode_record(const std::uint8_t* bytes) {
  StoreRecord record;
  record.eval_fingerprint = get_u64(bytes, 0);
  record.design_hash = get_u64(bytes, 8);
  record.stream_fingerprint = get_u64(bytes, 16);
  record.seq = get_u64(bytes, 24);
  const std::uint32_t flags = get_u32(bytes, 32);
  const std::uint32_t reason_len =
      std::min<std::uint32_t>(get_u32(bytes, 36), kMaxReason);

  core::Evaluation& ev = record.evaluation;
  cim::CostReport& c = ev.cost;
  ev.accuracy = get_f64(bytes, 40);
  ev.accuracy_stddev = get_f64(bytes, 48);
  ev.replay_mean = get_f64(bytes, 56);
  ev.replay_spread = get_f64(bytes, 64);
  c.area_arrays_mm2 = get_f64(bytes, 72);
  c.area_buffer_mm2 = get_f64(bytes, 80);
  c.area_digital_mm2 = get_f64(bytes, 88);
  c.area_noc_mm2 = get_f64(bytes, 96);
  c.area_total_mm2 = get_f64(bytes, 104);
  c.energy_adc_pj = get_f64(bytes, 112);
  c.energy_xbar_pj = get_f64(bytes, 120);
  c.energy_dac_pj = get_f64(bytes, 128);
  c.energy_digital_pj = get_f64(bytes, 136);
  c.energy_buffer_pj = get_f64(bytes, 144);
  c.energy_noc_pj = get_f64(bytes, 152);
  c.energy_total_pj = get_f64(bytes, 160);
  c.latency_ns = get_f64(bytes, 168);
  c.leakage_mw = get_f64(bytes, 176);
  c.programming_energy_pj = get_f64(bytes, 184);
  c.weight_sigma = get_f64(bytes, 192);
  c.total_weights = get_i64(bytes, 200);
  c.total_cells = get_i64(bytes, 208);
  c.max_adc_deficit_bits = static_cast<int>(get_i64(bytes, 216));
  c.valid = (flags & kFlagCostValid) != 0;
  ev.has_replay_params = (flags & kFlagHasReplay) != 0;
  c.invalid_reason.assign(reinterpret_cast<const char*>(bytes) + 224,
                          reason_len);
  return record;
}

bool record_checksum_ok(const std::uint8_t* bytes) {
  return get_u64(bytes, kRecordSize - 8) ==
         checksum_bytes(bytes, kRecordSize - 8);
}

std::optional<SegmentView> SegmentView::open(const std::string& path,
                                             std::string* error) {
  if (error) error->clear();
  std::string map_error;
  util::MmapFile file = util::MmapFile::open(path, &map_error);
  if (!map_error.empty()) {
    // A file that vanished between listing and open is the live-compaction
    // race, not damage: report "" so the caller skips it silently.
    if (error && std::filesystem::exists(path)) *error = map_error;
    return std::nullopt;
  }
  if (file.size() < kHeaderSize) {
    if (error) *error = path + ": truncated header";
    return std::nullopt;
  }
  const std::uint8_t* h = file.data();
  if (std::memcmp(h, kSegmentMagic, sizeof kSegmentMagic) != 0) {
    if (error) *error = path + ": bad magic (not a lcda-store-v2 segment)";
    return std::nullopt;
  }
  if (get_u64(h, 24) != checksum_bytes(h, 24)) {
    if (error) *error = path + ": header checksum mismatch";
    return std::nullopt;
  }
  const std::uint64_t count = get_u64(h, 8);
  if (file.size() != kHeaderSize + count * kRecordSize) {
    if (error) *error = path + ": truncated (header claims " +
                        std::to_string(count) + " records)";
    return std::nullopt;
  }
  SegmentView view;
  view.path_ = path;
  view.count_ = static_cast<std::size_t>(count);
  view.max_seq_ = get_u64(h, 16);
  view.file_ = std::move(file);
  return view;
}

std::size_t SegmentView::lower_bound(std::uint64_t eval_fp,
                                     std::uint64_t design_hash) const {
  std::size_t lo = 0, hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint8_t* rec = record(mid);
    const std::uint64_t e = get_u64(rec, 0);
    const std::uint64_t d = get_u64(rec, 8);
    if (e < eval_fp || (e == eval_fp && d < design_hash)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool SegmentView::matches_pair(std::size_t i, std::uint64_t eval_fp,
                               std::uint64_t design_hash) const {
  if (i >= count_) return false;
  const std::uint8_t* rec = record(i);
  return get_u64(rec, 0) == eval_fp && get_u64(rec, 8) == design_hash;
}

std::optional<SegmentKey> uniform_segment_key(const SegmentView& view) {
  if (view.count() == 0) return std::nullopt;
  const SegmentKey first{get_u64(view.record(0), 0),
                         get_u64(view.record(0), 16)};
  for (std::size_t i = 1; i < view.count(); ++i) {
    const std::uint8_t* rec = view.record(i);
    if (get_u64(rec, 0) != first.eval_fingerprint ||
        get_u64(rec, 16) != first.stream_fingerprint) {
      return std::nullopt;
    }
  }
  return first;
}

std::vector<std::uint8_t> serialize_segment(
    const std::vector<StoreRecord>& records) {
  std::vector<std::uint8_t> bytes(kHeaderSize + records.size() * kRecordSize);
  std::uint8_t* h = bytes.data();
  std::memcpy(h, kSegmentMagic, sizeof kSegmentMagic);
  put_u64(h, 8, records.size());
  std::uint64_t max_seq = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    max_seq = std::max(max_seq, records[i].seq);
    encode_record(records[i], h + kHeaderSize + i * kRecordSize);
  }
  put_u64(h, 16, max_seq);
  put_u64(h, 24, checksum_bytes(h, 24));
  return bytes;
}

std::vector<std::string> list_segment_files(const std::string& directory) {
  std::vector<std::string> paths;
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) return paths;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.rfind(".seg") == name.size() - 4) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

bool parse_bucket_name(const std::string& filename, std::size_t* index,
                       std::size_t* count) {
  unsigned long i = 0, n = 0;
  int consumed = 0;
  if (std::sscanf(filename.c_str(), "bucket-%lu-of-%lu.seg%n", &i, &n,
                  &consumed) != 2 ||
      static_cast<std::size_t>(consumed) != filename.size() || n == 0 ||
      i >= n) {
    return false;
  }
  *index = i;
  *count = n;
  return true;
}

void publish_file(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) {
  // Unique temp name per process AND per publish: concurrent writers must
  // never interleave into one temp file; rename makes the publish atomic.
  static std::atomic<unsigned long> publish_counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(publish_counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("store: cannot write " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) throw std::runtime_error("store: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("store: rename to " + path + " failed");
  }
}

}  // namespace lcda::store
