#include "lcda/ckpt/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <utility>
#include <vector>

#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/util/fault.h"
#include "lcda/util/logging.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

namespace lcda::ckpt {

namespace {

constexpr std::uint32_t kSnapshotVersion = 2;
constexpr std::uint32_t kRoundVersion = 1;

void encode_rng(util::BinaryWriter& w, const util::Rng::State& st) {
  for (std::uint64_t word : st.s) w.u64(word);
  w.f64(st.spare_normal);
  w.u8(st.has_spare ? 1 : 0);
}

bool decode_rng(util::BinaryReader& r, util::Rng::State& st) {
  for (std::uint64_t& word : st.s) {
    if (!r.u64(word)) return false;
  }
  std::uint8_t has_spare = 0;
  if (!r.f64(st.spare_normal) || !r.u8(has_spare)) return false;
  st.has_spare = has_spare != 0;
  return true;
}

void encode_episode(util::BinaryWriter& w, const core::EpisodeRecord& ep) {
  w.i64(ep.episode);
  encode_design(w, ep.design);
  w.f64(ep.accuracy);
  w.f64(ep.energy_pj);
  w.f64(ep.latency_ns);
  w.f64(ep.area_mm2);
  w.f64(ep.reward);
  w.u8(ep.valid ? 1 : 0);
}

bool decode_episode(util::BinaryReader& r, core::EpisodeRecord& ep) {
  std::int64_t episode = 0;
  std::uint8_t valid = 0;
  if (!r.i64(episode) || !decode_design(r, ep.design) || !r.f64(ep.accuracy) ||
      !r.f64(ep.energy_pj) || !r.f64(ep.latency_ns) || !r.f64(ep.area_mm2) ||
      !r.f64(ep.reward) || !r.u8(valid)) {
    return false;
  }
  ep.episode = static_cast<int>(episode);
  ep.valid = valid != 0;
  return true;
}

/// A corrupt element count must not drive a huge reserve before the
/// element decodes fail; every element is at least `min_bytes` long.
std::size_t bounded_reserve(std::uint64_t n, std::size_t remaining,
                            std::size_t min_bytes) {
  return std::min<std::size_t>(n, remaining / std::max<std::size_t>(min_bytes, 1));
}

struct JournalFile {
  long long episode = 0;
  std::filesystem::path path;
};

/// `jrn-<E>.jrn` -> E, or nullopt for any other name.
std::optional<long long> journal_episode(const std::string& name) {
  constexpr std::string_view prefix = "jrn-";
  constexpr std::string_view suffix = ".jrn";
  if (name.size() <= prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  long long value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
  }
  return value;
}

/// Newest-first list of the journals in a study directory.
std::vector<JournalFile> list_journals(const std::filesystem::path& dir) {
  std::vector<JournalFile> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto ep = journal_episode(entry.path().filename().string());
    if (ep) out.push_back({*ep, entry.path()});
  }
  std::sort(out.begin(), out.end(), [](const JournalFile& a, const JournalFile& b) {
    return a.episode > b.episode;
  });
  return out;
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return data;
}

}  // namespace

void encode_design(util::BinaryWriter& w, const search::Design& d) {
  w.u32(static_cast<std::uint32_t>(d.rollout.size()));
  for (const nn::ConvSpec& spec : d.rollout) {
    w.i64(spec.channels);
    w.i64(spec.kernel);
  }
  w.i64(static_cast<std::int64_t>(d.hw.device));
  w.i64(d.hw.bits_per_cell);
  w.i64(d.hw.weight_bits);
  w.i64(d.hw.input_bits);
  w.i64(d.hw.adc_bits);
  w.i64(d.hw.xbar_size);
  w.i64(d.hw.col_mux);
  w.f64(d.hw.area_budget_mm2);
}

bool decode_design(util::BinaryReader& r, search::Design& d) {
  std::uint32_t layers = 0;
  if (!r.u32(layers)) return false;
  d.rollout.clear();
  d.rollout.reserve(bounded_reserve(layers, r.remaining(), 16));
  for (std::uint32_t i = 0; i < layers; ++i) {
    std::int64_t channels = 0;
    std::int64_t kernel = 0;
    if (!r.i64(channels) || !r.i64(kernel)) return false;
    d.rollout.push_back({static_cast<int>(channels), static_cast<int>(kernel)});
  }
  std::int64_t device = 0;
  std::int64_t bits_per_cell = 0, weight_bits = 0, input_bits = 0;
  std::int64_t adc_bits = 0, xbar_size = 0, col_mux = 0;
  if (!r.i64(device) || !r.i64(bits_per_cell) || !r.i64(weight_bits) ||
      !r.i64(input_bits) || !r.i64(adc_bits) || !r.i64(xbar_size) ||
      !r.i64(col_mux) || !r.f64(d.hw.area_budget_mm2)) {
    return false;
  }
  d.hw.device = static_cast<cim::DeviceType>(device);
  d.hw.bits_per_cell = static_cast<int>(bits_per_cell);
  d.hw.weight_bits = static_cast<int>(weight_bits);
  d.hw.input_bits = static_cast<int>(input_bits);
  d.hw.adc_bits = static_cast<int>(adc_bits);
  d.hw.xbar_size = static_cast<int>(xbar_size);
  d.hw.col_mux = static_cast<int>(col_mux);
  return true;
}

void encode_evaluation(util::BinaryWriter& w, const core::Evaluation& ev) {
  std::uint8_t flags = 0;
  if (ev.cost.valid) flags |= 1;
  if (ev.has_replay_params) flags |= 2;
  w.u8(flags);
  w.f64(ev.accuracy);
  w.f64(ev.accuracy_stddev);
  w.f64(ev.replay_mean);
  w.f64(ev.replay_spread);
  const cim::CostReport& c = ev.cost;
  w.f64(c.area_arrays_mm2);
  w.f64(c.area_buffer_mm2);
  w.f64(c.area_digital_mm2);
  w.f64(c.area_noc_mm2);
  w.f64(c.area_total_mm2);
  w.f64(c.energy_adc_pj);
  w.f64(c.energy_xbar_pj);
  w.f64(c.energy_dac_pj);
  w.f64(c.energy_digital_pj);
  w.f64(c.energy_buffer_pj);
  w.f64(c.energy_noc_pj);
  w.f64(c.energy_total_pj);
  w.f64(c.latency_ns);
  w.f64(c.leakage_mw);
  w.f64(c.programming_energy_pj);
  w.f64(c.weight_sigma);
  w.i64(c.total_weights);
  w.i64(c.total_cells);
  w.i64(c.max_adc_deficit_bits);
  // The invalid reason is kept whole (unlike the store's fixed-width
  // record, which truncates it): a resumed trace must not differ from the
  // uninterrupted one in any byte, reasons included. Per-layer costs and
  // the mapping are deliberately absent — the lean engine path never
  // populates them, matching the store's record shape.
  w.str(c.invalid_reason);
}

bool decode_evaluation(util::BinaryReader& r, core::Evaluation& ev) {
  std::uint8_t flags = 0;
  if (!r.u8(flags) || !r.f64(ev.accuracy) || !r.f64(ev.accuracy_stddev) ||
      !r.f64(ev.replay_mean) || !r.f64(ev.replay_spread)) {
    return false;
  }
  cim::CostReport& c = ev.cost;
  std::int64_t total_weights = 0, total_cells = 0, deficit = 0;
  if (!r.f64(c.area_arrays_mm2) || !r.f64(c.area_buffer_mm2) ||
      !r.f64(c.area_digital_mm2) || !r.f64(c.area_noc_mm2) ||
      !r.f64(c.area_total_mm2) || !r.f64(c.energy_adc_pj) ||
      !r.f64(c.energy_xbar_pj) || !r.f64(c.energy_dac_pj) ||
      !r.f64(c.energy_digital_pj) || !r.f64(c.energy_buffer_pj) ||
      !r.f64(c.energy_noc_pj) || !r.f64(c.energy_total_pj) ||
      !r.f64(c.latency_ns) || !r.f64(c.leakage_mw) ||
      !r.f64(c.programming_energy_pj) || !r.f64(c.weight_sigma) ||
      !r.i64(total_weights) || !r.i64(total_cells) || !r.i64(deficit) ||
      !r.str(c.invalid_reason)) {
    return false;
  }
  c.valid = (flags & 1) != 0;
  ev.has_replay_params = (flags & 2) != 0;
  c.total_weights = total_weights;
  c.total_cells = total_cells;
  c.max_adc_deficit_bits = static_cast<int>(deficit);
  c.layers.clear();
  c.mapping = {};
  return true;
}

namespace {

/// Appends the snapshot payload to `out` (which may already hold a record
/// frame): the records from `episodes_from` and the cache-log entries from
/// `cache_from` on, then the head. The writer encodes straight into its
/// reused record buffer, without an intermediate per-snapshot string.
void encode_snapshot_append(std::string& out, const core::LoopSnapshot& snap,
                            std::size_t episodes_from, std::size_t cache_from) {
  util::BinaryWriter w(out);
  w.u32(kSnapshotVersion);
  const std::vector<core::EpisodeRecord>& episodes = snap.result->episodes;
  w.u64(episodes_from);
  w.u64(episodes.size() - episodes_from);
  for (std::size_t i = episodes_from; i < episodes.size(); ++i) {
    encode_episode(w, episodes[i]);
  }
  const auto& cache_log = *snap.cache_log;
  w.u64(cache_from);
  w.u64(cache_log.size() - cache_from);
  for (std::size_t i = cache_from; i < cache_log.size(); ++i) {
    w.u64(cache_log[i].hash);
    encode_evaluation(w, cache_log[i].eval);
    w.u8(cache_log[i].published ? 1 : 0);
  }
  w.i64(snap.next_episode);
  encode_rng(w, snap.rng_state);
  w.str(*snap.optimizer_state);
  const core::RunResult& res = *snap.result;
  w.i64(res.best_episode);
  w.i64(res.cache_hits);
  w.i64(res.cache_misses);
  w.i64(res.persistent_hits);
  w.i64(res.persistent_shared_hits);
  w.i64(res.persistent_evictions);
  w.i64(res.persistent_skipped);
  w.i64(res.persistent_save_failures);
}

/// decode_snapshot without the rollback: may leave records appended to
/// `out` on failure, but commits the head only once everything checked.
bool apply_snapshot(std::string_view payload, core::LoopResume& out) {
  util::BinaryReader r(payload);
  std::vector<core::EpisodeRecord>& episodes = out.result.episodes;
  std::uint32_t version = 0;
  std::uint64_t base = 0;
  std::uint64_t n = 0;
  if (!r.u32(version) || version != kSnapshotVersion || !r.u64(base) ||
      base != episodes.size() || !r.u64(n)) {
    return false;
  }
  // Only a whole snapshot reserves: a per-delta exact reserve would
  // reallocate on every delta and make replay quadratic.
  if (episodes.empty()) episodes.reserve(bounded_reserve(n, r.remaining(), 64));
  for (std::uint64_t i = 0; i < n; ++i) {
    core::EpisodeRecord ep;
    if (!decode_episode(r, ep) ||
        ep.episode != static_cast<int>(episodes.size())) {
      return false;
    }
    episodes.push_back(std::move(ep));
  }
  if (!r.u64(base) || base != out.cache_log.size() || !r.u64(n)) return false;
  if (out.cache_log.empty()) {
    out.cache_log.reserve(bounded_reserve(n, r.remaining(), 64));
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    core::CacheLogEntry entry;
    std::uint8_t published = 0;
    if (!r.u64(entry.hash) || !decode_evaluation(r, entry.eval) ||
        !r.u8(published)) {
      return false;
    }
    entry.published = published != 0;
    out.cache_log.push_back(std::move(entry));
  }

  std::int64_t next_episode = 0;
  util::Rng::State rng_state;
  std::string optimizer_state;
  std::int64_t best_episode = 0;
  std::int64_t counters[7] = {};
  if (!r.i64(next_episode) || !decode_rng(r, rng_state) ||
      !r.str(optimizer_state) || !r.i64(best_episode)) {
    return false;
  }
  for (std::int64_t& c : counters) {
    if (!r.i64(c)) return false;
  }
  if (!r.done() || next_episode != static_cast<std::int64_t>(episodes.size()) ||
      best_episode < -1 || best_episode >= next_episode) {
    return false;
  }
  out.next_episode = static_cast<int>(next_episode);
  out.rng_state = rng_state;
  out.optimizer_state = std::move(optimizer_state);
  core::RunResult& res = out.result;
  res.best_episode = static_cast<int>(best_episode);
  res.cache_hits = counters[0];
  res.cache_misses = counters[1];
  res.persistent_hits = counters[2];
  res.persistent_shared_hits = counters[3];
  res.persistent_evictions = counters[4];
  res.persistent_skipped = counters[5];
  res.persistent_save_failures = counters[6];
  return true;
}

/// Appends the round payload to `out`; same in-place assembly as
/// encode_snapshot_append.
void encode_round_append(std::string& out, const core::RoundDelta& delta) {
  util::BinaryWriter w(out);
  w.u32(kRoundVersion);
  w.i64(delta.first_episode);
  w.u64(delta.job_hashes.size());
  for (std::uint64_t h : delta.job_hashes) w.u64(h);
  w.u64(delta.job_evals.size());
  for (const core::Evaluation& ev : delta.job_evals) encode_evaluation(w, ev);
}

/// Overwrites 8 bytes at `pos` with the little-endian encoding of `v` —
/// the back-patch for length/checksum fields whose values are only known
/// after the payload behind them is encoded in place.
void patch_u64(std::string& buf, std::size_t pos, std::uint64_t v) {
  std::memcpy(buf.data() + pos, &v, sizeof(v));
}

/// Opens a record frame at the end of `buf` (length and checksum
/// placeholders, then the type byte) and returns its offset.
std::size_t begin_record(std::string& buf, RecordType type) {
  const std::size_t at = buf.size();
  util::BinaryWriter w(buf);
  w.u64(0);
  w.u64(0);
  w.u8(static_cast<std::uint8_t>(type));
  return at;
}

/// Back-patches the length and checksum (over type byte + payload) of the
/// record begun at `at`, which runs to the end of `buf`; returns the
/// payload size.
std::size_t seal_record(std::string& buf, std::size_t at) {
  const std::size_t payload_size = buf.size() - at - kRecordHeaderSize;
  patch_u64(buf, at, payload_size);
  patch_u64(buf, at + 8, util::fnv1a64(std::string_view(buf).substr(at + 16)));
  return payload_size;
}

/// Replays one journal: every snapshot record applied in order, the round
/// records after the last valid one collected as deltas. Stops at the
/// first short or corrupt record (counted warning); nullopt when the
/// journal holds no valid snapshot.
std::optional<core::LoopResume> read_journal(const std::filesystem::path& path,
                                             std::uint64_t identity) {
  const auto data = read_file(path);
  if (!data) return std::nullopt;
  const std::string_view view = *data;
  std::uint64_t file_identity = 0;
  if (!view.starts_with(kJournalMagic) ||
      !util::BinaryReader(view.substr(kJournalMagic.size())).u64(file_identity) ||
      file_identity != identity) {
    util::warn_once("ckpt-bad-journal:" + path.string(), "ckpt",
                    "journal has a foreign or torn header; ignoring it");
    return std::nullopt;
  }

  core::LoopResume state;
  bool have_snapshot = false;
  std::vector<std::string_view> rounds;  // after the last valid snapshot
  std::size_t pos = kJournalHeaderSize;
  while (pos < view.size()) {
    util::BinaryReader rec(view.substr(pos));
    std::uint64_t len = 0;
    std::uint64_t checksum = 0;
    std::uint8_t type = 0;
    const bool framed = rec.u64(len) && rec.u64(checksum) && rec.u8(type);
    const bool snapshot = type == static_cast<std::uint8_t>(RecordType::kSnapshot);
    const bool sound =
        framed && rec.remaining() >= len &&
        util::fnv1a64(view.substr(pos + 16, len + 1)) == checksum;
    const std::string_view payload =
        sound ? view.substr(pos + kRecordHeaderSize, len) : std::string_view();
    bool applied = false;
    if (sound && snapshot) {
      applied = decode_snapshot(payload, state);
      if (applied) {
        have_snapshot = true;
        rounds.clear();
      }
    } else if (sound && type == static_cast<std::uint8_t>(RecordType::kRound)) {
      rounds.push_back(payload);
      applied = true;
    }
    if (!applied) {
      if (snapshot) {
        util::warn_once("ckpt-bad-snapshot:" + path.string(), "ckpt",
                        "snapshot failed validation; falling back to the "
                        "previous snapshot");
      } else {
        util::warn_once("ckpt-torn-log:" + path.string(), "ckpt",
                        "journal tail is torn; rounds after it will be "
                        "re-evaluated on resume");
      }
      break;
    }
    pos += kRecordHeaderSize + len;
  }
  if (!have_snapshot) return std::nullopt;
  state.deltas.reserve(rounds.size());
  for (std::string_view payload : rounds) {
    core::RoundDelta delta;
    if (!decode_round(payload, delta)) {
      util::warn_once("ckpt-torn-log:" + path.string(), "ckpt",
                      "journal tail is torn; rounds after it will be "
                      "re-evaluated on resume");
      break;
    }
    state.deltas.push_back(std::move(delta));
  }
  return state;
}

}  // namespace

std::string encode_snapshot(const core::LoopSnapshot& snap,
                            std::size_t episodes_from, std::size_t cache_from) {
  std::string out;
  encode_snapshot_append(out, snap, episodes_from, cache_from);
  return out;
}

bool decode_snapshot(std::string_view payload, core::LoopResume& out) {
  const std::size_t episodes = out.result.episodes.size();
  const std::size_t cache = out.cache_log.size();
  if (apply_snapshot(payload, out)) return true;
  out.result.episodes.erase(out.result.episodes.begin() +
                                static_cast<std::ptrdiff_t>(episodes),
                            out.result.episodes.end());
  out.cache_log.erase(out.cache_log.begin() + static_cast<std::ptrdiff_t>(cache),
                      out.cache_log.end());
  return false;
}

std::string encode_round(const core::RoundDelta& delta) {
  std::string out;
  encode_round_append(out, delta);
  return out;
}

bool decode_round(std::string_view payload, core::RoundDelta& out) {
  util::BinaryReader r(payload);
  std::uint32_t version = 0;
  std::int64_t first_episode = 0;
  std::uint64_t n_hashes = 0;
  if (!r.u32(version) || version != kRoundVersion || !r.i64(first_episode) ||
      !r.u64(n_hashes)) {
    return false;
  }
  out.first_episode = static_cast<int>(first_episode);
  out.job_hashes.clear();
  out.job_hashes.reserve(bounded_reserve(n_hashes, r.remaining(), 8));
  for (std::uint64_t i = 0; i < n_hashes; ++i) {
    std::uint64_t h = 0;
    if (!r.u64(h)) return false;
    out.job_hashes.push_back(h);
  }
  std::uint64_t n_evals = 0;
  if (!r.u64(n_evals)) return false;
  out.job_evals.clear();
  out.job_evals.reserve(bounded_reserve(n_evals, r.remaining(), 64));
  for (std::uint64_t i = 0; i < n_evals; ++i) {
    core::Evaluation ev;
    if (!decode_evaluation(r, ev)) return false;
    out.job_evals.push_back(std::move(ev));
  }
  return r.done();
}

std::filesystem::path study_checkpoint_dir(const std::string& root,
                                           std::uint64_t identity) {
  return std::filesystem::path(root) / util::hex_u64(identity);
}

std::optional<core::LoopResume> load_resume(const std::string& root,
                                            std::uint64_t identity) {
  const std::filesystem::path dir = study_checkpoint_dir(root, identity);
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return std::nullopt;
  obs::Span span("ckpt.replay");
  for (const JournalFile& journal : list_journals(dir)) {
    auto resume = read_journal(journal.path, identity);
    if (!resume) continue;
    if (obs::Registry::instance().enabled()) {
      obs::add_counter("ckpt.resumes", 1);
    }
    return resume;
  }
  return std::nullopt;
}

RunCheckpointer::RunCheckpointer(Options opts)
    : opts_(std::move(opts)),
      dir_(study_checkpoint_dir(opts_.directory, opts_.identity)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    util::warn_once("ckpt-dir-failed:" + dir_.string(), "ckpt",
                    "cannot create checkpoint directory; checkpointing "
                    "disabled for this run");
  }
}

bool RunCheckpointer::start_journal(int next_episode, bool torn) {
  const std::string name = "jrn-" + std::to_string(next_episode) + ".jrn";
  const std::filesystem::path final_path = dir_ / name;
  const std::filesystem::path tmp_path = dir_ / (name + ".tmp");
  // The stream stays open across the rename: later records are appended
  // to the same file under its final name.
  journal_.open(tmp_path, std::ios::binary | std::ios::trunc);
  journal_.write(record_buf_.data(),
                 static_cast<std::streamsize>(record_buf_.size()));
  if (!journal_.flush()) {
    util::warn_once("ckpt-write-failed:" + dir_.string(), "ckpt",
                    "snapshot write failed; run continues uncheckpointed");
    journal_.close();
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    util::warn_once("ckpt-write-failed:" + dir_.string(), "ckpt",
                    "snapshot rename failed; run continues uncheckpointed");
    journal_.close();
    return false;
  }
  // Simulated crash right after the torn journal landed: the older
  // journal must survive it.
  if (torn) std::_Exit(42);
  for (const JournalFile& journal : list_journals(dir_)) {
    if (journal.path != final_path) std::filesystem::remove(journal.path, ec);
  }
  return true;
}

void RunCheckpointer::on_snapshot(const core::LoopSnapshot& snap) {
  obs::Span span("ckpt.snapshot");
  const std::size_t n_episodes = snap.result->episodes.size();
  const std::size_t n_cache = snap.cache_log->size();
  // CodesignLoop's records and cache log only grow; a state that is not
  // an extension of what the journal holds starts a new journal.
  if (n_episodes < episodes_written_ || n_cache < cache_written_) journal_.close();
  const bool fresh = !journal_.is_open();
  const std::size_t episodes_from = fresh ? 0 : episodes_written_;
  const std::size_t cache_from = fresh ? 0 : cache_written_;

  // Header (new journal only) and record are assembled in one buffer that
  // is reused across snapshots and rounds, with the length/checksum fields
  // back-patched once the payload is encoded in place.
  std::string& buf = record_buf_;
  buf.clear();
  if (fresh) {
    buf.append(kJournalMagic);
    util::BinaryWriter(buf).u64(opts_.identity);
  }
  const std::size_t at = begin_record(buf, RecordType::kSnapshot);
  encode_snapshot_append(buf, snap, episodes_from, cache_from);
  const std::size_t payload_size = seal_record(buf, at);

  // Fires on the first snapshot at-or-after the armed episode (drained
  // boundaries rarely land exactly on one).
  const long long torn_at =
      util::FaultInjector::instance().torn_snapshot_episode();
  const bool torn =
      torn_at >= 0 && static_cast<long long>(snap.next_episode) >= torn_at;
  if (torn) buf.resize(buf.size() - payload_size / 2 - 1);

  if (fresh) {
    if (!start_journal(snap.next_episode, torn)) return;
  } else {
    journal_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    journal_.flush();
    // Simulated crash immediately after tearing the snapshot record.
    if (torn) std::_Exit(42);
    if (!journal_) {
      util::warn_once("ckpt-write-failed:" + dir_.string(), "ckpt",
                      "snapshot append failed; the next snapshot starts a "
                      "new journal");
      journal_.close();
      return;
    }
  }
  episodes_written_ = n_episodes;
  cache_written_ = n_cache;
  ++snapshots_written_;
  if (obs::Registry::instance().enabled()) {
    obs::add_counter("ckpt.snapshots", 1);
  }
}

void RunCheckpointer::on_round(const core::RoundDelta& delta) {
  // No journal of our own yet (fresh run before the first snapshot, or
  // resumed run still replaying toward one): the previous process's
  // journal is not ours to extend, so the round is simply not logged — a
  // crash here resumes from the old journal again.
  if (!journal_.is_open()) return;
  std::string& buf = record_buf_;
  buf.clear();
  const std::size_t at = begin_record(buf, RecordType::kRound);
  encode_round_append(buf, delta);
  const std::size_t payload_size = seal_record(buf, at);

  const long long torn_at = util::FaultInjector::instance().torn_log_episode();
  const bool torn =
      torn_at >= 0 && static_cast<long long>(delta.first_episode) >= torn_at;
  if (torn) buf.resize(buf.size() - payload_size / 2 - 1);
  journal_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  journal_.flush();
  if (torn) {
    // Simulated crash mid-append: the tail record is torn.
    std::_Exit(42);
  }
  if (!journal_) {
    util::warn_once("ckpt-log-write-failed:" + dir_.string(), "ckpt",
                    "journal append failed; later rounds will be "
                    "re-evaluated on resume");
    journal_.close();
  }
}

}  // namespace lcda::ckpt
