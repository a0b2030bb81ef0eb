#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lcda/core/evaluator.h"
#include "lcda/util/mmap_file.h"

namespace lcda::store {

/// Binary segment file format ("lcda-store-v2"). A segment is an immutable,
/// atomically published file holding fixed-width evaluation records sorted
/// by (eval_fingerprint, design_hash, stream_fingerprint, seq):
///
///   [32-byte header][record 0][record 1]...[record count-1]
///
/// header:  magic "LCDASTR2" | u64 count | u64 max_seq | u64 fnv1a64 of the
///          first 24 bytes
/// record:  328 bytes, all integers little-endian, doubles as IEEE-754 bit
///          patterns (bit-exact round trips — the property that keeps warm
///          reruns trace-identical), terminated by a u64 fnv1a64 checksum
///          of the record's first 320 bytes.
///
/// Both the per-process append segments (`segments/`) and the compacted
/// index buckets (`index/`) use this one format; a bucket is just a segment
/// whose record set is the bucket's partition of the whole store.
inline constexpr char kSegmentMagic[8] = {'L', 'C', 'D', 'A',
                                          'S', 'T', 'R', '2'};
inline constexpr std::size_t kHeaderSize = 32;
inline constexpr std::size_t kRecordSize = 328;
/// Capacity of a record's inline invalid_reason text. Evaluations whose
/// reason exceeds it are simply not persisted (the design is re-evaluated
/// deterministically on the next run), keeping records fixed-width.
inline constexpr std::size_t kMaxReason = 96;

/// One decoded store record: the three-part content key, the insertion
/// sequence number (smaller = older; the compactor's oldest-first eviction
/// order), and the evaluation payload. `evaluation.has_replay_params`
/// round-trips through a record flag, so cross-study consumers know whether
/// the deterministic part supports a Monte-Carlo replay.
struct StoreRecord {
  std::uint64_t eval_fingerprint = 0;
  std::uint64_t design_hash = 0;
  std::uint64_t stream_fingerprint = 0;
  std::uint64_t seq = 0;
  core::Evaluation evaluation;

  /// Key order used throughout the store (sorting, probing, dedupe).
  [[nodiscard]] bool key_less(const StoreRecord& other) const {
    if (eval_fingerprint != other.eval_fingerprint) {
      return eval_fingerprint < other.eval_fingerprint;
    }
    if (design_hash != other.design_hash) return design_hash < other.design_hash;
    if (stream_fingerprint != other.stream_fingerprint) {
      return stream_fingerprint < other.stream_fingerprint;
    }
    return seq < other.seq;
  }
};

/// True when `record` fits the fixed-width layout (its invalid_reason text
/// is at most kMaxReason bytes).
[[nodiscard]] bool record_encodable(const StoreRecord& record);

/// Encodes `record` into exactly kRecordSize bytes at `out` (checksum
/// included). Pre-condition: record_encodable(record).
void encode_record(const StoreRecord& record, std::uint8_t* out);

/// Decodes the record at `bytes` (kRecordSize long). Does NOT verify the
/// checksum — call record_checksum_ok first.
[[nodiscard]] StoreRecord decode_record(const std::uint8_t* bytes);

/// Verifies the trailing checksum of the record at `bytes`.
[[nodiscard]] bool record_checksum_ok(const std::uint8_t* bytes);

/// Read view over one mmap'd segment file: zero-copy binary probes into the
/// sorted record array. open() validates the header (magic, version, count
/// vs file size, header checksum); per-record checksums are verified lazily
/// by the probe's caller, so opening a view costs O(1), not O(records).
/// (EvalStore adds one key-prefix scan per live segment per process — see
/// uniform_segment_key.)
class SegmentView {
 public:
  /// Maps and validates `path`. On failure returns std::nullopt and, if
  /// `error` is non-null, a one-line reason ("" means the file vanished —
  /// ENOENT, the live-compaction race — which callers skip silently).
  [[nodiscard]] static std::optional<SegmentView> open(const std::string& path,
                                                      std::string* error);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::uint64_t max_seq() const { return max_seq_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Pointer to record `i`'s bytes (kRecordSize long).
  [[nodiscard]] const std::uint8_t* record(std::size_t i) const {
    return file_.data() + kHeaderSize + i * kRecordSize;
  }

  /// First index whose key is >= (eval_fp, design_hash, 0), i.e. the start
  /// of that pair's run of records; count() when past the end.
  [[nodiscard]] std::size_t lower_bound(std::uint64_t eval_fp,
                                        std::uint64_t design_hash) const;

  /// True when record `i` carries exactly this (eval_fp, design_hash) pair.
  [[nodiscard]] bool matches_pair(std::size_t i, std::uint64_t eval_fp,
                                  std::uint64_t design_hash) const;

 private:
  util::MmapFile file_;
  std::string path_;
  std::size_t count_ = 0;
  std::uint64_t max_seq_ = 0;
};

/// The (eval_fingerprint, stream_fingerprint) part of a record key: one
/// study's namespace. EvalStore::save writes exactly one per segment.
struct SegmentKey {
  std::uint64_t eval_fingerprint = 0;
  std::uint64_t stream_fingerprint = 0;
  bool operator==(const SegmentKey& other) const {
    return eval_fingerprint == other.eval_fingerprint &&
           stream_fingerprint == other.stream_fingerprint;
  }
};

/// The one SegmentKey every record of `view` carries, or std::nullopt when
/// the records mix keys or there are none. Reads only each record's 24-byte
/// key prefix and verifies no checksum: a full-key probe compares those same
/// unverified bytes, so a segment whose prefixes all name another key can
/// never yield that probe a hit, damaged records included.
[[nodiscard]] std::optional<SegmentKey> uniform_segment_key(
    const SegmentView& view);

/// Serializes `records` (must already be sorted by StoreRecord::key_less)
/// into a segment byte buffer, header and checksums included.
[[nodiscard]] std::vector<std::uint8_t> serialize_segment(
    const std::vector<StoreRecord>& records);

/// Sorted list of the "*.seg" files directly under `directory` (which may
/// not exist — empty result). Sorted so every reader maps files in one
/// deterministic order.
[[nodiscard]] std::vector<std::string> list_segment_files(
    const std::string& directory);

/// Parses an index bucket filename "bucket-<i>-of-<N>.seg" into its shard
/// coordinates. Returns false for any other name (the file is then probed
/// unconditionally, which is always safe).
[[nodiscard]] bool parse_bucket_name(const std::string& filename,
                                     std::size_t* index, std::size_t* count);

/// Publishes `bytes` as `path` through a uniquely named temp file in the
/// same directory and an atomic rename (concurrent writers can never tear
/// each other). Throws std::runtime_error on I/O failure — EvalStore::save
/// converts that into a counted, non-fatal warning.
void publish_file(const std::string& path, const std::vector<std::uint8_t>& bytes);

}  // namespace lcda::store
