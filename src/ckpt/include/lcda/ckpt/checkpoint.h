#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "lcda/core/loop.h"
#include "lcda/util/bytes.h"

/// lcda::ckpt — periodic, crash-resumable checkpoints of a CodesignLoop
/// run, written as one append-only journal per writer process.
///
/// A study's checkpoint state lives in `<root>/<hex identity>/` where
/// `identity` is the study fingerprint (config + strategy + episodes), so
/// different studies sharing one --checkpoint-dir never collide and a
/// stale checkpoint from an edited scenario is simply never found.
///
/// Each writer process owns one journal, `jrn-<E>.jrn`, named by the
/// next_episode E of its first snapshot:
///
///   header   magic "LCDAJRN1" | u64 identity
///   records  [u64 len | u64 fnv1a64(type + payload) | u8 type | payload]
///
/// in write order, of two kinds:
///
///   round     one finalized round's RoundDelta (encode_round), appended
///             and flushed after the round.
///   snapshot  the episode records and cache-log entries added since this
///             journal's previous snapshot, then the small head
///             (next_episode, RNG cursor, optimizer blob, best episode,
///             counters). The journal's first snapshot is whole.
///
/// A snapshot therefore costs O(episodes since the previous one) plus one
/// append, not O(run). The journal, with its first snapshot in it, is
/// written under a temp name and renamed into place; every later record
/// is appended to it. Once that first snapshot is in place, every other
/// journal in the directory is deleted: a resumed process never extends
/// the journal it resumed from, and the old one survives until the new
/// one has a snapshot to fall back to.
///
/// load_resume replays the newest journal's snapshot deltas in order and
/// returns the newest valid snapshot with the rounds logged after it. The
/// scan stops at the first short or corrupt record: a torn round costs
/// the rounds from it on (re-evaluated live); a torn or corrupt snapshot
/// falls back to the previous snapshot record, and a journal with no
/// valid snapshot to an older journal or a cold start — with a counted
/// warning each time, never an abort.
namespace lcda::ckpt {

inline constexpr std::string_view kJournalMagic = "LCDAJRN1";
/// Journal header: magic + u64 identity.
inline constexpr std::size_t kJournalHeaderSize = 16;
/// Record frame before the payload: u64 len + u64 checksum + u8 type.
inline constexpr std::size_t kRecordHeaderSize = 17;

enum class RecordType : std::uint8_t { kRound = 1, kSnapshot = 2 };

/// Value codecs, exposed for tests. Each decode returns false (leaving
/// the output unspecified) on a truncated or malformed reader.
void encode_evaluation(util::BinaryWriter& w, const core::Evaluation& ev);
[[nodiscard]] bool decode_evaluation(util::BinaryReader& r, core::Evaluation& ev);
void encode_design(util::BinaryWriter& w, const search::Design& d);
[[nodiscard]] bool decode_design(util::BinaryReader& r, search::Design& d);

/// Snapshot record payload (version 2): the base counts, the episode
/// records from index `episodes_from` and the cache-log entries from
/// index `cache_from` on, then the head (next_episode, RNG cursor,
/// optimizer blob, best_episode, counters). With both bases 0 it is a
/// whole snapshot.
[[nodiscard]] std::string encode_snapshot(const core::LoopSnapshot& snap,
                                          std::size_t episodes_from = 0,
                                          std::size_t cache_from = 0);

/// Applies one snapshot payload to `out`: its base counts must equal
/// out's current record and cache-log sizes, its records are appended and
/// its head replaces out's, and the result must hold exactly next_episode
/// records. On failure `out` is left as it was. `deltas` is untouched
/// (the round records' job).
[[nodiscard]] bool decode_snapshot(std::string_view payload, core::LoopResume& out);

/// Round record payload for one finalized round.
[[nodiscard]] std::string encode_round(const core::RoundDelta& delta);
[[nodiscard]] bool decode_round(std::string_view payload, core::RoundDelta& out);

/// `<root>/<16-hex-digit identity>` — the per-study checkpoint directory.
[[nodiscard]] std::filesystem::path study_checkpoint_dir(
    const std::string& root, std::uint64_t identity);

/// Loads the newest valid snapshot (+ the rounds logged after it) for a
/// study, or nullopt when no journal exists or none holds a valid
/// snapshot. All failure modes degrade with a counted warning; this never
/// throws on bad file contents.
[[nodiscard]] std::optional<core::LoopResume> load_resume(
    const std::string& root, std::uint64_t identity);

/// The CodesignLoop checkpoint sink: wire `on_snapshot`/`on_round` into
/// CodesignLoop::Options. Single-threaded (the loop invokes both hooks on
/// the driving thread only).
///
/// Round records are only appended once this process's journal exists —
/// after a resume, rounds finalized before the first fresh snapshot are
/// not logged (the old journal is not ours to extend). A crash in that
/// gap simply resumes from the old journal again, replaying the same
/// deltas deterministically. A failed append closes the journal; the next
/// snapshot starts a new one, whole.
///
/// Honors the torn-snapshot / torn-log fault injections (util/fault.h):
/// each truncates the record it targets, then exits the process with
/// status 42 — simulating a crash that tore the file.
class RunCheckpointer {
 public:
  struct Options {
    std::string directory;        ///< checkpoint root (--checkpoint-dir)
    std::uint64_t identity = 0;   ///< study fingerprint
  };

  explicit RunCheckpointer(Options opts);

  void on_snapshot(const core::LoopSnapshot& snap);
  void on_round(const core::RoundDelta& delta);

  /// Snapshots successfully written by this instance.
  [[nodiscard]] int snapshots_written() const { return snapshots_written_; }

 private:
  /// Writes `record_buf_` as the start of a new journal (temp name, then
  /// rename), leaves `journal_` open on it and deletes every other
  /// journal; false on I/O failure.
  bool start_journal(int next_episode, bool torn);

  Options opts_;
  std::filesystem::path dir_;
  std::ofstream journal_;          ///< this process's journal, once started
  std::string record_buf_;         ///< reused record buffer
  std::size_t episodes_written_ = 0;  ///< records in the journal's snapshots
  std::size_t cache_written_ = 0;     ///< cache-log entries in them
  int snapshots_written_ = 0;
};

}  // namespace lcda::ckpt
