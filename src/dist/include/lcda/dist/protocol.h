#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace lcda::dist {

/// The coordinator <-> resident-worker pipe protocol: one JSON object per
/// line, format `lcda-worker-cmd-v1`, commands down the worker's stdin and
/// replies up its stdout. Line-delimited so a reader never needs to know a
/// message's length in advance, and JSON so paths with arbitrary bytes
/// survive the trip. A malformed or torn line parses to std::nullopt — the
/// coordinator treats a worker that talks garbage like a dead one
/// (respawn + retry), it never crashes on it.
inline constexpr const char* kWorkerCmdFormat = "lcda-worker-cmd-v1";

/// Coordinator -> worker. `run` names a shard-spec file to execute;
/// `shutdown` asks the worker to finish nothing further and exit 0 (the
/// worker also treats stdin EOF as shutdown, so a coordinator crash can
/// never leave an immortal worker reading a closed pipe).
struct WorkerCommand {
  enum class Kind { kRun, kShutdown };
  Kind kind = Kind::kRun;
  std::string spec_path;  ///< kRun only
};

/// Worker -> coordinator. `done` carries the path of the manifest the spec
/// published; `failed` carries a reason string (the spec did not produce a
/// manifest, but the worker survived and can take another command).
struct WorkerReply {
  enum class Kind { kDone, kFailed };
  Kind kind = Kind::kDone;
  std::string manifest_path;  ///< kDone only
  std::string reason;         ///< kFailed only
};

/// Serialize to a single newline-terminated JSON line.
[[nodiscard]] std::string encode_worker_command(const WorkerCommand& cmd);
[[nodiscard]] std::string encode_worker_reply(const WorkerReply& reply);

/// Parse one line (with or without its trailing newline). Returns
/// std::nullopt for anything that is not a well-formed v1 message:
/// invalid JSON, wrong/missing format tag, unknown command, or a `run`
/// without a spec path.
[[nodiscard]] std::optional<WorkerCommand> parse_worker_command(
    std::string_view line);
[[nodiscard]] std::optional<WorkerReply> parse_worker_reply(
    std::string_view line);

/// Reassembles complete lines from arbitrary pipe-read chunks. feed()
/// whatever read() returned — message fragments, many messages at once, a
/// torn tail — and next_line() hands back each complete line (without the
/// newline) in order, or std::nullopt while the current line is still
/// partial. The partial tail survives in pending() until its newline
/// arrives, so a message split across reads is never lost or misparsed.
class LineBuffer {
 public:
  void feed(std::string_view chunk) { pending_.append(chunk); }

  [[nodiscard]] std::optional<std::string> next_line();

  /// Bytes received but not yet terminated by a newline.
  [[nodiscard]] const std::string& pending() const { return pending_; }

 private:
  std::string pending_;
};

}  // namespace lcda::dist
