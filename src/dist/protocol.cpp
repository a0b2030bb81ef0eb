#include "lcda/dist/protocol.h"

#include "lcda/util/json_lite.h"

namespace lcda::dist {

namespace {

using util::Json;

const char* command_name(WorkerCommand::Kind kind) {
  switch (kind) {
    case WorkerCommand::Kind::kRun: return "run";
    case WorkerCommand::Kind::kShutdown: return "shutdown";
  }
  return "run";
}

const char* reply_name(WorkerReply::Kind kind) {
  switch (kind) {
    case WorkerReply::Kind::kDone: return "done";
    case WorkerReply::Kind::kFailed: return "failed";
  }
  return "done";
}

/// Parses `line` into a v1 message object; nullptr-equivalent (nullopt at
/// the caller) for invalid JSON, a non-object, or a wrong format tag.
std::optional<Json> parse_envelope(std::string_view line) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!doc.is_object()) return std::nullopt;
  if (!doc.contains("format") || !doc.at("format").is_string() ||
      doc.at("format").as_string() != kWorkerCmdFormat) {
    return std::nullopt;
  }
  return doc;
}

}  // namespace

std::string encode_worker_command(const WorkerCommand& cmd) {
  Json doc = Json::object();
  doc["format"] = kWorkerCmdFormat;
  doc["cmd"] = command_name(cmd.kind);
  if (cmd.kind == WorkerCommand::Kind::kRun) doc["spec_path"] = cmd.spec_path;
  return doc.dump() + "\n";
}

std::string encode_worker_reply(const WorkerReply& reply) {
  Json doc = Json::object();
  doc["format"] = kWorkerCmdFormat;
  doc["reply"] = reply_name(reply.kind);
  if (reply.kind == WorkerReply::Kind::kDone) {
    doc["manifest_path"] = reply.manifest_path;
  }
  if (reply.kind == WorkerReply::Kind::kFailed) doc["reason"] = reply.reason;
  return doc.dump() + "\n";
}

std::optional<WorkerCommand> parse_worker_command(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const std::optional<Json> doc = parse_envelope(line);
  if (!doc || !doc->contains("cmd") || !doc->at("cmd").is_string()) {
    return std::nullopt;
  }
  const std::string& name = doc->at("cmd").as_string();
  WorkerCommand cmd;
  if (name == "run") {
    cmd.kind = WorkerCommand::Kind::kRun;
    if (!doc->contains("spec_path") || !doc->at("spec_path").is_string()) {
      return std::nullopt;
    }
    cmd.spec_path = doc->at("spec_path").as_string();
  } else if (name == "shutdown") {
    cmd.kind = WorkerCommand::Kind::kShutdown;
  } else {
    return std::nullopt;
  }
  return cmd;
}

std::optional<WorkerReply> parse_worker_reply(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const std::optional<Json> doc = parse_envelope(line);
  if (!doc || !doc->contains("reply") || !doc->at("reply").is_string()) {
    return std::nullopt;
  }
  const std::string& name = doc->at("reply").as_string();
  WorkerReply reply;
  if (name == "done") {
    reply.kind = WorkerReply::Kind::kDone;
    if (!doc->contains("manifest_path") ||
        !doc->at("manifest_path").is_string()) {
      return std::nullopt;
    }
    reply.manifest_path = doc->at("manifest_path").as_string();
  } else if (name == "failed") {
    reply.kind = WorkerReply::Kind::kFailed;
    if (doc->contains("reason") && doc->at("reason").is_string()) {
      reply.reason = doc->at("reason").as_string();
    }
  } else {
    return std::nullopt;
  }
  return reply;
}

std::optional<std::string> LineBuffer::next_line() {
  const std::size_t nl = pending_.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  std::string line = pending_.substr(0, nl);
  pending_.erase(0, nl + 1);
  return line;
}

}  // namespace lcda::dist
