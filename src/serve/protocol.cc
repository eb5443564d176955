#include "serve/protocol.h"

#include <utility>

#include "util/json.h"

namespace tps {
namespace serve {

namespace {

/// Restores a StatusCode from its stable wire name ("DeadlineExceeded").
StatusCode CodeFromName(const std::string& name) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    if (name == StatusCodeToString(code)) return code;
  }
  return StatusCode::kInternal;
}

json::Value SizeArray(const std::vector<size_t>& values) {
  json::Value array = json::Value::Array();
  for (size_t v : values) {
    array.Append(json::Value::Int(static_cast<int64_t>(v)));
  }
  return array;
}

}  // namespace

StatusOr<WireRequest> ParseRequestLine(const std::string& line) {
  TPS_ASSIGN_OR_RETURN(json::Value doc, json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  WireRequest request;
  if (const json::Value* cmd = doc.Find("cmd"); cmd != nullptr) {
    if (!cmd->is_string()) {
      return Status::InvalidArgument("\"cmd\" must be a string");
    }
    const std::string& name = cmd->string();
    if (name == "select") {
      request.command = WireCommand::kSelect;
    } else if (name == "ping") {
      return WireRequest{WireCommand::kPing, {}, {}};
    } else if (name == "stats") {
      return WireRequest{WireCommand::kStats, {}, {}};
    } else if (name == "shutdown") {
      return WireRequest{WireCommand::kShutdown, {}, {}};
    } else if (name == "reload") {
      request.command = WireCommand::kReload;
      for (const char* key : {"store", "id", "matrix", "clustering",
                              "index", "embeddings"}) {
        if (doc.Find(key) == nullptr) continue;
        TPS_ASSIGN_OR_RETURN(const std::string value, doc.GetString(key));
        if (key == std::string("store")) request.reload.store = value;
        if (key == std::string("id")) request.reload.id = value;
        if (key == std::string("matrix")) request.reload.matrix = value;
        if (key == std::string("clustering")) {
          request.reload.clustering = value;
        }
        if (key == std::string("index")) request.reload.index = value;
        if (key == std::string("embeddings")) {
          request.reload.embeddings = value;
        }
      }
      if (request.reload.store.empty() && request.reload.matrix.empty()) {
        return Status::InvalidArgument(
            "reload needs \"store\" or \"matrix\"/\"clustering\" paths");
      }
      return request;
    } else {
      return Status::InvalidArgument("unknown cmd: '" + name + "'");
    }
  }

  // Select fields. Unknown keys are deliberately ignored.
  TPS_ASSIGN_OR_RETURN(request.select.target, doc.GetString("target"));
  if (request.select.target.empty()) {
    return Status::InvalidArgument("\"target\" must not be empty");
  }
  if (doc.Find("k") != nullptr) {
    TPS_ASSIGN_OR_RETURN(const double k, doc.GetNumber("k"));
    if (k < 1) return Status::InvalidArgument("\"k\" must be >= 1");
    request.select.top_k = static_cast<size_t>(k);
  }
  if (doc.Find("threshold") != nullptr) {
    TPS_ASSIGN_OR_RETURN(request.select.threshold,
                         doc.GetNumber("threshold"));
    if (request.select.threshold < 0.0) {
      return Status::InvalidArgument("\"threshold\" must be >= 0");
    }
  }
  if (doc.Find("proxy") != nullptr) {
    TPS_ASSIGN_OR_RETURN(request.select.proxy, doc.GetString("proxy"));
  }
  if (doc.Find("proxies") != nullptr) {
    TPS_ASSIGN_OR_RETURN(const json::Value* proxies,
                         doc.GetArray("proxies"));
    for (const json::Value& item : proxies->items()) {
      if (!item.is_string()) {
        return Status::InvalidArgument("\"proxies\" must hold strings");
      }
      request.select.proxies.push_back(item.string());
    }
  }
  if (doc.Find("deadline_ms") != nullptr) {
    TPS_ASSIGN_OR_RETURN(request.select.deadline_ms,
                         doc.GetNumber("deadline_ms"));
    if (request.select.deadline_ms < 0.0) {
      return Status::InvalidArgument("\"deadline_ms\" must be >= 0");
    }
  }
  if (doc.Find("trace") != nullptr) {
    TPS_ASSIGN_OR_RETURN(request.select.want_trace, doc.GetBool("trace"));
  }
  if (doc.Find("nprobe") != nullptr) {
    TPS_ASSIGN_OR_RETURN(const double nprobe, doc.GetNumber("nprobe"));
    if (nprobe < 0) return Status::InvalidArgument("\"nprobe\" must be >= 0");
    request.select.nprobe = static_cast<size_t>(nprobe);
  }
  if (doc.Find("recall_backend") != nullptr) {
    TPS_ASSIGN_OR_RETURN(request.select.recall_backend,
                         doc.GetString("recall_backend"));
  }
  return request;
}

std::string RequestToLine(const SelectionRequest& request) {
  json::Value doc = json::Value::Object();
  doc.Set("target", json::Value::String(request.target));
  doc.Set("k", json::Value::Int(static_cast<int64_t>(request.top_k)));
  doc.Set("threshold", json::Value::Number(request.threshold));
  doc.Set("proxy", json::Value::String(request.proxy));
  if (!request.proxies.empty()) {
    json::Value proxies = json::Value::Array();
    for (const std::string& p : request.proxies) {
      proxies.Append(json::Value::String(p));
    }
    doc.Set("proxies", std::move(proxies));
  }
  if (request.deadline_ms > 0.0) {
    doc.Set("deadline_ms", json::Value::Number(request.deadline_ms));
  }
  if (request.want_trace) doc.Set("trace", json::Value::Bool(true));
  if (request.nprobe != 0) {
    doc.Set("nprobe", json::Value::Int(static_cast<int64_t>(request.nprobe)));
  }
  if (!request.recall_backend.empty()) {
    doc.Set("recall_backend", json::Value::String(request.recall_backend));
  }
  return doc.Dump(-1);
}

std::string ResponseToLine(const SelectionResponse& response) {
  if (!response.status.ok()) return ErrorToLine(response.status);
  json::Value doc = json::Value::Object();
  doc.Set("ok", json::Value::Bool(true));
  doc.Set("target", json::Value::String(response.target));
  doc.Set("selected", json::Value::String(response.selected_model));
  doc.Set("accuracy", json::Value::Number(response.selected_accuracy));
  doc.Set("training_epochs", json::Value::Number(response.training_epochs));
  doc.Set("inference_epochs",
          json::Value::Number(response.inference_epochs));
  doc.Set("total_epochs", json::Value::Number(response.total_epochs));
  doc.Set("survivors", SizeArray(response.survivors_per_stage));
  doc.Set("artifact_version", json::Value::Int(static_cast<int64_t>(
                                  response.artifact_version)));
  doc.Set("wall_ms", json::Value::Number(response.wall_ms));
  doc.Set("cache_hits",
          json::Value::Int(static_cast<int64_t>(response.cache_hits)));
  doc.Set("cache_misses",
          json::Value::Int(static_cast<int64_t>(response.cache_misses)));
  if (!response.index_backend.empty()) {
    doc.Set("index_backend", json::Value::String(response.index_backend));
  }
  if (!response.recall_backend.empty()) {
    doc.Set("recall_backend", json::Value::String(response.recall_backend));
  }
  if (response.has_trace) {
    // The trace codec already emits deterministic JSON; parse it into the
    // reply document rather than duplicating the schema here.
    auto trace_or = json::Parse(response.trace.ToJson(-1));
    if (trace_or.ok()) doc.Set("trace", std::move(*trace_or));
  }
  return doc.Dump(-1);
}

std::string ErrorToLine(const Status& status) {
  json::Value doc = json::Value::Object();
  doc.Set("ok", json::Value::Bool(false));
  doc.Set("code",
          json::Value::String(std::string(StatusCodeToString(
              status.ok() ? StatusCode::kInternal : status.code()))));
  doc.Set("error", json::Value::String(
                       status.ok() ? "error reply for OK status"
                                   : status.message()));
  return doc.Dump(-1);
}

std::string PongLine() {
  json::Value doc = json::Value::Object();
  doc.Set("ok", json::Value::Bool(true));
  doc.Set("pong", json::Value::Bool(true));
  return doc.Dump(-1);
}

std::string StatsToLine(const ServiceStats& stats) {
  json::Value inner = json::Value::Object();
  inner.Set("queue_depth",
            json::Value::Int(static_cast<int64_t>(stats.queue_depth)));
  inner.Set("artifact_version", json::Value::Int(static_cast<int64_t>(
                                    stats.artifact_version)));
  inner.Set("reloads",
            json::Value::Int(static_cast<int64_t>(stats.reloads)));
  inner.Set("admitted",
            json::Value::Int(static_cast<int64_t>(stats.admitted)));
  inner.Set("rejected",
            json::Value::Int(static_cast<int64_t>(stats.rejected)));
  inner.Set("completed",
            json::Value::Int(static_cast<int64_t>(stats.completed)));
  inner.Set("deadline_exceeded", json::Value::Int(static_cast<int64_t>(
                                     stats.deadline_exceeded)));
  inner.Set("errors", json::Value::Int(static_cast<int64_t>(stats.errors)));
  inner.Set("cache_hits",
            json::Value::Int(static_cast<int64_t>(stats.cache_hits)));
  inner.Set("cache_misses",
            json::Value::Int(static_cast<int64_t>(stats.cache_misses)));
  inner.Set("cache_evictions", json::Value::Int(static_cast<int64_t>(
                                   stats.cache_evictions)));
  inner.Set("cache_entries",
            json::Value::Int(static_cast<int64_t>(stats.cache_entries)));
  json::Value doc = json::Value::Object();
  doc.Set("ok", json::Value::Bool(true));
  doc.Set("stats", std::move(inner));
  return doc.Dump(-1);
}

std::string ShutdownAckLine() {
  json::Value doc = json::Value::Object();
  doc.Set("ok", json::Value::Bool(true));
  doc.Set("shutting_down", json::Value::Bool(true));
  return doc.Dump(-1);
}

std::string ReloadAckLine(uint64_t artifact_version) {
  json::Value doc = json::Value::Object();
  doc.Set("ok", json::Value::Bool(true));
  doc.Set("reloaded", json::Value::Bool(true));
  doc.Set("artifact_version",
          json::Value::Int(static_cast<int64_t>(artifact_version)));
  return doc.Dump(-1);
}

StatusOr<SelectionResponse> ParseResponseLine(const std::string& line) {
  TPS_ASSIGN_OR_RETURN(json::Value doc, json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  TPS_ASSIGN_OR_RETURN(const bool ok, doc.GetBool("ok"));
  if (!ok) {
    TPS_ASSIGN_OR_RETURN(const std::string code, doc.GetString("code"));
    TPS_ASSIGN_OR_RETURN(const std::string error, doc.GetString("error"));
    return Status(CodeFromName(code), error);
  }
  SelectionResponse response;
  response.status = Status::OK();
  TPS_ASSIGN_OR_RETURN(response.target, doc.GetString("target"));
  TPS_ASSIGN_OR_RETURN(response.selected_model, doc.GetString("selected"));
  TPS_ASSIGN_OR_RETURN(response.selected_accuracy,
                       doc.GetNumber("accuracy"));
  TPS_ASSIGN_OR_RETURN(response.training_epochs,
                       doc.GetNumber("training_epochs"));
  TPS_ASSIGN_OR_RETURN(response.inference_epochs,
                       doc.GetNumber("inference_epochs"));
  TPS_ASSIGN_OR_RETURN(response.total_epochs,
                       doc.GetNumber("total_epochs"));
  TPS_ASSIGN_OR_RETURN(const json::Value* survivors,
                       doc.GetArray("survivors"));
  for (const json::Value& item : survivors->items()) {
    if (!item.is_number() || item.number() < 0) {
      return Status::InvalidArgument("\"survivors\" must hold counts");
    }
    response.survivors_per_stage.push_back(
        static_cast<size_t>(item.number()));
  }
  if (doc.Find("artifact_version") != nullptr) {
    TPS_ASSIGN_OR_RETURN(const double version,
                         doc.GetNumber("artifact_version"));
    response.artifact_version = static_cast<uint64_t>(version);
  }
  TPS_ASSIGN_OR_RETURN(response.wall_ms, doc.GetNumber("wall_ms"));
  TPS_ASSIGN_OR_RETURN(const double hits, doc.GetNumber("cache_hits"));
  TPS_ASSIGN_OR_RETURN(const double misses, doc.GetNumber("cache_misses"));
  response.cache_hits = static_cast<uint64_t>(hits);
  response.cache_misses = static_cast<uint64_t>(misses);
  if (doc.Find("index_backend") != nullptr) {
    TPS_ASSIGN_OR_RETURN(response.index_backend,
                         doc.GetString("index_backend"));
  }
  if (doc.Find("recall_backend") != nullptr) {
    TPS_ASSIGN_OR_RETURN(response.recall_backend,
                         doc.GetString("recall_backend"));
  }
  if (const json::Value* trace = doc.Find("trace"); trace != nullptr) {
    TPS_ASSIGN_OR_RETURN(response.trace,
                         SelectionTrace::FromJson(trace->Dump(-1)));
    response.has_trace = true;
  }
  return response;
}

}  // namespace serve
}  // namespace tps
