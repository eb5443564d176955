#include "serve/reference_protocol.h"

#include <cstdint>
#include <utility>

#include "util/json.h"

namespace tps {
namespace serve {
namespace reference {

namespace {

json::Value SizeArray(const std::vector<size_t>& values) {
  json::Value array = json::Value::Array();
  for (size_t v : values) array.Append(json::Value::Uint(v));
  return array;
}

/// Counts of 2^64 and more mean "all" (the production codec saturates the
/// same way; a plain cast of such a double is undefined).
size_t SaturatedCount(double v) {
  return v >= 18446744073709551616.0 ? SIZE_MAX : static_cast<size_t>(v);
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
      for (const char* key : {"store", "id"}) {
        if (doc.Find(key) == nullptr) continue;
        TPS_ASSIGN_OR_RETURN(const std::string value, doc.GetString(key));
        if (key == std::string("store")) request.reload.store = value;
        if (key == std::string("id")) request.reload.id = value;
      }
      if (request.reload.store.empty()) {
        return Status::InvalidArgument("reload needs a \"store\" path");
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
    request.select.top_k = SaturatedCount(k);
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
    request.select.nprobe = SaturatedCount(nprobe);
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
  doc.Set("k", json::Value::Uint(request.top_k));
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
    doc.Set("nprobe", json::Value::Uint(request.nprobe));
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
  doc.Set("artifact_version", json::Value::Uint(response.artifact_version));
  doc.Set("wall_ms", json::Value::Number(response.wall_ms));
  doc.Set("cache_hits", json::Value::Uint(response.cache_hits));
  doc.Set("cache_misses", json::Value::Uint(response.cache_misses));
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
  inner.Set("queue_depth", json::Value::Uint(stats.queue_depth));
  inner.Set("artifact_version", json::Value::Uint(stats.artifact_version));
  inner.Set("reloads", json::Value::Uint(stats.reloads));
  inner.Set("admitted", json::Value::Uint(stats.admitted));
  inner.Set("rejected", json::Value::Uint(stats.rejected));
  inner.Set("completed", json::Value::Uint(stats.completed));
  inner.Set("deadline_exceeded", json::Value::Uint(stats.deadline_exceeded));
  inner.Set("errors", json::Value::Uint(stats.errors));
  inner.Set("cache_hits", json::Value::Uint(stats.cache_hits));
  inner.Set("cache_misses", json::Value::Uint(stats.cache_misses));
  inner.Set("cache_evictions", json::Value::Uint(stats.cache_evictions));
  inner.Set("cache_entries", json::Value::Uint(stats.cache_entries));
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
  doc.Set("artifact_version", json::Value::Uint(artifact_version));
  return doc.Dump(-1);
}

}  // namespace reference
}  // namespace serve
}  // namespace tps
