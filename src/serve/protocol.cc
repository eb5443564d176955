#include "serve/protocol.h"

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
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

// [select-codec-begin] The server side of every select. Requests are
// scanned once with json::VisitMembers and replies written with
// json::Writer; no document model is built between these markers
// (tools/check_select_path.sh checks it).

/// The request keys the protocol reads; every other key is scanned and
/// dropped.
enum Key {
  kCmd,
  kTarget,
  kK,
  kThreshold,
  kProxy,
  kProxies,
  kDeadlineMs,
  kTrace,
  kNprobe,
  kRecallBackend,
  kStore,
  kId,
  kNumKeys
};

constexpr std::string_view kKeyNames[kNumKeys] = {
    "cmd",   "target",         "k",     "threshold", "proxy",
    "proxies", "deadline_ms",  "trace", "nprobe",    "recall_backend",
    "store", "id"};

/// The last value a line gave one known key (a later duplicate wins, as
/// in a parsed JSON object).
struct Field {
  std::string_view name;
  bool present = false;
  json::Value::Type type = json::Value::Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;    // kString.
  std::string_view raw;  // The value's text in the line.
};

/// Scans `line` once: `fields[k]` gets the last value of key `names[k]`,
/// and every other key is scanned and dropped. False when the line is
/// well-formed JSON but not an object.
template <size_t N>
StatusOr<bool> ScanFields(std::string_view line,
                          const std::string_view (&names)[N],
                          Field (&fields)[N]) {
  for (size_t k = 0; k < N; ++k) fields[k].name = names[k];
  return json::VisitMembers(
      line, [&fields](std::string_view key, const json::Member& value) {
        for (Field& field : fields) {
          if (key != field.name) continue;
          field.present = true;
          field.type = value.type;
          field.boolean = value.boolean;
          field.number = value.number;
          field.raw = value.raw;
          if (value.type == json::Value::Type::kString) {
            field.string.assign(value.string);
          }
          return;
        }
      });
}

Status MemberTypeError(const char* type, const Field& field) {
  return Status::InvalidArgument("missing or non-" + std::string(type) +
                                 " member: " + std::string(field.name));
}

StatusOr<std::string> TakeString(Field& field) {
  if (!field.present || field.type != json::Value::Type::kString) {
    return MemberTypeError("string", field);
  }
  return std::move(field.string);
}

StatusOr<double> GetNumber(const Field& field) {
  if (!field.present || field.type != json::Value::Type::kNumber) {
    return MemberTypeError("number", field);
  }
  return field.number;
}

/// Counts of 2^64 and more mean "all"; a plain cast of such a double is
/// undefined.
size_t SaturatedCount(double v) {
  return v >= 18446744073709551616.0 ? SIZE_MAX : static_cast<size_t>(v);
}

}  // namespace

StatusOr<WireRequest> ParseRequestLine(std::string_view line) {
  Field fields[kNumKeys];
  TPS_ASSIGN_OR_RETURN(const bool is_object,
                       ScanFields(line, kKeyNames, fields));
  if (!is_object) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  WireRequest request;
  if (const Field& cmd = fields[kCmd]; cmd.present) {
    if (cmd.type != json::Value::Type::kString) {
      return Status::InvalidArgument("\"cmd\" must be a string");
    }
    const std::string& name = cmd.string;
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
      ArtifactPaths& reload = request.reload;
      if (fields[kStore].present) {
        TPS_ASSIGN_OR_RETURN(reload.store, TakeString(fields[kStore]));
      }
      if (fields[kId].present) {
        TPS_ASSIGN_OR_RETURN(reload.id, TakeString(fields[kId]));
      }
      if (reload.store.empty()) {
        return Status::InvalidArgument("reload needs a \"store\" path");
      }
      return request;
    } else {
      return Status::InvalidArgument("unknown cmd: '" + name + "'");
    }
  }

  // Select fields, validated in a fixed order whatever the line's order.
  SelectionRequest& select = request.select;
  TPS_ASSIGN_OR_RETURN(select.target, TakeString(fields[kTarget]));
  if (select.target.empty()) {
    return Status::InvalidArgument("\"target\" must not be empty");
  }
  if (fields[kK].present) {
    TPS_ASSIGN_OR_RETURN(const double k, GetNumber(fields[kK]));
    if (k < 1) return Status::InvalidArgument("\"k\" must be >= 1");
    select.top_k = SaturatedCount(k);
  }
  if (fields[kThreshold].present) {
    TPS_ASSIGN_OR_RETURN(select.threshold, GetNumber(fields[kThreshold]));
    if (select.threshold < 0.0) {
      return Status::InvalidArgument("\"threshold\" must be >= 0");
    }
  }
  if (fields[kProxy].present) {
    TPS_ASSIGN_OR_RETURN(select.proxy, TakeString(fields[kProxy]));
  }
  if (const Field& proxies = fields[kProxies]; proxies.present) {
    if (proxies.type != json::Value::Type::kArray) {
      return MemberTypeError("array", proxies);
    }
    bool all_strings = true;
    // The array already scanned clean as part of the line.
    TPS_RETURN_NOT_OK(
        json::VisitItems(proxies.raw, [&](const json::Member& item) {
          all_strings = all_strings && item.type == json::Value::Type::kString;
          if (all_strings) select.proxies.emplace_back(item.string);
        }).status());
    if (!all_strings) {
      return Status::InvalidArgument("\"proxies\" must hold strings");
    }
  }
  if (fields[kDeadlineMs].present) {
    TPS_ASSIGN_OR_RETURN(select.deadline_ms, GetNumber(fields[kDeadlineMs]));
    if (select.deadline_ms < 0.0) {
      return Status::InvalidArgument("\"deadline_ms\" must be >= 0");
    }
  }
  if (const Field& trace = fields[kTrace]; trace.present) {
    if (trace.type != json::Value::Type::kBool) {
      return MemberTypeError("bool", trace);
    }
    select.want_trace = trace.boolean;
  }
  if (fields[kNprobe].present) {
    TPS_ASSIGN_OR_RETURN(const double nprobe, GetNumber(fields[kNprobe]));
    if (nprobe < 0) return Status::InvalidArgument("\"nprobe\" must be >= 0");
    select.nprobe = SaturatedCount(nprobe);
  }
  if (fields[kRecallBackend].present) {
    TPS_ASSIGN_OR_RETURN(select.recall_backend,
                         TakeString(fields[kRecallBackend]));
  }
  return request;
}

namespace {

/// One compact line written by `write` into a fresh string.
template <typename Write>
std::string Line(Write&& write) {
  std::string out;
  json::Writer writer(&out);
  write(writer);
  return out;
}

}  // namespace

std::string RequestToLine(const SelectionRequest& request) {
  return Line([&](json::Writer& w) {
    w.BeginObject()
        .Key("target").String(request.target)
        .Key("k").Uint(request.top_k)
        .Key("threshold").Number(request.threshold)
        .Key("proxy").String(request.proxy);
    if (!request.proxies.empty()) {
      w.Key("proxies").BeginArray();
      for (const std::string& p : request.proxies) w.String(p);
      w.EndArray();
    }
    if (request.deadline_ms > 0.0) {
      w.Key("deadline_ms").Number(request.deadline_ms);
    }
    if (request.want_trace) w.Key("trace").Bool(true);
    if (request.nprobe != 0) {
      w.Key("nprobe").Uint(request.nprobe);
    }
    if (!request.recall_backend.empty()) {
      w.Key("recall_backend").String(request.recall_backend);
    }
    w.EndObject();
  });
}

void AppendError(const Status& status, std::string* out) {
  json::Writer(out)
      .BeginObject()
      .Key("ok").Bool(false)
      .Key("code").String(StatusCodeToString(
          status.ok() ? StatusCode::kInternal : status.code()))
      .Key("error").String(status.ok() ? "error reply for OK status"
                                       : status.message())
      .EndObject();
}

void AppendResponse(const SelectionResponse& response, std::string* out) {
  if (!response.status.ok()) {
    AppendError(response.status, out);
    return;
  }
  json::Writer w(out);
  w.BeginObject()
      .Key("ok").Bool(true)
      .Key("target").String(response.target)
      .Key("selected").String(response.selected_model)
      .Key("accuracy").Number(response.selected_accuracy)
      .Key("training_epochs").Number(response.training_epochs)
      .Key("inference_epochs").Number(response.inference_epochs)
      .Key("total_epochs").Number(response.total_epochs)
      .Key("survivors").BeginArray();
  for (size_t v : response.survivors_per_stage) w.Uint(v);
  w.EndArray()
      .Key("artifact_version").Uint(response.artifact_version)
      .Key("wall_ms").Number(response.wall_ms)
      .Key("cache_hits").Uint(response.cache_hits)
      .Key("cache_misses").Uint(response.cache_misses);
  if (!response.index_backend.empty()) {
    w.Key("index_backend").String(response.index_backend);
  }
  if (!response.recall_backend.empty()) {
    w.Key("recall_backend").String(response.recall_backend);
  }
  // The trace codec already writes deterministic compact JSON; splice it.
  if (response.has_trace) w.Key("trace").Raw(response.trace.ToJson(-1));
  w.EndObject();
}

std::string ResponseToLine(const SelectionResponse& response) {
  std::string out;
  out.reserve(512);  // A select reply without a trace is about 300 bytes.
  AppendResponse(response, &out);
  return out;
}

std::string PongLine() {
  return Line([](json::Writer& w) {
    w.BeginObject().Key("ok").Bool(true).Key("pong").Bool(true).EndObject();
  });
}

std::string StatsToLine(const ServiceStats& stats) {
  return Line([&](json::Writer& w) {
    w.BeginObject()
        .Key("ok").Bool(true)
        .Key("stats").BeginObject()
        .Key("queue_depth").Uint(stats.queue_depth)
        .Key("artifact_version").Uint(stats.artifact_version)
        .Key("reloads").Uint(stats.reloads)
        .Key("admitted").Uint(stats.admitted)
        .Key("rejected").Uint(stats.rejected)
        .Key("completed").Uint(stats.completed)
        .Key("deadline_exceeded").Uint(stats.deadline_exceeded)
        .Key("errors").Uint(stats.errors)
        .Key("cache_hits").Uint(stats.cache_hits)
        .Key("cache_misses").Uint(stats.cache_misses)
        .Key("cache_evictions").Uint(stats.cache_evictions)
        .Key("cache_entries").Uint(stats.cache_entries)
        .EndObject()
        .EndObject();
  });
}

std::string ShutdownAckLine() {
  return Line([](json::Writer& w) {
    w.BeginObject()
        .Key("ok").Bool(true)
        .Key("shutting_down").Bool(true)
        .EndObject();
  });
}

std::string ReloadAckLine(uint64_t artifact_version) {
  return Line([&](json::Writer& w) {
    w.BeginObject()
        .Key("ok").Bool(true)
        .Key("reloaded").Bool(true)
        .Key("artifact_version").Uint(artifact_version)
        .EndObject();
  });
}

// [select-codec-end]

namespace {

/// The reply keys ParseResponseLine reads.
namespace reply {
enum Key {
  kOk,
  kCode,
  kError,
  kTarget,
  kSelected,
  kAccuracy,
  kTrainingEpochs,
  kInferenceEpochs,
  kTotalEpochs,
  kSurvivors,
  kArtifactVersion,
  kWallMs,
  kCacheHits,
  kCacheMisses,
  kIndexBackend,
  kRecallBackend,
  kTrace,
  kNumKeys
};

constexpr std::string_view kKeyNames[kNumKeys] = {
    "ok",           "code",           "error",           "target",
    "selected",     "accuracy",       "training_epochs", "inference_epochs",
    "total_epochs", "survivors",      "artifact_version", "wall_ms",
    "cache_hits",   "cache_misses",   "index_backend",   "recall_backend",
    "trace"};
}  // namespace reply

/// A count in a reply, read from its text rather than a double (which
/// rounds past 2^53): the plain decimal digits of a value in [0, 2^64).
StatusOr<uint64_t> ReplyCount(json::Value::Type type, std::string_view raw,
                              std::string_view key) {
  uint64_t count = 0;
  const char* end = raw.data() + raw.size();
  if (type == json::Value::Type::kNumber) {
    const std::from_chars_result read = std::from_chars(raw.data(), end, count);
    if (read.ec == std::errc() && read.ptr == end) return count;
  }
  return Status::InvalidArgument("\"" + std::string(key) +
                                 "\" must hold integers in [0, 2^64)");
}

StatusOr<uint64_t> GetCount(const Field& field) {
  TPS_RETURN_NOT_OK(GetNumber(field).status());
  return ReplyCount(field.type, field.raw, field.name);
}

}  // namespace

StatusOr<SelectionResponse> ParseResponseLine(const std::string& line) {
  Field fields[reply::kNumKeys];
  TPS_ASSIGN_OR_RETURN(const bool is_object,
                       ScanFields(line, reply::kKeyNames, fields));
  if (!is_object) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  const Field& ok = fields[reply::kOk];
  if (!ok.present || ok.type != json::Value::Type::kBool) {
    return MemberTypeError("bool", ok);
  }
  if (!ok.boolean) {
    TPS_ASSIGN_OR_RETURN(const std::string code,
                         TakeString(fields[reply::kCode]));
    TPS_ASSIGN_OR_RETURN(const std::string error,
                         TakeString(fields[reply::kError]));
    return Status(CodeFromName(code), error);
  }
  SelectionResponse response;
  response.status = Status::OK();
  TPS_ASSIGN_OR_RETURN(response.target, TakeString(fields[reply::kTarget]));
  TPS_ASSIGN_OR_RETURN(response.selected_model,
                       TakeString(fields[reply::kSelected]));
  TPS_ASSIGN_OR_RETURN(response.selected_accuracy,
                       GetNumber(fields[reply::kAccuracy]));
  TPS_ASSIGN_OR_RETURN(response.training_epochs,
                       GetNumber(fields[reply::kTrainingEpochs]));
  TPS_ASSIGN_OR_RETURN(response.inference_epochs,
                       GetNumber(fields[reply::kInferenceEpochs]));
  TPS_ASSIGN_OR_RETURN(response.total_epochs,
                       GetNumber(fields[reply::kTotalEpochs]));
  const Field& survivors = fields[reply::kSurvivors];
  if (!survivors.present || survivors.type != json::Value::Type::kArray) {
    return MemberTypeError("array", survivors);
  }
  Status survivors_status;
  // The array already scanned clean as part of the line.
  TPS_RETURN_NOT_OK(
      json::VisitItems(survivors.raw, [&](const json::Member& item) {
        if (!survivors_status.ok()) return;
        StatusOr<uint64_t> count =
            ReplyCount(item.type, item.raw, survivors.name);
        if (count.ok()) {
          response.survivors_per_stage.push_back(*count);
        } else {
          survivors_status = count.status();
        }
      }).status());
  TPS_RETURN_NOT_OK(survivors_status);
  if (fields[reply::kArtifactVersion].present) {
    TPS_ASSIGN_OR_RETURN(response.artifact_version,
                         GetCount(fields[reply::kArtifactVersion]));
  }
  TPS_ASSIGN_OR_RETURN(response.wall_ms, GetNumber(fields[reply::kWallMs]));
  TPS_ASSIGN_OR_RETURN(response.cache_hits,
                       GetCount(fields[reply::kCacheHits]));
  TPS_ASSIGN_OR_RETURN(response.cache_misses,
                       GetCount(fields[reply::kCacheMisses]));
  if (fields[reply::kIndexBackend].present) {
    TPS_ASSIGN_OR_RETURN(response.index_backend,
                         TakeString(fields[reply::kIndexBackend]));
  }
  if (fields[reply::kRecallBackend].present) {
    TPS_ASSIGN_OR_RETURN(response.recall_backend,
                         TakeString(fields[reply::kRecallBackend]));
  }
  if (const Field& trace = fields[reply::kTrace]; trace.present) {
    TPS_ASSIGN_OR_RETURN(response.trace,
                         SelectionTrace::FromJson(std::string(trace.raw)));
    response.has_trace = true;
  }
  return response;
}

}  // namespace serve
}  // namespace tps
