#ifndef TPS_SERVE_PROTOCOL_H_
#define TPS_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/service.h"
#include "util/statusor.h"

namespace tps {
namespace serve {

/// Newline-delimited JSON wire protocol ("Serving" in DESIGN.md).
///
/// Every request is one JSON object on one line; every reply is one JSON
/// object on one line. Schema (v1 — extend by adding keys, never by
/// renaming):
///
///   select (default when "cmd" is absent):
///     {"target": "mnli", "k": 10, "threshold": 0.0, "proxy": "leep",
///      "proxies": ["leep","nce"], "deadline_ms": 250, "trace": false,
///      "recall_backend": "embedding"}   // "" = "representative"
///     -> {"ok": true, "target": "mnli", "selected": "...",
///         "accuracy": 0.83, "training_epochs": 17, "inference_epochs":
///         3.5, "total_epochs": 20.5, "survivors": [10,5,2,1,1],
///         "wall_ms": 1.2, "cache_hits": 7, "cache_misses": 0,
///         "recall_backend": "embedding",  // echoed when routed
///         "trace": {...}}          // trace only when requested
///
///   {"cmd": "ping"}     -> {"ok": true, "pong": true}
///   {"cmd": "stats"}    -> {"ok": true, "stats": {...ServiceStats...}}
///   {"cmd": "shutdown"} -> {"ok": true, "shutting_down": true}, then the
///                          server stops accepting and drains.
///
///   reload (zero-downtime artifact hot swap from a model store; "id"
///   defaults to the domain name):
///     {"cmd": "reload", "store": "PATH", "id": "nlp"}
///     -> {"ok": true, "reloaded": true, "artifact_version": 2}
///     The artifacts load and validate on the connection thread, entirely
///     off the serving path; on any failure nothing is published and the
///     current version keeps serving. The domain is the server's own (a
///     reload can never flip an NLP server to CV).
///
/// Select replies carry "artifact_version": the artifact version the
/// request was served against (1 until the first reload).
///
/// Failures (parse errors, unknown targets, queue-full rejection, deadline
/// expiry) are `{"ok": false, "code": "<StatusCodeName>", "error":
/// "<message>"}` — the connection stays open; one bad line never tears
/// down a session.
enum class WireCommand { kSelect, kPing, kStats, kShutdown, kReload };

struct WireRequest {
  WireCommand command = WireCommand::kSelect;
  SelectionRequest select;  // Only meaningful for kSelect.
  /// Only meaningful for kReload. `domain` is NOT parsed from the wire —
  /// the server overwrites it with its own serving domain.
  ArtifactPaths reload;
};

/// Parses one request line. InvalidArgument on malformed JSON, a non-object
/// document, an unknown "cmd", bad field types, or a missing target for
/// select. Unknown keys are ignored (forward compatibility); a duplicate
/// key's last value wins. "k" and "nprobe" of 2^64 or more saturate to
/// SIZE_MAX ("all"). The line is scanned once with json::VisitMembers — no
/// document is built.
StatusOr<WireRequest> ParseRequestLine(std::string_view line);

/// Serializes a select request (the client side of the protocol).
std::string RequestToLine(const SelectionRequest& request);

/// Every writer below and RequestToLine write counts (sizes, versions,
/// hits, misses) with json::Writer::Uint: their exact decimal digits over
/// the whole uint64_t range.

/// One-line JSON reply for a handled selection (ok or error form).
std::string ResponseToLine(const SelectionResponse& response);

/// One-line `{"ok": false, ...}` reply for protocol-level failures.
std::string ErrorToLine(const Status& status);

/// Append forms of ResponseToLine / ErrorToLine: the same bytes, written
/// straight into `*out` with json::Writer (no newline). The server reuses
/// one reply buffer per connection through these.
void AppendResponse(const SelectionResponse& response, std::string* out);
void AppendError(const Status& status, std::string* out);

/// {"ok": true, "pong": true}
std::string PongLine();

/// {"ok": true, "stats": {...}}
std::string StatsToLine(const ServiceStats& stats);

/// {"ok": true, "shutting_down": true}
std::string ShutdownAckLine();

/// {"ok": true, "reloaded": true, "artifact_version": N}
std::string ReloadAckLine(uint64_t artifact_version);

/// Client-side decode of a reply line: OK and the parsed object when
/// `"ok": true`; the transported Status (code restored from "code")
/// otherwise. The line is scanned once with json::VisitMembers. Counts
/// (survivors, artifact_version, cache_hits, cache_misses) are read from
/// their text as uint64_t, so every value the writers emit round-trips
/// exactly; a count that is not the plain digits of a value in [0, 2^64)
/// is InvalidArgument.
StatusOr<SelectionResponse> ParseResponseLine(const std::string& line);

}  // namespace serve
}  // namespace tps

#endif  // TPS_SERVE_PROTOCOL_H_
