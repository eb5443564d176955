#ifndef TPS_TESTS_SERVE_REFERENCE_PROTOCOL_H_
#define TPS_TESTS_SERVE_REFERENCE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "serve/protocol.h"
#include "util/statusor.h"

namespace tps {
namespace serve {
namespace reference {

/// Test-only oracle: the NDJSON select codec written over the json::Value
/// document model — parse the line into a DOM and read it by key; build a
/// DOM reply and Dump it (the trace is parsed from its own JSON and set as
/// a member). The production codec in src/serve/protocol.cc scans requests
/// with json::VisitMembers and writes replies with json::Writer, and must
/// reproduce these functions byte for byte (lines) and field for field or
/// exact Status (requests). Line results carry no trailing newline.
StatusOr<WireRequest> ParseRequestLine(const std::string& line);
std::string RequestToLine(const SelectionRequest& request);
std::string ResponseToLine(const SelectionResponse& response);
std::string ErrorToLine(const Status& status);
std::string PongLine();
std::string StatsToLine(const ServiceStats& stats);
std::string ShutdownAckLine();
std::string ReloadAckLine(uint64_t artifact_version);

}  // namespace reference
}  // namespace serve
}  // namespace tps

#endif  // TPS_TESTS_SERVE_REFERENCE_PROTOCOL_H_
