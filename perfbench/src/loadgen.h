#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/statusor.h"
#include "workload.h"

namespace perfbench {

/// CPU seconds (user + system) the whole process has used so far.
double ProcessCpuSeconds();

/// CPU seconds the calling thread has used so far.
double ThreadCpuSeconds();

/// Peak resident set size of the process (VmHWM), MiB.
double PeakRssMb();

/// Returns the heap's free pages to the kernel, then restarts the peak-RSS
/// count at the current RSS, so the peak that follows counts live memory
/// and what is allocated from here on, not what earlier work freed. False
/// where the kernel refuses the restart; the peak then counts from process
/// start.
bool ResetPeakRss();

/// Server CPU per operation in ms: the process CPU spent over a window
/// minus what the load generator's own threads spent, divided by the
/// operations completed. The generator lives in the server's process, so
/// without the subtraction its sends, receives and sleeps would be billed
/// to the server.
double ServerCpuMsPerOp(double process_cpu_s, double generator_cpu_s,
                        size_t ops);

/// What happened to one scheduled event.
struct EventResult {
  /// Scheduled due time to reply received: a late send is charged.
  double latency_ms = 0.0;
  /// Send time minus due time: how far the generator fell behind.
  double late_ms = 0.0;
  /// Send to reply, without the lateness.
  double service_ms = 0.0;
  /// Raw reply line; empty when the connection failed.
  std::string reply;
};

struct WindowResult {
  std::vector<EventResult> events;  // Indexed like Schedule::events.
  double wall_s = 0.0;
  /// Process CPU across the window, generator threads included.
  double process_cpu_s = 0.0;
  /// CPU of the generator threads alone.
  double generator_cpu_s = 0.0;
};

/// Runs `schedule` open-loop against the NDJSON server at `socket_path`.
/// One thread per connection repeatedly takes the next event in due order,
/// sleeps until it is due, sends `line_for(event)` and waits for the
/// reply. When the schedule has reloads, connection 0 carries them alone
/// and the others carry the selects. Connections are opened before the
/// window starts.
tps::StatusOr<WindowResult> RunOpenLoop(
    const std::string& socket_path, const Schedule& schedule,
    const std::function<std::string(const Event&)>& line_for);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
