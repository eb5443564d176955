#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset_spec.h"
#include "util/statusor.h"

namespace perfbench {

/// The benchmark's traffic mixes. Each loads a different layer; README.md
/// says why each exists and which layer metrics it is expected to move.
enum class Workload { kWarmNlp, kColdGen10k, kSwapCv };

tps::StatusOr<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

/// Seed kept out of development runs so a claimed gain can be confirmed on
/// inputs nobody tuned against (see README.md, "Seeds").
inline constexpr uint64_t kHeldOutSeed = 20241017;

/// Seed of the fixed novel targets that answer quality is scored on. It
/// is not the workload seed: quality should move only with the program.
inline constexpr uint64_t kQualitySeed = 0x9a11;

/// Upper bound on generator connections: one per core of the 4-core
/// reference box, whatever the host reports.
inline constexpr int kMaxConnections = 4;

/// One scheduled wire operation of the open-loop window.
struct Event {
  /// Due time, seconds after the window starts.
  double at_s = 0.0;
  /// False: a select. True: a `reload` command.
  bool reload = false;
  /// Select: index into the workload's request mix (round-robin).
  /// Reload: which artifact set to publish (0 or 1).
  size_t index = 0;

  bool operator==(const Event&) const = default;
};

/// The whole offered load of one window, computed before it starts so the
/// parent and a change receive identical traffic.
struct Schedule {
  /// Generator connections (and threads) the events are spread over.
  int connections = 1;
  std::vector<Event> events;

  bool operator==(const Schedule&) const = default;
};

struct ScheduleSpec {
  /// Poisson rate of selects, per second.
  double rate_qps = 1.0;
  double seconds = 1.0;
  /// Requests in the round-robin mix.
  size_t mix_size = 1;
  /// Mean spacing of reload events in seconds; 0 = no reloads.
  double reload_every_s = 0.0;
  /// Connections requested; clamped to [1, kMaxConnections].
  int connections = kMaxConnections;
};

/// Seeded schedule: exponential select gaps by inverse CDF, selects cycling
/// through the mix in order, and (when enabled) one reload per
/// `reload_every_s` at a jittered time, alternating artifact sets 1, 0, 1,
/// ... (set 0 is what the server starts with). Events are sorted by due
/// time. The same (spec, seed) always gives the same schedule.
Schedule MakeSchedule(const ScheduleSpec& spec, uint64_t seed);

/// `count` seeded NLP target datasets that no benchmark column describes:
/// random label counts, difficulty and 2-4 tags drawn from the NLP
/// benchmark datasets' tag vocabulary. Names are "novel_<i>".
std::vector<tps::DatasetSpec> NovelNlpTargets(size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
