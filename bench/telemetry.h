#ifndef TPS_BENCH_TELEMETRY_H_
#define TPS_BENCH_TELEMETRY_H_

#include <string>
#include <utility>
#include <vector>

#include "util/statusor.h"

namespace tps {
namespace bench {

/// Machine-readable telemetry for one bench binary run.
///
/// Every `bench_*` harness prints human-readable tables; this sidecar
/// captures the numbers a plotting / regression script wants, as one JSON
/// file per binary. Schema (v1, stable — extend by adding keys, never by
/// renaming):
///
///   {
///     "bench": "table6_end_to_end",
///     "schema_version": 1,
///     "phases": [
///       {"name": "NLP/mnli/recall", "wall_ms": 1.9,
///        "training_epochs": 0, "inference_epochs": 3.5},
///       ...
///     ],
///     "values": {"NLP/mnli/bf_epochs": 200, ...},
///     "provenance": {"nproc": "4", "build_type": "Release", ...}
///   }
///
/// `phases` is ordered as recorded (one entry per measured pipeline phase:
/// wall time plus the epoch costs charged during it); `values` holds
/// free-form scalar results keyed "<domain>/<target>/<metric>";
/// `provenance` (present only when recorded) names the host and build the
/// numbers came from.
///
/// The file is written as `BENCH_<name>.json` into the directory named by
/// the TPS_BENCH_TELEMETRY_DIR environment variable, or the working
/// directory when unset. Telemetry never changes a benchmark's measured
/// results — it only records them.
class BenchTelemetry {
 public:
  explicit BenchTelemetry(std::string bench_name);

  /// Appends one phase entry (insertion order is preserved in the JSON).
  void RecordPhase(const std::string& name, double wall_ms,
                   double training_epochs, double inference_epochs);

  /// Records one scalar result (insertion order is preserved).
  void RecordValue(const std::string& key, double value);

  /// Records one provenance string, e.g. ("compiler", __VERSION__).
  void RecordProvenance(const std::string& key, const std::string& value);

  std::string ToJson(int indent = 2) const;

  /// `BENCH_<name>.json`.
  std::string FileName() const;

  /// Writes the JSON file (TPS_BENCH_TELEMETRY_DIR or cwd). Returns the
  /// path written.
  StatusOr<std::string> WriteFile() const;

  /// WriteFile, but a failure only warns on stderr — telemetry must never
  /// turn a successful benchmark run into a failing one. Prints the
  /// written path to stdout on success.
  void WriteFileOrWarn() const;

 private:
  struct Phase {
    std::string name;
    double wall_ms = 0.0;
    double training_epochs = 0.0;
    double inference_epochs = 0.0;
  };

  std::string bench_name_;
  std::vector<Phase> phases_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::string>> provenance_;
};

}  // namespace bench
}  // namespace tps

#endif  // TPS_BENCH_TELEMETRY_H_
