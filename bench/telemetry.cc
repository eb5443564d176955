#include "bench/telemetry.h"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "util/json.h"

namespace tps {
namespace bench {

BenchTelemetry::BenchTelemetry(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchTelemetry::RecordPhase(const std::string& name, double wall_ms,
                                 double training_epochs,
                                 double inference_epochs) {
  phases_.push_back({name, wall_ms, training_epochs, inference_epochs});
}

void BenchTelemetry::RecordValue(const std::string& key, double value) {
  values_.emplace_back(key, value);
}

void BenchTelemetry::RecordProvenance(const std::string& key,
                                      const std::string& value) {
  provenance_.emplace_back(key, value);
}

std::string BenchTelemetry::ToJson(int indent) const {
  json::Value root = json::Value::Object();
  root.Set("bench", json::Value::String(bench_name_));
  root.Set("schema_version", json::Value::Int(1));
  json::Value phases = json::Value::Array();
  for (const Phase& phase : phases_) {
    json::Value p = json::Value::Object();
    p.Set("name", json::Value::String(phase.name));
    p.Set("wall_ms", json::Value::Number(phase.wall_ms));
    p.Set("training_epochs", json::Value::Number(phase.training_epochs));
    p.Set("inference_epochs", json::Value::Number(phase.inference_epochs));
    phases.Append(std::move(p));
  }
  root.Set("phases", std::move(phases));
  json::Value values = json::Value::Object();
  for (const auto& [key, value] : values_) {
    values.Set(key, json::Value::Number(value));
  }
  root.Set("values", std::move(values));
  if (!provenance_.empty()) {
    json::Value provenance = json::Value::Object();
    for (const auto& [key, value] : provenance_) {
      provenance.Set(key, json::Value::String(value));
    }
    root.Set("provenance", std::move(provenance));
  }
  return root.Dump(indent);
}

std::string BenchTelemetry::FileName() const {
  return "BENCH_" + bench_name_ + ".json";
}

StatusOr<std::string> BenchTelemetry::WriteFile() const {
  std::string path = FileName();
  if (const char* dir = std::getenv("TPS_BENCH_TELEMETRY_DIR");
      dir != nullptr && dir[0] != '\0') {
    path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  if (out) out << ToJson(2) << "\n";
  if (!out) return Status::IOError("cannot write telemetry: " + path);
  return path;
}

void BenchTelemetry::WriteFileOrWarn() const {
  StatusOr<std::string> path = WriteFile();
  if (path.ok()) {
    std::cout << "telemetry -> " << *path << "\n";
  } else {
    std::cerr << "warning: " << path.status().ToString() << "\n";
  }
}

}  // namespace bench
}  // namespace tps
