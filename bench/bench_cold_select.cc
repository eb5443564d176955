// Cold-select footprint: the thread CPU of one warm in-process select
// (SelectionService::Serve, which runs an uncontended request on its
// caller's thread) when the caches around it have gone cold, plus the
// heap allocations it makes. Every proxy score, trend and fine-tune curve
// a select reads is already memoized, so what is left is the code and
// data the select touches: back to back they sit in cache; after an idle
// gap (3.3 ms, and the 13 ms an open-loop server thread waits between
// requests at 300 qps over four connections) or a 64 MB cache sweep they
// must be fetched again. Allocations are counted by this binary's own
// replacement of the global operator new. About 5 seconds end to end:
//
//   ./build/bench/bench_cold_select
//
// writes BENCH_cold_select.json (see bench/telemetry.h), stamped with the
// host's nproc, the build type and the compiler.

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bench/telemetry.h"
#include "serve/service.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every plain allocation in the binary is counted; the matching deletes
// free what malloc returned.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tps {
namespace bench {
namespace {

using serve::SelectionRequest;
using serve::SelectionService;
using serve::ServiceArtifacts;
using serve::ServiceOptions;

/// Samples per condition: odd, so the p50 is one measured select.
constexpr int kSamples = 101;
/// Back-to-back selects whose allocations are averaged.
constexpr int kAllocationSelects = 200;
constexpr size_t kSweepBytes = size_t{64} << 20;

double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// One select's thread CPU, in microseconds.
double ServeMicros(SelectionService& service, const std::string& target) {
  SelectionRequest request;
  request.target = target;
  const double start = ThreadCpuMicros();
  const auto response = service.Serve(std::move(request));
  const double us = ThreadCpuMicros() - start;
  ExitIfError(response.status, "serve " + target);
  return us;
}

/// Reads and writes every cache line of `buffer`, evicting what the last
/// select left in the data caches.
void Sweep(std::vector<unsigned char>& buffer) {
  for (size_t i = 0; i < buffer.size(); i += 64) {
    buffer[i] = static_cast<unsigned char>(buffer[i] + 1);
  }
}

struct Condition {
  std::string name;
  std::chrono::microseconds gap{0};
  bool sweep = false;
};

void RunDomain(TaskDomain domain, BenchTelemetry& telemetry,
               TablePrinter& table) {
  const std::string tag = ToString(domain);
  ServiceArtifacts artifacts =
      ExitIfError(ServiceArtifacts::Build(domain), tag + " artifacts");
  std::vector<std::string> targets;
  for (const Dataset* target : artifacts.registry.Targets(domain)) {
    targets.push_back(target->name());
  }
  auto service = ExitIfError(
      SelectionService::Create(std::move(artifacts), ServiceOptions()),
      tag + " service");
  // Warm every memo: proxy scores, convergence trends, fine-tune curves.
  size_t next = 0;
  const auto next_target = [&]() -> const std::string& {
    return targets[next++ % targets.size()];
  };
  for (size_t i = 0; i < 4 * targets.size(); ++i) {
    ServeMicros(*service, next_target());
  }

  // Allocations per warm select, back to back.
  const uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kAllocationSelects; ++i) {
    ServeMicros(*service, next_target());
  }
  const double allocations =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before) /
      kAllocationSelects;
  telemetry.RecordValue(tag + "/allocations_per_serve", allocations);

  std::vector<unsigned char> sweep_buffer(kSweepBytes, 1);
  const std::vector<Condition> conditions = {
      {"gap_0ms", std::chrono::microseconds(0), false},
      {"gap_3.3ms", std::chrono::microseconds(3300), false},
      {"gap_13ms", std::chrono::microseconds(13000), false},
      {"sweep_64MB", std::chrono::microseconds(0), true},
  };
  for (const Condition& condition : conditions) {
    std::vector<double> cpu_us;
    cpu_us.reserve(kSamples);
    for (int i = 0; i < kSamples; ++i) {
      if (condition.gap.count() > 0) std::this_thread::sleep_for(condition.gap);
      if (condition.sweep) Sweep(sweep_buffer);
      cpu_us.push_back(ServeMicros(*service, next_target()));
    }
    const double p50 = stats::Percentile(cpu_us, 50.0);
    const double p90 = stats::Percentile(cpu_us, 90.0);
    table.AddRow({tag, condition.name, strings::FormatDouble(p50, 1),
                  strings::FormatDouble(p90, 1),
                  strings::FormatDouble(allocations, 1)});
    const std::string key = tag + "/" + condition.name;
    telemetry.RecordValue(key + "/cpu_us_p50", p50);
    telemetry.RecordValue(key + "/cpu_us_p90", p90);
  }
}

void Report() {
  BenchTelemetry telemetry("cold_select");
  const std::string nproc =
      std::to_string(std::thread::hardware_concurrency());
  telemetry.RecordProvenance("nproc", nproc);
  telemetry.RecordProvenance("build_type", TPS_BUILD_TYPE);
  telemetry.RecordProvenance("compiler", __VERSION__);
  std::cout << "=== Cold select: thread CPU of one warm in-process Serve "
               "after idle gaps and a cache sweep ===\n"
            << kSamples << " selects per row; nproc " << nproc << ", "
            << TPS_BUILD_TYPE << ", " << __VERSION__ << "\n\n";

  TablePrinter table(
      {"domain", "before each select", "cpu us p50", "cpu us p90",
       "allocs/select"});
  RunDomain(TaskDomain::kNLP, telemetry, table);
  RunDomain(TaskDomain::kCV, telemetry, table);
  table.Print(std::cout);
  telemetry.WriteFileOrWarn();
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() { tps::bench::Report(); }
