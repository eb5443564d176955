// The benchmark's own checks: seeded inputs are reproducible and bounded,
// and the server-CPU accounting charges the server, not the generator.

#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "workload.h"

namespace perfbench {
namespace {

ScheduleSpec SwapLikeSpec() {
  ScheduleSpec spec;
  spec.rate_qps = 200.0;
  spec.seconds = 5.0;
  spec.mix_size = 12;
  spec.reload_every_s = 1.0;
  return spec;
}

TEST(SeedTest, SameSeedGivesIdenticalInputs) {
  EXPECT_EQ(MakeSchedule(SwapLikeSpec(), 7), MakeSchedule(SwapLikeSpec(), 7));
  const auto a = NovelNlpTargets(64, 7);
  const auto b = NovelNlpTargets(64, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].num_labels, b[i].num_labels);
    EXPECT_EQ(a[i].difficulty, b[i].difficulty);
    EXPECT_EQ(a[i].tags, b[i].tags);
  }
}

TEST(SeedTest, DifferentSeedGivesDifferentInputs) {
  EXPECT_NE(MakeSchedule(SwapLikeSpec(), 7), MakeSchedule(SwapLikeSpec(), 8));
  const auto a = NovelNlpTargets(64, 7);
  const auto b = NovelNlpTargets(64, 8);
  size_t differ = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    differ += a[i].tags != b[i].tags || a[i].difficulty != b[i].difficulty;
  }
  EXPECT_GT(differ, 0u);
}

TEST(SeedTest, SchedulesStayWithinFourConnections) {
  for (int requested : {0, 1, 4, 16, 256}) {
    ScheduleSpec spec = SwapLikeSpec();
    spec.connections = requested;
    for (uint64_t seed : {uint64_t{1}, uint64_t{2}, kHeldOutSeed}) {
      const Schedule schedule = MakeSchedule(spec, seed);
      EXPECT_GE(schedule.connections, 1);
      EXPECT_LE(schedule.connections, 4);
    }
  }
}

TEST(SeedTest, ScheduleIsSortedAndMergesReloads) {
  const Schedule schedule = MakeSchedule(SwapLikeSpec(), 3);
  size_t reloads = 0;
  for (size_t i = 0; i < schedule.events.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(schedule.events[i - 1].at_s, schedule.events[i].at_s);
    }
    const Event& e = schedule.events[i];
    EXPECT_LT(e.at_s, 5.0);
    if (e.reload) {
      // Alternates away from the set the server starts with.
      EXPECT_EQ(e.index, reloads % 2 == 0 ? 1u : 0u);
      ++reloads;
    } else {
      EXPECT_LT(e.index, 12u);
    }
  }
  EXPECT_EQ(reloads, 5u);
  // Roughly the offered rate: 1000 expected selects.
  EXPECT_GT(schedule.events.size() - reloads, 850u);
  EXPECT_LT(schedule.events.size() - reloads, 1150u);
}

TEST(CpuAccountingTest, GeneratorCpuIsNotChargedToTheServer) {
  // A "generator" thread that only burns CPU: the whole process CPU is
  // its own, so the server's share must come out near zero.
  const double process0 = ProcessCpuSeconds();
  double generator = 0.0;
  std::thread burner([&] {
    const double cpu0 = ThreadCpuSeconds();
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    volatile uint64_t sink = 0;
    while (std::chrono::steady_clock::now() < until) sink = sink + 1;
    generator = ThreadCpuSeconds() - cpu0;
  });
  burner.join();
  const double process = ProcessCpuSeconds() - process0;
  EXPECT_GT(generator, 0.1);
  EXPECT_LT(ServerCpuMsPerOp(process, generator, 1), 20.0);
  EXPECT_GT(process * 1e3, 100.0);  // Unsubtracted, it would be charged.
}

TEST(CpuAccountingTest, PingOnlyWindowChargesNearZeroServerCpu) {
  auto artifacts = tps::serve::ServiceArtifacts::Build(tps::TaskDomain::kNLP);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  auto service = tps::serve::SelectionService::Create(
      std::move(artifacts).value(), tps::serve::ServiceOptions());
  ASSERT_TRUE(service.ok());
  tps::serve::ServerOptions options;
  options.unix_path = "perfbench_test_" + std::to_string(::getpid()) + ".sock";
  auto server = tps::serve::SelectionServer::Start(service->get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ScheduleSpec spec;
  spec.rate_qps = 2000.0;
  spec.seconds = 1.0;
  const Schedule schedule = MakeSchedule(spec, 5);
  auto window = RunOpenLoop(options.unix_path, schedule, [](const Event&) {
    return std::string("{\"cmd\":\"ping\"}");
  });
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  size_t pongs = 0;
  for (const EventResult& r : window->events) {
    pongs += r.reply == tps::serve::PongLine();
  }
  ASSERT_EQ(pongs, schedule.events.size());
  // A ping is a parse and a reply on the connection thread: tens of
  // microseconds, against ~0.5 ms for the cheapest select.
  EXPECT_LT(ServerCpuMsPerOp(window->process_cpu_s, window->generator_cpu_s,
                             pongs),
            0.1);
  EXPECT_GT(window->generator_cpu_s, 0.0);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace perfbench
