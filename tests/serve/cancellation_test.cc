// CancelToken unit tests plus the all-or-nothing property: tripping the
// token at EVERY cooperative checkpoint of a two-phase run yields a clean
// DeadlineExceeded — never a partial or corrupted result — and a token
// that never trips leaves the result bit-identical to an untokened run.

#include "core/cancellation.h"

#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "core/two_phase.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "util/thread_pool.h"

namespace tps {
namespace {

TEST(CancelTokenTest, FreshTokenPasses) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check("anywhere").ok());
}

TEST(CancelTokenTest, CancelTripsAndLatches) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  const Status status = token.Check("phase entry");
  EXPECT_TRUE(status.IsDeadlineExceeded());
  EXPECT_NE(status.message().find("phase entry"), std::string::npos);
  EXPECT_TRUE(token.Check("later").IsDeadlineExceeded());
}

TEST(CancelTokenTest, ExpiredDeadlineTrips) {
  CancelToken token;
  token.SetDeadlineAfterMillis(-1.0);  // Already in the past.
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.Check("entry").IsDeadlineExceeded());
}

TEST(CancelTokenTest, FutureDeadlinePassesNow) {
  CancelToken token;
  token.SetDeadlineAfterMillis(60'000.0);
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check("entry").ok());
}

TEST(CancelTokenTest, DeadlinesPastTheClockRangeNeverTrip) {
  // 1e13 ms is about 317 years: ms * 1e6 no longer fits the clock's int64
  // nanoseconds, and a wrapped cast would put the deadline in the past.
  for (const double ms : {1e13, 1e300, std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    CancelToken token;
    token.SetDeadlineAfterMillis(ms);
    EXPECT_FALSE(token.cancelled()) << ms;
    EXPECT_TRUE(token.Check("entry").ok()) << ms;
  }
  CancelToken past;
  past.SetDeadlineAfterMillis(-1e300);
  EXPECT_TRUE(past.Check("entry").IsDeadlineExceeded());
}

TEST(CancelTokenTest, CountdownTripsOnExactCheck) {
  CancelToken token;
  token.CancelAfterChecks(2);
  EXPECT_TRUE(token.Check("1").ok());
  EXPECT_TRUE(token.Check("2").ok());
  EXPECT_TRUE(token.Check("3").IsDeadlineExceeded());  // Trips here.
  EXPECT_TRUE(token.Check("4").IsDeadlineExceeded());  // Latched.
}

TEST(CancelTokenTest, CountdownZeroTripsFirstCheck) {
  CancelToken token;
  token.CancelAfterChecks(0);
  EXPECT_TRUE(token.Check("first").IsDeadlineExceeded());
}

TEST(CancelTokenTest, NullTokenHelperAlwaysPasses) {
  EXPECT_TRUE(CheckCancel(nullptr, "anywhere").ok());
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(CheckCancel(&token, "spot").IsDeadlineExceeded());
}

TEST(CancelTokenTest, ConcurrentCheckersAgreeAfterTrip) {
  CancelToken token;
  token.CancelAfterChecks(100);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (!token.Check("race").ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // 400 checks against a 100-check budget: the trip happened, and once
  // tripped every later check failed (at least 400 - 101 failures).
  EXPECT_TRUE(token.cancelled());
  EXPECT_GE(failures.load(), 400 - 101);
  EXPECT_TRUE(token.Check("after").IsDeadlineExceeded());
}

class CancellationPipelineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
    clustering_ = new ModelClustering(
        *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions()));
  }

  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static ModelZoo* zoo_;
  static PerformanceMatrix* matrix_;
  static ModelClustering* clustering_;
};

DatasetRegistry* CancellationPipelineTest::registry_ = nullptr;
FineTuneSimulator* CancellationPipelineTest::simulator_ = nullptr;
ModelZoo* CancellationPipelineTest::zoo_ = nullptr;
PerformanceMatrix* CancellationPipelineTest::matrix_ = nullptr;
ModelClustering* CancellationPipelineTest::clustering_ = nullptr;

TEST_F(CancellationPipelineTest, TripAtEveryCheckpointIsAllOrNothing) {
  // Serial runs poll the token in a deterministic order, so trip-after-n
  // walks the cancellation through every cooperative checkpoint exactly
  // once. For every n below the run's total check count the pipeline must
  // return DeadlineExceeded; at the first n that completes, the report
  // must be bit-identical to the untokened baseline.
  TwoPhaseSelector selector(zoo_, matrix_, clustering_, simulator_);
  const Dataset& target = **registry_->Find("mnli");
  const TwoPhaseReport baseline = *selector.Select(target, TwoPhaseOptions());

  constexpr int64_t kMaxChecks = 10'000;
  int64_t completed_at = -1;
  for (int64_t n = 0; n < kMaxChecks; ++n) {
    CancelToken token;
    token.CancelAfterChecks(n);
    TwoPhaseOptions options;
    options.cancel = &token;
    auto report_or = selector.Select(target, options);
    if (report_or.ok()) {
      completed_at = n;
      EXPECT_EQ(report_or->selection.selected_model,
                baseline.selection.selected_model);
      EXPECT_EQ(report_or->selection.selected_accuracy,
                baseline.selection.selected_accuracy);
      EXPECT_EQ(report_or->selection.survivors_per_stage,
                baseline.selection.survivors_per_stage);
      EXPECT_EQ(report_or->budget.total_epochs(),
                baseline.budget.total_epochs());
      break;
    }
    EXPECT_TRUE(report_or.status().IsDeadlineExceeded())
        << "n=" << n << ": " << report_or.status().ToString();
  }
  ASSERT_GE(completed_at, 1) << "pipeline never completed within "
                             << kMaxChecks << " checks";
  // Sanity: the pipeline really does poll more than once per run.
  EXPECT_GT(completed_at, 3);
}

TEST_F(CancellationPipelineTest, ParallelTripIsCleanOrComplete) {
  // Under a pool the trip point races the fan-out, so which outcome we get
  // is nondeterministic — but it must always be one of exactly two: a
  // DeadlineExceeded error or a result identical to the baseline.
  TwoPhaseSelector selector(zoo_, matrix_, clustering_, simulator_);
  ThreadPool pool(3);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  const Dataset& target = **registry_->Find("boolq");
  const TwoPhaseReport baseline =
      *selector.Select(target, TwoPhaseOptions(), hp, &pool);

  for (int64_t n : {0, 1, 2, 5, 10, 20, 50}) {
    CancelToken token;
    token.CancelAfterChecks(n);
    TwoPhaseOptions options;
    options.cancel = &token;
    auto report_or = selector.Select(target, options, hp, &pool);
    if (report_or.ok()) {
      EXPECT_EQ(report_or->selection.selected_model,
                baseline.selection.selected_model);
      EXPECT_EQ(report_or->selection.selected_accuracy,
                baseline.selection.selected_accuracy);
    } else {
      EXPECT_TRUE(report_or.status().IsDeadlineExceeded())
          << report_or.status().ToString();
    }
  }
}

TEST_F(CancellationPipelineTest, PreCancelledTokenNeverTouchesPipeline) {
  TwoPhaseSelector selector(zoo_, matrix_, clustering_, simulator_);
  const Dataset& target = **registry_->Find("mnli");
  CancelToken token;
  token.Cancel();
  TwoPhaseOptions options;
  options.cancel = &token;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  auto report_or = selector.Select(target, options);
  ASSERT_FALSE(report_or.ok());
  EXPECT_TRUE(report_or.status().IsDeadlineExceeded());
  // Entry check fires before any proxy work.
  EXPECT_EQ(metrics.counter("recall.proxies_computed").value(), 0u);
}

}  // namespace
}  // namespace tps
