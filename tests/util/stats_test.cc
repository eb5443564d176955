#include "util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace tps {
namespace stats {
namespace {

TEST(StatsTest, SumMeanOfKnownValues) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Sum(v), 10.0);
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
}

TEST(StatsTest, EmptyInputsReturnZero) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Sum(empty), 0.0);
  EXPECT_DOUBLE_EQ(Mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(Median(empty), 0.0);
  EXPECT_EQ(ArgMax(empty), 0u);
}

TEST(StatsTest, MinMaxArg) {
  const std::vector<double> v = {3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_EQ(ArgMax(v), 4u);
  EXPECT_EQ(ArgMax({2.0, 7.0, 7.0}), 1u);  // Ties: the earliest index.
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 12.5), 15.0);
}

TEST(StatsTest, PercentileClampsOutOfRangeP) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, -5), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 150), 2.0);
}

// Pins the boundary behavior the serving benches rely on (they report
// p50/p99 through this function — a truncating nearest-rank copy once
// lived in bench_serve_throughput and disagreed with these values).
TEST(StatsTest, PercentileSingletonIsThatValueAtEveryP) {
  const std::vector<double> v = {42.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 42.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 42.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 42.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 42.0);
}

TEST(StatsTest, PercentileSortsItsInput) {
  // Callers pass unsorted samples; Percentile must not require pre-sorting.
  const std::vector<double> v = {50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
}

TEST(StatsTest, PercentileP99InterpolatesNearTheTail) {
  // 101 evenly spaced samples 0..100: p99 falls exactly on sample 99; with
  // 11 samples 0..10, p99 interpolates between the last two.
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 99.0);
  std::vector<double> small;
  for (int i = 0; i <= 10; ++i) small.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(Percentile(small, 99), 9.9);
}

TEST(StatsTest, PercentileEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  const std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonZeroVarianceIsZero) {
  const std::vector<double> x = {1, 1, 1};
  const std::vector<double> y = {1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(StatsTest, PearsonSizeMismatchIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, SpearmanIsRankBased) {
  // Monotone but nonlinear relationship: Spearman 1, Pearson < 1.
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 8, 27, 64, 125};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
  EXPECT_LT(PearsonCorrelation(x, y), 1.0);
}

TEST(StatsTest, RanksAverageTies) {
  const std::vector<double> v = {10.0, 20.0, 20.0, 30.0};
  const std::vector<double> ranks = Ranks(v);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(StatsTest, ArgSortDescendingStableOnTies) {
  const std::vector<double> v = {1.0, 3.0, 3.0, 2.0};
  const std::vector<size_t> order = ArgSortDescending(v);
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 3, 0}));
}

TEST(StatsTest, ArgSortAscending) {
  const std::vector<double> v = {5.0, -1.0, 3.0};
  EXPECT_EQ(ArgSortAscending(v), (std::vector<size_t>{1, 2, 0}));
}

TEST(StatsTest, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

}  // namespace
}  // namespace stats
}  // namespace tps
