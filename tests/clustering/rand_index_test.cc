#include "bench/lib/rand_index.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tps {
namespace {

ClusteringResult MakeClustering(std::vector<int> assignments, int k) {
  ClusteringResult c;
  c.assignments = std::move(assignments);
  c.num_clusters = k;
  return c;
}

TEST(RandIndexTest, IdenticalPartitionsScoreOne) {
  const auto a = MakeClustering({0, 0, 1, 1, 2}, 3);
  EXPECT_DOUBLE_EQ(*RandIndex(a, a), 1.0);
  EXPECT_DOUBLE_EQ(*AdjustedRandIndex(a, a), 1.0);
}

TEST(RandIndexTest, RelabelledPartitionsScoreOne) {
  const auto a = MakeClustering({0, 0, 1, 1}, 2);
  const auto b = MakeClustering({1, 1, 0, 0}, 2);
  EXPECT_DOUBLE_EQ(*RandIndex(a, b), 1.0);
  EXPECT_DOUBLE_EQ(*AdjustedRandIndex(a, b), 1.0);
}

TEST(RandIndexTest, HandComputedDisagreement) {
  // Items: {0,1} together in a; in b, 1 moves in with {2,3}.
  const auto a = MakeClustering({0, 0, 1, 1}, 2);
  const auto b = MakeClustering({0, 1, 1, 1}, 2);
  // Pairs: (0,1): together/apart -> disagree. (0,2): apart/apart -> agree.
  // (0,3): apart/apart -> agree. (1,2): apart/together -> disagree.
  // (1,3): apart/together -> disagree. (2,3): together/together -> agree.
  EXPECT_DOUBLE_EQ(*RandIndex(a, b), 3.0 / 6.0);
}

TEST(RandIndexTest, IndependentRandomPartitionsHaveLowAdjustedIndex) {
  Rng rng(3);
  ClusteringResult a, b;
  a.num_clusters = b.num_clusters = 4;
  for (int i = 0; i < 200; ++i) {
    a.assignments.push_back(static_cast<int>(rng.UniformInt(uint64_t{4})));
    b.assignments.push_back(static_cast<int>(rng.UniformInt(uint64_t{4})));
  }
  auto ari = AdjustedRandIndex(a, b);
  ASSERT_TRUE(ari.ok());
  EXPECT_NEAR(*ari, 0.0, 0.07);
  // Plain Rand index is inflated by chance, hence the adjustment.
  EXPECT_GT(*RandIndex(a, b), 0.5);
}

TEST(RandIndexTest, AdjustedIndexRewardsPartialAgreement) {
  const auto truth = MakeClustering({0, 0, 0, 1, 1, 1, 2, 2, 2}, 3);
  const auto close = MakeClustering({0, 0, 0, 1, 1, 1, 2, 2, 1}, 3);
  const auto far = MakeClustering({0, 1, 2, 0, 1, 2, 0, 1, 2}, 3);
  EXPECT_GT(*AdjustedRandIndex(truth, close),
            *AdjustedRandIndex(truth, far));
  EXPECT_GT(*AdjustedRandIndex(truth, close), 0.5);
}

TEST(RandIndexTest, InputValidation) {
  const auto a = MakeClustering({0, 1}, 2);
  const auto b = MakeClustering({0, 1, 0}, 2);
  EXPECT_TRUE(RandIndex(a, b).status().IsInvalidArgument());
  EXPECT_TRUE(AdjustedRandIndex(a, b).status().IsInvalidArgument());
  const auto tiny = MakeClustering({0}, 1);
  EXPECT_TRUE(RandIndex(tiny, tiny).status().IsInvalidArgument());
  const auto bad = MakeClustering({0, 9}, 2);
  EXPECT_TRUE(AdjustedRandIndex(bad, a).status().IsOutOfRange());
}

}  // namespace
}  // namespace tps
