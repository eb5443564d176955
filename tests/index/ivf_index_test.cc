#include "index/ivf_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "store/model_store.h"

namespace tps {
namespace {

// Deterministic synthetic inputs with a planted cluster geometry: `groups`
// well-separated centers, `per_group` models jittered around each, so the
// quantizer has real structure to find. SplitMix64-style mixing keeps the
// data a pure function of (groups, per_group, dims, seed).
double MixToUnit(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) / 9007199254740992.0;  // [0, 1).
}

struct TestInputs {
  std::vector<std::vector<double>> vectors;
  std::vector<double> prior;
};

TestInputs MakeInputs(size_t groups, size_t per_group, size_t dims,
                      uint64_t seed) {
  TestInputs inputs;
  uint64_t state = seed;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> center(dims);
    for (double& c : center) c = 0.2 + 0.6 * MixToUnit(&state);
    for (size_t i = 0; i < per_group; ++i) {
      std::vector<double> v(dims);
      for (size_t d = 0; d < dims; ++d) {
        v[d] = center[d] + 0.01 * (MixToUnit(&state) - 0.5);
      }
      inputs.vectors.push_back(std::move(v));
      inputs.prior.push_back(0.5 + 0.4 * MixToUnit(&state));
    }
  }
  return inputs;
}

IvfIndex BuildOrDie(const TestInputs& inputs, const IvfIndexOptions& options) {
  auto index = IvfIndex::Build(inputs.vectors, inputs.prior, options);
  EXPECT_TRUE(index.ok()) << index.status().message();
  return *std::move(index);
}

TEST(IvfIndexTest, StructureInvariants) {
  const TestInputs inputs = MakeInputs(6, 10, 5, 1);
  const IvfIndex index = BuildOrDie(inputs, IvfIndexOptions());
  const IndexStructure& s = index.structure();

  ASSERT_EQ(s.num_models(), inputs.vectors.size());
  ASSERT_EQ(s.assignments.size(), inputs.vectors.size());
  ASSERT_EQ(s.members.size(), index.centroids().rows());

  // Every model in exactly its assigned partition; posting lists ascending.
  size_t total_members = 0;
  for (size_t p = 0; p < s.num_partitions(); ++p) {
    total_members += s.members[p].size();
    EXPECT_TRUE(std::is_sorted(s.members[p].begin(), s.members[p].end()));
    for (size_t m : s.members[p]) {
      EXPECT_EQ(static_cast<size_t>(s.assignments[m]), p);
    }
  }
  EXPECT_EQ(total_members, s.num_models());

  // Representative = highest-prior member, ties -> lowest model index.
  for (size_t p = 0; p < s.num_partitions(); ++p) {
    ASSERT_FALSE(s.members[p].empty());  // Build prunes empty cells.
    size_t expected = s.members[p][0];
    for (size_t m : s.members[p]) {
      if (s.prior[m] > s.prior[expected]) expected = m;
    }
    EXPECT_EQ(s.representatives[p], expected);
  }

  // Scored set: >= 2 members, ascending; slots and scored_models aligned.
  EXPECT_TRUE(std::is_sorted(s.scored_partitions.begin(),
                             s.scored_partitions.end()));
  for (size_t p = 0; p < s.num_partitions(); ++p) {
    const bool scored =
        std::binary_search(s.scored_partitions.begin(),
                           s.scored_partitions.end(), p);
    if (scored) {
      EXPECT_GE(s.members[p].size(), 2u);
      const size_t slot = s.slot_of_partition[p];
      ASSERT_LT(slot, s.scored_partitions.size());
      EXPECT_EQ(s.scored_partitions[slot], p);
      EXPECT_EQ(s.scored_models[slot], s.representatives[p]);
      EXPECT_TRUE(s.neighbors[p].empty());
    } else {
      EXPECT_EQ(s.slot_of_partition[p], IndexStructure::kNoSlot);
      EXPECT_FALSE(s.neighbors[p].empty());  // Propagation-only partitions
      EXPECT_TRUE(std::is_sorted(s.neighbors[p].begin(),  // read slots.
                                 s.neighbors[p].end()));
      EXPECT_LE(s.neighbors[p].size(), IvfIndexOptions().propagation_neighbors);
    }
  }

  // probe_priority and pilot_order: permutations of the scored set.
  const std::set<size_t> scored_set(s.scored_partitions.begin(),
                                    s.scored_partitions.end());
  EXPECT_EQ(std::set<size_t>(s.probe_priority.begin(), s.probe_priority.end()),
            scored_set);
  EXPECT_EQ(std::set<size_t>(s.pilot_order.begin(), s.pilot_order.end()),
            scored_set);
  for (size_t i = 1; i < s.probe_priority.size(); ++i) {
    EXPECT_GE(s.prior[s.representatives[s.probe_priority[i - 1]]],
              s.prior[s.representatives[s.probe_priority[i]]]);
  }
  // The pilot sweep starts from the top-priority partition.
  ASSERT_FALSE(s.pilot_order.empty());
  EXPECT_EQ(s.pilot_order[0], s.probe_priority[0]);
}

TEST(IvfIndexTest, AutoPartitionCountIsTwoSqrtN) {
  const TestInputs inputs = MakeInputs(10, 10, 4, 2);  // n = 100.
  const IvfIndex index = BuildOrDie(inputs, IvfIndexOptions());
  // 2 * ceil(sqrt(100)) = 20 cells requested; empty cells are pruned, so
  // the built count can only be lower.
  EXPECT_LE(index.centroids().rows(), 20u);
  EXPECT_GE(index.centroids().rows(), 1u);
  EXPECT_EQ(index.centroids().rows(), index.num_partitions());
}

TEST(IvfIndexTest, ExplicitPartitionCountRespected) {
  const TestInputs inputs = MakeInputs(4, 8, 4, 3);
  IvfIndexOptions options;
  options.num_partitions = 4;
  const IvfIndex index = BuildOrDie(inputs, options);
  EXPECT_LE(index.num_partitions(), 4u);
}

TEST(IvfIndexTest, DefaultNprobeRule) {
  const TestInputs inputs = MakeInputs(6, 8, 4, 4);
  {
    // Explicit value clamps to the scored count.
    IvfIndexOptions options;
    options.default_nprobe = 3;
    const IvfIndex index = BuildOrDie(inputs, options);
    EXPECT_EQ(index.default_nprobe(), 3u);
    options.default_nprobe = 100000;
    const IvfIndex clamped = BuildOrDie(inputs, options);
    EXPECT_EQ(clamped.default_nprobe(),
              clamped.structure().scored_partitions.size());
  }
  {
    // Auto rule: max(24, scored / 8), clamped to scored — small indexes
    // probe everything.
    const IvfIndex index = BuildOrDie(inputs, IvfIndexOptions());
    const size_t scored = index.structure().scored_partitions.size();
    EXPECT_EQ(index.default_nprobe(),
              std::min<size_t>(std::max<size_t>(24, scored / 8), scored));
  }
}

TEST(IvfIndexTest, ProbePartitionsBoundsAndOrder) {
  const TestInputs inputs = MakeInputs(8, 10, 5, 5);
  IvfIndexOptions options;
  options.num_partitions = 8;
  const IvfIndex index = BuildOrDie(inputs, options);
  const IndexStructure& s = index.structure();
  const size_t scored = s.scored_partitions.size();
  ASSERT_GE(scored, 2u);

  for (size_t nprobe : {size_t{1}, size_t{2}, scored - 1}) {
    const std::vector<size_t> probed = index.ProbePartitions(nprobe);
    EXPECT_EQ(probed.size(), nprobe);
    EXPECT_TRUE(std::is_sorted(probed.begin(), probed.end()));
    for (size_t p : probed) {
      EXPECT_NE(s.slot_of_partition[p], IndexStructure::kNoSlot);
    }
  }
  // nprobe = 0 resolves to the default; >= scored probes exactly the
  // scored set, whatever the target.
  EXPECT_EQ(index.ProbePartitions(0).size(), index.default_nprobe());
  EXPECT_EQ(index.ProbePartitions(scored), s.scored_partitions);
  EXPECT_EQ(index.ProbePartitions(scored + 100), s.scored_partitions);
  EXPECT_EQ(index.ProbePartitions(scored, /*target_dim=*/0),
            s.scored_partitions);
}

TEST(IvfIndexTest, TargetDimRoutingRanksByPriorTimesColumn) {
  const TestInputs inputs = MakeInputs(8, 10, 5, 6);
  IvfIndexOptions options;
  options.num_partitions = 8;
  const IvfIndex index = BuildOrDie(inputs, options);
  const IndexStructure& s = index.structure();
  ASSERT_GE(s.scored_partitions.size(), 2u);

  for (size_t dim = 0; dim < 5; ++dim) {
    // Independent recomputation of the routing rule's argmax.
    size_t best = s.scored_partitions[0];
    auto value = [&](size_t p) {
      const size_t rep = s.representatives[p];
      return s.prior[rep] * s.vectors[rep][dim];
    };
    for (size_t p : s.scored_partitions) {
      if (value(p) > value(best)) best = p;
    }
    const std::vector<size_t> probed = index.ProbePartitions(1, dim);
    ASSERT_EQ(probed.size(), 1u);
    EXPECT_EQ(probed[0], best) << "dim " << dim;
  }
  // An out-of-range dim falls back to the static priority.
  EXPECT_EQ(index.ProbePartitions(1, 99), index.ProbePartitions(1));
}

TEST(IvfIndexTest, PilotPartitionsSlicesPilotOrder) {
  const TestInputs inputs = MakeInputs(8, 10, 5, 7);
  const IvfIndex index = BuildOrDie(inputs, IvfIndexOptions());
  const IndexStructure& s = index.structure();
  const size_t scored = s.scored_partitions.size();
  ASSERT_GE(scored, 3u);

  for (size_t count : {size_t{1}, size_t{2}, scored, scored + 5}) {
    const std::vector<size_t> pilots = PilotPartitions(s, count);
    EXPECT_EQ(pilots.size(), std::min(count, scored));
    EXPECT_TRUE(std::is_sorted(pilots.begin(), pilots.end()));
    // Exactly the first `count` entries of pilot_order.
    std::vector<size_t> expected(
        s.pilot_order.begin(),
        s.pilot_order.begin() +
            static_cast<long>(std::min(count, scored)));
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(pilots, expected);
  }
}

TEST(IvfIndexTest, RouteByPilotScoresPicksNonPilots) {
  const TestInputs inputs = MakeInputs(8, 10, 5, 8);
  const IvfIndex index = BuildOrDie(inputs, IvfIndexOptions());
  const IndexStructure& s = index.structure();
  const size_t scored = s.scored_partitions.size();
  ASSERT_GE(scored, 4u);

  const std::vector<size_t> pilots = PilotPartitions(s, 2);
  std::vector<double> scores;
  for (size_t i = 0; i < pilots.size(); ++i) {
    scores.push_back(i == 0 ? 1.0 : 0.25);
  }
  const std::vector<size_t> routed = RouteByPilotScores(s, pilots, scores, 2);
  EXPECT_EQ(routed.size(), 2u);
  EXPECT_TRUE(std::is_sorted(routed.begin(), routed.end()));
  for (size_t p : routed) {
    EXPECT_NE(s.slot_of_partition[p], IndexStructure::kNoSlot);
    EXPECT_TRUE(std::find(pilots.begin(), pilots.end(), p) == pilots.end());
  }
  // Deterministic: same inputs, same picks.
  EXPECT_EQ(routed, RouteByPilotScores(s, pilots, scores, 2));
  // Budget beyond the non-pilot count returns every non-pilot.
  EXPECT_EQ(RouteByPilotScores(s, pilots, scores, scored + 10).size(),
            scored - pilots.size());
}

TEST(IvfIndexTest, SerializeRoundTripsBitForBit) {
  const TestInputs inputs = MakeInputs(6, 8, 4, 9);
  IvfIndexOptions options;
  options.default_nprobe = 5;
  options.propagation_neighbors = 3;
  const IvfIndex index = BuildOrDie(inputs, options);

  auto restored = IvfIndex::Deserialize(index.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  // The codec serializes the primaries and refinalizes the layout, so a
  // round trip reproduces the serialized form exactly...
  EXPECT_EQ(restored->Serialize(), index.Serialize());
  // ...and the restored index probes identically.
  EXPECT_EQ(restored->default_nprobe(), index.default_nprobe());
  EXPECT_EQ(restored->ProbePartitions(0), index.ProbePartitions(0));
  EXPECT_EQ(restored->ProbePartitions(3, 1), index.ProbePartitions(3, 1));
  EXPECT_EQ(restored->structure().pilot_order,
            index.structure().pilot_order);
}

TEST(IvfIndexTest, SaveLoadFileRoundTrip) {
  // The index persists through the model store: Put serializes it into
  // the log, and a read-only reopen deserializes it back.
  const TestInputs inputs = MakeInputs(5, 6, 4, 10);
  const IvfIndex index = BuildOrDie(inputs, IvfIndexOptions());
  const std::string path = testing::TempDir() + "/ivf_index_test.log";
  std::remove(path.c_str());
  {
    auto writer = ModelStore::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer->PutRecallIndex("nlp", index).ok());
  }
  auto store = ModelStore::OpenReadOnly(path);
  ASSERT_TRUE(store.ok()) << store.status().message();
  auto loaded = store->GetRecallIndex("nlp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->Serialize(), index.Serialize());

  EXPECT_TRUE(store->GetRecallIndex("absent").status().IsNotFound());
}

TEST(IvfIndexTest, DeserializeRejectsCorruptInput) {
  const TestInputs inputs = MakeInputs(4, 6, 4, 11);
  const IvfIndex index = BuildOrDie(inputs, IvfIndexOptions());
  const std::string good = index.Serialize();

  EXPECT_FALSE(IvfIndex::Deserialize("not an index\n1 2 3\n").ok());
  EXPECT_FALSE(IvfIndex::Deserialize("tps-ivf-index v1\n0 0 0\n").ok());
  // Truncation anywhere in the payload is caught.
  EXPECT_FALSE(
      IvfIndex::Deserialize(good.substr(0, good.size() / 2)).ok());
  EXPECT_FALSE(IvfIndex::Deserialize(good.substr(0, 40)).ok());
  // Non-finite numbers are not numbers to the codec: the first prior
  // replaced by each reads as a truncated record.
  const size_t options_end = good.find('\n', good.find('\n', 17) + 1);
  const size_t first_prior = options_end + 1;
  const size_t prior_end = good.find(' ', first_prior);
  for (const char* bad : {"nan", "inf", "-inf"}) {
    std::string text = good;
    text.replace(first_prior, prior_end - first_prior, bad);
    EXPECT_EQ(IvfIndex::Deserialize(text).status().message(),
              "truncated ivf index")
        << bad;
  }
}

TEST(IvfIndexTest, BuildRejectsInvalidInputs) {
  const TestInputs inputs = MakeInputs(3, 5, 4, 12);
  EXPECT_FALSE(IvfIndex::Build({}, {}, IvfIndexOptions()).ok());

  auto ragged = inputs;
  ragged.vectors[2].pop_back();
  EXPECT_FALSE(
      IvfIndex::Build(ragged.vectors, ragged.prior, IvfIndexOptions()).ok());

  auto short_prior = inputs;
  short_prior.prior.pop_back();
  EXPECT_FALSE(IvfIndex::Build(short_prior.vectors, short_prior.prior,
                               IvfIndexOptions())
                   .ok());

  IvfIndexOptions too_many;
  too_many.num_partitions = static_cast<int>(inputs.vectors.size()) + 1;
  EXPECT_FALSE(IvfIndex::Build(inputs.vectors, inputs.prior, too_many).ok());

  IvfIndexOptions bad_top_k;
  bad_top_k.similarity_top_k = 0;
  EXPECT_FALSE(IvfIndex::Build(inputs.vectors, inputs.prior, bad_top_k).ok());

  IvfIndexOptions bad_kmeans;
  bad_kmeans.kmeans_iterations = 0;
  EXPECT_FALSE(
      IvfIndex::Build(inputs.vectors, inputs.prior, bad_kmeans).ok());
}

}  // namespace
}  // namespace tps
