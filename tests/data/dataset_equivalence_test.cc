// Shared, lazily built datasets: a registry copy shares its Dataset
// objects, the paper inventory is built once per process, a dataset's
// examples are built on first read of examples() (never by size()), and
// whatever copy, order or thread touches them first, the examples are the
// eager oracle's (tests/data/reference_dataset.*) bit for bit.

#include <cstring>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "data/dataset.h"
#include "data/reference_dataset.h"
#include "data/registry.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace tps {
namespace {

std::vector<DatasetSpec> PaperSpecs() {
  std::vector<DatasetSpec> specs;
  for (auto* list : {&NlpBenchmarkSpecs, &NlpTargetSpecs, &CvBenchmarkSpecs,
                     &CvTargetSpecs}) {
    for (DatasetSpec& spec : (*list)()) specs.push_back(std::move(spec));
  }
  return specs;
}

/// Random NLP target specs drawn the way the serving benchmark draws its
/// novel targets (2-5 labels, difficulty in [0.25, 0.7), 2-4 tags from the
/// benchmark vocabulary), with varied example counts.
std::vector<DatasetSpec> NovelSpecs(size_t count, uint64_t seed) {
  std::set<std::string> vocabulary_set;
  for (const DatasetSpec& spec : NlpBenchmarkSpecs()) {
    vocabulary_set.insert(spec.tags.begin(), spec.tags.end());
  }
  const std::vector<std::string> vocabulary(vocabulary_set.begin(),
                                            vocabulary_set.end());
  Rng rng(seed);
  std::vector<DatasetSpec> specs;
  for (size_t i = 0; i < count; ++i) {
    DatasetSpec spec;
    spec.name = "novel_" + std::to_string(i);
    spec.domain = TaskDomain::kNLP;
    spec.role = DatasetRole::kTarget;
    spec.num_labels = static_cast<int>(rng.UniformInt(int64_t{2}, 5));
    spec.difficulty = rng.Uniform(0.25, 0.7);
    spec.num_examples = static_cast<int>(rng.UniformInt(int64_t{1}, 300));
    const size_t tags = static_cast<size_t>(rng.UniformInt(int64_t{2}, 4));
    for (size_t j : rng.SampleWithoutReplacement(vocabulary.size(), tags)) {
      spec.tags.push_back(vocabulary[j]);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Bit-for-bit equality (memcmp, so -0.0 vs 0.0 or NaN payloads count).
void ExpectSameBits(const std::vector<Example>& actual,
                    const std::vector<Example>& expected,
                    const std::string& name) {
  ASSERT_EQ(actual.size(), expected.size()) << name;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].label, expected[i].label) << name << " example " << i;
    ASSERT_EQ(actual[i].features.size(), expected[i].features.size());
    ASSERT_EQ(std::memcmp(actual[i].features.data(),
                          expected[i].features.data(),
                          actual[i].features.size() * sizeof(double)),
              0)
        << name << " example " << i;
  }
}

TEST(DatasetEquivalenceTest, PaperInventoryMatchesEagerOracle) {
  const DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  ASSERT_EQ(registry.size(), 42u);
  // Touch in reverse registration order: per-dataset Rng streams make the
  // order irrelevant.
  for (size_t i = registry.size(); i-- > 0;) {
    const Dataset& ds = registry.datasets()[i];
    ExpectSameBits(ds.examples(), ReferenceExamples(ds.spec()), ds.name());
  }
}

TEST(DatasetEquivalenceTest, NovelSpecsMatchEagerOracle) {
  const std::vector<DatasetSpec> specs = NovelSpecs(64, 7);
  const DatasetRegistry registry = *DatasetRegistry::Create(specs);
  for (const DatasetSpec& spec : specs) {
    const Dataset* ds = *registry.Find(spec.name);
    ExpectSameBits(ds->examples(), ReferenceExamples(spec), spec.name);
  }
}

/// Example sets built so far in this process.
uint64_t ExamplesBuilt() {
  return MetricsRegistry::Default()->counter("data.examples_built").value();
}

TEST(DatasetEquivalenceTest, SizeDoesNotBuildExamples) {
  const uint64_t built_before = ExamplesBuilt();
  const DatasetRegistry registry = *DatasetRegistry::Create(PaperSpecs());
  for (const Dataset& ds : registry.datasets()) {
    EXPECT_EQ(ds.size(), static_cast<size_t>(ds.spec().num_examples));
  }
  EXPECT_EQ(ExamplesBuilt(), built_before);
  const Dataset& first = registry.datasets().front();
  EXPECT_EQ(first.examples().size(), first.size());
  // Only the dataset that was read built its examples.
  EXPECT_EQ(ExamplesBuilt(), built_before + 1);
}

TEST(DatasetEquivalenceTest, CopiesShareExamples) {
  const uint64_t built_before = ExamplesBuilt();
  const Dataset original = *Dataset::Create(PaperSpecs().front());
  const Dataset copy = original;  // Copied before any read.
  EXPECT_EQ(ExamplesBuilt(), built_before);
  const std::vector<Example>& via_copy = copy.examples();
  EXPECT_EQ(ExamplesBuilt(), built_before + 1);
  // The original reads the set its copy built; nothing is built again.
  EXPECT_EQ(original.examples().data(), via_copy.data());
  EXPECT_EQ(ExamplesBuilt(), built_before + 1);

  // A registry copy shares the Dataset objects themselves.
  const DatasetRegistry registry = *DatasetRegistry::Create(PaperSpecs());
  const DatasetRegistry registry_copy = registry;
  EXPECT_EQ(registry_copy.datasets().data(), registry.datasets().data());
}

TEST(DatasetEquivalenceTest, PaperInventoryIsBuiltOncePerProcess) {
  const DatasetRegistry a = *DatasetRegistry::CreatePaperInventory();
  const DatasetRegistry b = *DatasetRegistry::CreatePaperInventory();
  ASSERT_EQ(a.size(), b.size());
  for (const Dataset& ds : a.datasets()) {
    EXPECT_EQ(*a.Find(ds.name()), *b.Find(ds.name())) << ds.name();
  }
}

TEST(DatasetEquivalenceTest, DefaultAndMovedFromRegistriesAreEmpty) {
  const DatasetRegistry empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.datasets().empty());
  EXPECT_TRUE(empty.Find("mnli").status().IsNotFound());
  EXPECT_TRUE(empty.Benchmarks(TaskDomain::kNLP).empty());
  EXPECT_TRUE(Targets(empty, TaskDomain::kCV).empty());

  DatasetRegistry source = *DatasetRegistry::CreatePaperInventory();
  DatasetRegistry moved = std::move(source);
  EXPECT_EQ(moved.size(), 42u);
  EXPECT_EQ(source.size(), 0u);
  EXPECT_TRUE(source.Find("mnli").status().IsNotFound());
  DatasetRegistry assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 42u);
  EXPECT_TRUE(moved.datasets().empty());

  Dataset ds = *Dataset::Create(PaperSpecs().front());
  const Dataset taken = std::move(ds);
  EXPECT_EQ(taken.size(), taken.examples().size());
  EXPECT_EQ(ds.size(), 0u);
  EXPECT_TRUE(ds.examples().empty());
}

// Eight threads released together by a latch race to be the first reader
// of every dataset of a fresh registry, each walking the datasets in its
// own rotation. Every thread must see the same example buffer (built once)
// holding the oracle's bytes.
TEST(DatasetEquivalenceTest, ConcurrentFirstReadsBuildOnce) {
  constexpr int kThreads = 8;
  const DatasetRegistry registry = *DatasetRegistry::Create(PaperSpecs());
  const size_t n = registry.size();
  std::vector<std::vector<const Example*>> seen(
      kThreads, std::vector<const Example*>(n, nullptr));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (size_t k = 0; k < n; ++k) {
        const size_t i = (k + static_cast<size_t>(t) * 5) % n;
        seen[static_cast<size_t>(t)][i] =
            registry.datasets()[i].examples().data();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < n; ++i) {
    const Dataset& ds = registry.datasets()[i];
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<size_t>(t)][i], ds.examples().data())
          << ds.name();
    }
    ExpectSameBits(ds.examples(), ReferenceExamples(ds.spec()), ds.name());
  }
}

}  // namespace
}  // namespace tps
