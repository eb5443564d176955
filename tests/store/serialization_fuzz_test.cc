// Property / fuzz round-trip suite for the store's spec serialization and
// the selection-trace JSON codec. Two invariants:
//
//  1. Round-trip: any spec/trace that serializes successfully must
//     deserialize back to an equal value (doubles bit-exact).
//  2. No crash: arbitrary malformed, mutated or truncated input must come
//     back as a Status error or a benign success — never a crash, hang,
//     throw, or sanitizer report. Run this suite under the ASan/UBSan
//     store-label builds (see .claude/skills/verify/SKILL.md).
//
// Inputs are generated from a seeded deterministic Rng, including the edge
// cases named in the PR spec: empty strings, extreme-but-finite doubles
// (NaN has no serialized form in either codec and is excluded by
// construction), and maximum-length keys/tags.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/selection_trace.h"
#include "store/dataset_spec_reader.h"
#include "store/spec_serialization.h"
#include "util/json.h"
#include "util/rng.h"

namespace tps {
namespace {

constexpr int kRounds = 200;
constexpr size_t kMaxNameLength = 4096;

/// Finite doubles spanning the printable extremes.
double ExtremeDouble(Rng& rng) {
  switch (rng.UniformInt(uint64_t{8})) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::max();
    case 3:
      return -std::numeric_limits<double>::max();
    case 4:
      return std::numeric_limits<double>::min();
    case 5:
      return std::numeric_limits<double>::denorm_min();
    case 6:
      return rng.Uniform(-1e9, 1e9);
    default:
      return rng.Normal();
  }
}

/// Printable-byte string (no tabs/newlines, which the spec codec rejects by
/// contract); occasionally empty or maximum-length.
std::string RandomName(Rng& rng) {
  const uint64_t kind = rng.UniformInt(uint64_t{10});
  if (kind == 0) return "";
  const size_t length =
      kind == 1 ? kMaxNameLength : 1 + rng.UniformInt(uint64_t{40});
  std::string s;
  s.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    s.push_back(static_cast<char>(' ' + rng.UniformInt(uint64_t{95})));
  }
  return s;
}

std::vector<std::string> RandomTags(Rng& rng) {
  std::vector<std::string> tags;
  const size_t count = rng.UniformInt(uint64_t{4});
  for (size_t i = 0; i < count; ++i) {
    // Tags are tab-joined on one line, so an empty tag would not survive;
    // keep them non-empty (the registry never produces empty tags either).
    std::string tag = RandomName(rng);
    if (tag.empty()) tag = "t";
    tags.push_back(tag);
  }
  return tags;
}

ModelSpec RandomModelSpec(Rng& rng) {
  ModelSpec spec;
  spec.name = RandomName(rng);
  spec.domain = rng.Bernoulli(0.5) ? TaskDomain::kNLP : TaskDomain::kCV;
  spec.family = RandomName(rng);
  spec.scale_millions = ExtremeDouble(rng);
  spec.capability = ExtremeDouble(rng);
  spec.pretrain_tags = RandomTags(rng);
  spec.finetune_tags = RandomTags(rng);
  spec.finetune_strength = ExtremeDouble(rng);
  spec.num_source_labels = static_cast<int>(rng.UniformInt(int64_t{-4}, 1000));
  spec.description = RandomName(rng);
  return spec;
}

DatasetSpec RandomDatasetSpec(Rng& rng) {
  DatasetSpec spec;
  spec.name = RandomName(rng);
  spec.domain = rng.Bernoulli(0.5) ? TaskDomain::kNLP : TaskDomain::kCV;
  spec.role =
      rng.Bernoulli(0.5) ? DatasetRole::kBenchmark : DatasetRole::kTarget;
  spec.num_labels = static_cast<int>(rng.UniformInt(int64_t{-3}, 500));
  spec.difficulty = ExtremeDouble(rng);
  spec.tags = RandomTags(rng);
  spec.num_examples = static_cast<int>(rng.UniformInt(int64_t{-1}, 4096));
  spec.chance_accuracy = ExtremeDouble(rng);
  spec.ceiling_accuracy = ExtremeDouble(rng);
  return spec;
}

void ExpectModelSpecsEqual(const ModelSpec& a, const ModelSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.domain, b.domain);
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.scale_millions, b.scale_millions);
  EXPECT_EQ(a.capability, b.capability);
  EXPECT_EQ(a.pretrain_tags, b.pretrain_tags);
  EXPECT_EQ(a.finetune_tags, b.finetune_tags);
  EXPECT_EQ(a.finetune_strength, b.finetune_strength);
  EXPECT_EQ(a.num_source_labels, b.num_source_labels);
  EXPECT_EQ(a.description, b.description);
}

void ExpectDatasetSpecsEqual(const DatasetSpec& a, const DatasetSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.domain, b.domain);
  EXPECT_EQ(a.role, b.role);
  EXPECT_EQ(a.num_labels, b.num_labels);
  EXPECT_EQ(a.difficulty, b.difficulty);
  EXPECT_EQ(a.tags, b.tags);
  EXPECT_EQ(a.num_examples, b.num_examples);
  EXPECT_EQ(a.chance_accuracy, b.chance_accuracy);
  EXPECT_EQ(a.ceiling_accuracy, b.ceiling_accuracy);
}

TEST(SpecSerializationFuzzTest, ModelSpecRoundTripsUnderRandomInputs) {
  Rng rng(0xF00D);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const ModelSpec spec = RandomModelSpec(rng);
    auto text = SerializeModelSpec(spec);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    auto parsed = DeserializeModelSpec(*text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectModelSpecsEqual(spec, *parsed);
  }
}

TEST(SpecSerializationFuzzTest, DatasetSpecRoundTripsUnderRandomInputs) {
  Rng rng(0xBEEF);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const DatasetSpec spec = RandomDatasetSpec(rng);
    auto text = SerializeDatasetSpec(spec);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    auto parsed = DeserializeDatasetSpec(*text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectDatasetSpecsEqual(spec, *parsed);
  }
}

TEST(SpecSerializationFuzzTest, RejectsFieldsWithTabsOrNewlines) {
  ModelSpec spec;
  spec.name = "bad\tname";
  EXPECT_FALSE(SerializeModelSpec(spec).ok());
  spec.name = "bad\nname";
  EXPECT_FALSE(SerializeModelSpec(spec).ok());
  DatasetSpec ds;
  ds.name = "ok";
  ds.tags = {"bad\ttag"};
  EXPECT_FALSE(SerializeDatasetSpec(ds).ok());
}

/// Random byte mutation: flip, insert or delete one byte.
std::string Mutate(std::string text, Rng& rng) {
  if (text.empty()) return text;
  const size_t pos = rng.UniformInt(text.size());
  switch (rng.UniformInt(uint64_t{3})) {
    case 0:
      text[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
      break;
    case 1:
      text.insert(pos, 1, static_cast<char>(rng.UniformInt(uint64_t{256})));
      break;
    default:
      text.erase(pos, 1);
      break;
  }
  return text;
}

TEST(SpecSerializationFuzzTest, MutatedAndTruncatedInputNeverCrashes) {
  Rng rng(0xDEAD);
  const ModelSpec model = RandomModelSpec(rng);
  const DatasetSpec dataset = RandomDatasetSpec(rng);
  const std::string model_text = *SerializeModelSpec(model);
  const std::string dataset_text = *SerializeDatasetSpec(dataset);

  for (int round = 0; round < kRounds; ++round) {
    // Status error or benign success are both fine; crashing is not.
    (void)DeserializeModelSpec(Mutate(model_text, rng));
    (void)DeserializeDatasetSpec(Mutate(dataset_text, rng));
  }
  for (size_t cut = 0; cut <= model_text.size(); ++cut) {
    (void)DeserializeModelSpec(model_text.substr(0, cut));
  }
  for (size_t cut = 0; cut <= dataset_text.size(); ++cut) {
    (void)DeserializeDatasetSpec(dataset_text.substr(0, cut));
  }
  (void)DeserializeModelSpec("");
  (void)DeserializeDatasetSpec(std::string(3, '\0'));
}

SelectionTrace RandomTrace(Rng& rng) {
  SelectionTrace trace;
  trace.target = RandomName(rng);
  trace.domain = rng.Bernoulli(0.5) ? "NLP" : "CV";
  const size_t scored = rng.UniformInt(uint64_t{5});
  for (size_t i = 0; i < scored; ++i) {
    trace.recall.scored.push_back({rng.UniformInt(uint64_t{1000}),
                                   static_cast<int>(rng.UniformInt(uint64_t{32})),
                                   ExtremeDouble(rng)});
    trace.recall.ranked.push_back({rng.UniformInt(uint64_t{1000}),
                                   ExtremeDouble(rng), ExtremeDouble(rng),
                                   ExtremeDouble(rng), rng.Bernoulli(0.5)});
    trace.recall.recalled.push_back(rng.UniformInt(uint64_t{1000}));
  }
  trace.recall.proxies_computed = scored;
  trace.recall.inference_epochs = ExtremeDouble(rng);
  trace.recall.wall_ms = ExtremeDouble(rng);
  const size_t stages = rng.UniformInt(uint64_t{4});
  for (size_t s = 0; s < stages; ++s) {
    TraceStage stage;
    stage.stage = static_cast<int>(s);
    stage.entrants = {rng.UniformInt(uint64_t{1000})};
    stage.epochs_charged = ExtremeDouble(rng);
    if (rng.Bernoulli(0.5)) {
      stage.prunes.push_back({rng.UniformInt(uint64_t{1000}),
                              rng.UniformInt(uint64_t{1000}),
                              ExtremeDouble(rng), ExtremeDouble(rng),
                              ExtremeDouble(rng), ExtremeDouble(rng),
                              ExtremeDouble(rng)});
    }
    stage.halving_drops = {rng.UniformInt(uint64_t{1000})};
    stage.survivors = {rng.UniformInt(uint64_t{1000})};
    trace.stages.push_back(std::move(stage));
  }
  trace.fine_wall_ms = ExtremeDouble(rng);
  trace.selected_model = rng.UniformInt(uint64_t{1000});
  trace.selected_accuracy = ExtremeDouble(rng);
  trace.training_epochs = ExtremeDouble(rng);
  trace.total_epochs = ExtremeDouble(rng);
  return trace;
}

TEST(TraceJsonFuzzTest, RandomTracesRoundTripBitExactly) {
  Rng rng(0xCAFE);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const SelectionTrace trace = RandomTrace(rng);
    for (int indent : {-1, 0, 2}) {
      auto parsed = SelectionTrace::FromJson(trace.ToJson(indent));
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(*parsed, trace);
    }
  }
}

TEST(TraceJsonFuzzTest, MutatedAndTruncatedTraceJsonNeverCrashes) {
  Rng rng(0x5EED);
  const std::string text = RandomTrace(rng).ToJson(-1);
  for (int round = 0; round < 2 * kRounds; ++round) {
    (void)SelectionTrace::FromJson(Mutate(text, rng));
    (void)json::Parse(Mutate(text, rng));
  }
  for (size_t cut = 0; cut <= text.size(); cut += 5) {
    EXPECT_FALSE(SelectionTrace::FromJson(text.substr(0, cut)).ok());
  }
}

TEST(TraceJsonFuzzTest, RandomBytesNeverCrashTheJsonParser) {
  Rng rng(0xACED);
  for (int round = 0; round < 2 * kRounds; ++round) {
    std::string garbage;
    const size_t length = rng.UniformInt(uint64_t{256});
    garbage.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.UniformInt(uint64_t{256})));
    }
    (void)json::Parse(garbage);
    (void)SelectionTrace::FromJson(garbage);
  }
}

}  // namespace
}  // namespace tps
