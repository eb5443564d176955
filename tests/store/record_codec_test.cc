// The store's record codecs (util/text_codec.h: to_chars writers,
// from_chars readers) against the stream oracles in
// tests/store/reference_record_text.*: the clustering (v1 and v2), recall
// embeddings and IVF index records.
//
//  1. Writers: byte for byte the stream writers' text, on the paper
//     artifacts and on small records full of edge values. The one
//     exception is the clustering's distance threshold, which the stream
//     wrote at 6 significant digits and the codec writes losslessly.
//  2. Readers: on the written text, on every prefix of it, and on seeded
//     one-byte mutations (flip, insert, delete), the codec accepts exactly
//     what the oracle accepts, with bit-identical values, and rejects the
//     rest with the same Status. The deliberate differences are pinned in
//     `DecidedDivergences`: a leading '+' and a '-' on an unsigned field
//     are rejected (the stream reads "+5" as 5 and wraps "-1"). So the two
//     may disagree only on a mutation that writes a sign byte or glues an
//     existing sign to the number before it (deleting the 'e' of
//     "1e+300" leaves "1+300", which the stream reads as 1 and 300), and
//     then only in that the codec rejects.

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_clusterer.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "model/paper_zoo.h"
#include "recall/embed_trainer.h"
#include "recall/recall_embeddings.h"
#include "store/reference_record_text.h"
#include "util/rng.h"

namespace tps {
namespace {

using recall::EmbeddingConfig;
using recall::RecallEmbeddings;

constexpr int kMutations = 3000;

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBits(a.data(), b.data());
}

bool SameBits(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

/// "" when every field agrees bit for bit, else the first that differs.
std::string Diff(const ModelClustering& a, const ModelClustering& b) {
  if (a.clusters.assignments != b.clusters.assignments) return "assignments";
  if (a.clusters.num_clusters != b.clusters.num_clusters) return "clusters";
  if (a.representatives != b.representatives) return "representatives";
  if (a.options.top_k != b.options.top_k) return "top_k";
  if (a.options.num_clusters != b.options.num_clusters) return "num_clusters";
  if (!SameBits(a.options.distance_threshold, b.options.distance_threshold)) {
    return "distance_threshold";
  }
  if (!SameBits(a.distances, b.distances)) return "distances";
  return "";
}

std::string Diff(const RecallEmbeddings& a, const RecallEmbeddings& b) {
  const EmbeddingConfig& x = a.config();
  const EmbeddingConfig& y = b.config();
  if (x.dim != y.dim || x.epochs != y.epochs || x.seed != y.seed ||
      !SameBits(x.learning_rate, y.learning_rate) ||
      !SameBits(x.temperature, y.temperature) ||
      !SameBits(x.accuracy_temperature, y.accuracy_temperature) ||
      !SameBits(x.weight_decay, y.weight_decay)) {
    return "config";
  }
  if (a.model_names() != b.model_names()) return "model_names";
  if (!SameBits(a.prior(), b.prior())) return "prior";
  if (!SameBits(a.dataset_map(), b.dataset_map())) return "dataset_map";
  if (!SameBits(a.model_embeddings(), b.model_embeddings())) {
    return "model_embeddings";
  }
  return "";
}

std::string Diff(const IvfIndex& a, const ReferenceIvfRecord& b) {
  const IvfIndexOptions& x = a.options();
  const IvfIndexOptions& y = b.options;
  if (x.num_partitions != y.num_partitions ||
      x.default_nprobe != y.default_nprobe ||
      x.propagation_neighbors != y.propagation_neighbors ||
      x.similarity_top_k != y.similarity_top_k ||
      x.kmeans_iterations != y.kmeans_iterations ||
      x.kmeans_restarts != y.kmeans_restarts || x.seed != y.seed) {
    return "options";
  }
  const IndexStructure& s = a.structure();
  const IndexStructure& t = b.structure;
  if (!SameBits(s.prior, t.prior)) return "prior";
  if (s.assignments != t.assignments) return "assignments";
  if (!SameBits(s.vectors, t.vectors)) return "vectors";
  if (!SameBits(a.centroids(), b.centroids)) return "centroids";
  // Derived fields: the same primaries finalize the same way.
  if (s.members != t.members || s.representatives != t.representatives ||
      s.neighbors != t.neighbors) {
    return "derived layout";
  }
  return "";
}

/// The codec's and the oracle's reading of `text` agree: both fail with
/// the same Status, or both succeed with bit-identical fields. When
/// `sign_mutation`, the codec may instead fail however the oracle reads it.
template <typename Codec, typename Oracle>
void ExpectSameReading(const std::string& text, const Codec& codec,
                       const Oracle& oracle, bool sign_mutation = false) {
  const auto got = codec(text);
  const auto want = oracle(text);
  if (sign_mutation && !got.ok()) return;
  ASSERT_EQ(got.ok(), want.ok())
      << "codec: " << got.status().ToString()
      << "\noracle: " << want.status().ToString() << "\ntext:\n"
      << text;
  if (!got.ok()) {
    ASSERT_EQ(got.status().code(), want.status().code()) << text;
    ASSERT_EQ(got.status().message(), want.status().message()) << text;
    return;
  }
  ASSERT_EQ(Diff(*got, *want), "") << text;
}

struct Mutation {
  std::string text;
  /// It wrote a '+' or '-', or glued one to the character before it.
  bool sign_mutation = false;
};

/// A sign right after a character that is neither whitespace nor an
/// exponent marker: no writer puts one there.
bool HasGluedSign(const std::string& text) {
  for (size_t i = 1; i < text.size(); ++i) {
    if ((text[i] == '+' || text[i] == '-') &&
        std::string_view(" \n\t\r\v\feE").find(text[i - 1]) ==
            std::string_view::npos) {
      return true;
    }
  }
  return false;
}

/// Flip, insert or delete one byte, as serialization_fuzz_test does.
Mutation Mutate(std::string text, Rng& rng) {
  Mutation m;
  const size_t pos = rng.UniformInt(text.size());
  const auto byte = static_cast<char>(rng.UniformInt(uint64_t{256}));
  switch (rng.UniformInt(uint64_t{3})) {
    case 0:
      text[pos] = byte;
      m.sign_mutation = byte == '+' || byte == '-';
      break;
    case 1:
      text.insert(pos, 1, byte);
      m.sign_mutation = byte == '+' || byte == '-';
      break;
    default:
      text.erase(pos, 1);
      break;
  }
  m.sign_mutation = m.sign_mutation || HasGluedSign(text);
  m.text = std::move(text);
  return m;
}

/// Parity on `text`, every prefix of it and kMutations mutations of it.
template <typename Codec, typename Oracle>
void ExpectSameReadings(const std::string& text, const Codec& codec,
                        const Oracle& oracle, uint64_t seed) {
  ExpectSameReading(text, codec, oracle);
  for (size_t cut = 0; cut < text.size(); ++cut) {
    SCOPED_TRACE("prefix " + std::to_string(cut));
    ExpectSameReading(text.substr(0, cut), codec, oracle);
    if (testing::Test::HasFatalFailure()) return;
  }
  Rng rng(seed);
  for (int round = 0; round < kMutations; ++round) {
    SCOPED_TRACE("mutation " + std::to_string(round));
    const Mutation m = Mutate(text, rng);
    ExpectSameReading(m.text, codec, oracle, m.sign_mutation);
    if (testing::Test::HasFatalFailure()) return;
  }
}

const auto kClusteringCodec = [](const std::string& text) {
  return DeserializeClustering(text);
};
const auto kEmbeddingsCodec = [](const std::string& text) {
  return RecallEmbeddings::Deserialize(text);
};
const auto kIvfCodec = [](const std::string& text) {
  return IvfIndex::Deserialize(text);
};

/// A value drawn to exercise the writers' and readers' edges: signed
/// zero, subnormals, extremes, the %g fixed/exponent switch points and
/// plain fractions.
double EdgeValue(Rng& rng) {
  switch (rng.UniformInt(uint64_t{10})) {
    case 0:
      return -0.0;
    case 1:
      return 4.9406564584124654e-324;
    case 2:
      return 1.7976931348623157e+308;
    case 3:
      return 1e-05;
    case 4:
      return 1e+16;
    case 5:
      return -rng.Uniform(0.0, 1e-300);
    default:
      return rng.Uniform(-1.0, 1.0);
  }
}

/// A small clustering of `n` models: 3 clusters, edge-valued distances.
ModelClustering SmallClustering(size_t n, Rng& rng) {
  ModelClustering c;
  c.clusters.num_clusters = 3;
  for (size_t m = 0; m < n; ++m) {
    c.clusters.assignments.push_back(static_cast<int>(m % 3));
  }
  c.representatives = {0, 1, 2};
  c.options.top_k = 4;
  c.distances = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) c.distances.At(i, j) = EdgeValue(rng);
  }
  return c;
}

RecallEmbeddings SmallEmbeddings(Rng& rng) {
  EmbeddingConfig config;
  config.dim = 3;
  config.epochs = 17;
  config.learning_rate = 0.123456789;
  config.seed = 18446744073709551615u;
  Matrix map(3, 4);
  for (double& v : map.data()) v = EdgeValue(rng);
  std::vector<std::vector<double>> vectors(5, std::vector<double>(3));
  std::vector<double> prior;
  std::vector<std::string> names;
  for (size_t m = 0; m < vectors.size(); ++m) {
    for (double& v : vectors[m]) v = EdgeValue(rng);
    prior.push_back(rng.Uniform(0.0, 1.0));
    names.push_back("model " + std::to_string(m));
  }
  return *RecallEmbeddings::Create(config, std::move(map), std::move(vectors),
                                   std::move(prior), std::move(names));
}

IvfIndex SmallIvf(Rng& rng) {
  std::vector<std::vector<double>> vectors(12, std::vector<double>(4));
  std::vector<double> prior;
  for (std::vector<double>& v : vectors) {
    for (double& x : v) x = rng.Uniform(0.0, 1.0);
    prior.push_back(rng.Uniform(0.0, 1.0));
  }
  IvfIndexOptions options;
  options.num_partitions = 4;
  options.propagation_neighbors = 2;
  return *IvfIndex::Build(std::move(vectors), std::move(prior), options);
}

/// The paper NLP artifacts: matrix, clustering, IVF index and (briefly
/// trained) embeddings.
class PaperRecordsTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
    const ModelZoo zoo = *ModelZoo::Create(NlpPaperZooSpecs());
    const std::vector<const Dataset*> benchmarks =
        registry.Benchmarks(TaskDomain::kNLP);
    const PerformanceMatrix matrix = *PerformanceMatrix::Build(
        zoo, benchmarks, FineTuneSimulator(),
        Hyperparams::DefaultsFor(TaskDomain::kNLP));
    clustering_ = new ModelClustering(
        *ClusterModels(matrix, zoo, ModelClusteringOptions()));
    index_ = new IvfIndex(*IvfIndex::Build(matrix.ModelVectors(),
                                           matrix.ModelAverageAccuracies(),
                                           IvfIndexOptions()));
    EmbeddingConfig config;
    config.epochs = 40;
    embeddings_ = new RecallEmbeddings(
        TrainRecallEmbeddings(matrix, benchmarks, config)->embeddings);
  }

  static ModelClustering* clustering_;
  static IvfIndex* index_;
  static RecallEmbeddings* embeddings_;
};

ModelClustering* PaperRecordsTest::clustering_ = nullptr;
IvfIndex* PaperRecordsTest::index_ = nullptr;
RecallEmbeddings* PaperRecordsTest::embeddings_ = nullptr;

TEST_F(PaperRecordsTest, WritersMatchTheStreamWritersByteForByte) {
  const std::string clustering = SerializeClustering(*clustering_);
  EXPECT_EQ(clustering, ReferenceSerializeClustering(*clustering_));
  const std::string index = index_->Serialize();
  EXPECT_EQ(index, ReferenceSerializeIvf(*index_));
  const std::string embeddings = embeddings_->Serialize();
  EXPECT_EQ(embeddings, ReferenceSerializeEmbeddings(*embeddings_));

  // And the readers agree on them (prefixes and mutations run on the
  // small records below, which cost far less per parse).
  ExpectSameReading(clustering, kClusteringCodec,
                    ReferenceDeserializeClustering);
  ExpectSameReading(index, kIvfCodec, ReferenceDeserializeIvf);
  ExpectSameReading(embeddings, kEmbeddingsCodec,
                    ReferenceDeserializeEmbeddings);
}

TEST(RecordCodecTest, ClusteringMatchesTheStreamCodec) {
  Rng rng(0xC1);
  const ModelClustering clustering = SmallClustering(7, rng);
  const std::string text = SerializeClustering(clustering);
  EXPECT_EQ(text, ReferenceSerializeClustering(clustering));
  ASSERT_EQ(Diff(*DeserializeClustering(text), clustering), "");
  ExpectSameReadings(text, kClusteringCodec, ReferenceDeserializeClustering,
                     0xC1A);

  // An index-derived clustering carries no distance matrix.
  ModelClustering derived = clustering;
  derived.distances = Matrix();
  const std::string bare = SerializeClustering(derived);
  EXPECT_EQ(bare, ReferenceSerializeClustering(derived));
  ExpectSameReadings(bare, kClusteringCodec, ReferenceDeserializeClustering,
                     0xC1B);
}

TEST(RecordCodecTest, ClusteringV1RecordsMatchTheStreamReader) {
  // Written by the v1 writer (similarity kind, algorithm and k-means seed
  // around the options): with distances, and index-derived without.
  ExpectSameReadings(
      "tps-model-clustering v1\n3 2\n0 0 5 0 0.085 42\n0 0 1 \n1 2 \n3\n"
      "0 0.0625 0.29999999999999999 \n0.0625 0 0.28125 \n"
      "0.29999999999999999 0.28125 0 \n",
      kClusteringCodec, ReferenceDeserializeClustering, 0xC1C);
  ExpectSameReadings(
      "tps-model-clustering v1\n4 2\n0 1 5 2 0.085 42\n1 0 1 0 \n3 0 \n0\n",
      kClusteringCodec, ReferenceDeserializeClustering, 0xC1D);
}

TEST(RecordCodecTest, ClusteringThresholdIsWrittenLosslessly) {
  Rng rng(0xC2);
  ModelClustering clustering = SmallClustering(4, rng);
  clustering.options.distance_threshold = 0.0851234567891;
  const std::string text = SerializeClustering(clustering);
  auto loaded = DeserializeClustering(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->options.distance_threshold, 0.0851234567891);
  // The stream writer kept 6 digits, so its record read back 0.0851235;
  // outside that token the bytes are the same.
  const std::string stream = ReferenceSerializeClustering(clustering);
  EXPECT_EQ(
      ReferenceDeserializeClustering(stream)->options.distance_threshold,
      0.0851235);
  const std::string shortest = "4 0 0.0851234567891\n";
  const std::string six_digits = "4 0 0.0851235\n";
  ASSERT_NE(text.find(shortest), std::string::npos) << text;
  std::string patched = stream;
  patched.replace(patched.find(six_digits), six_digits.size(), shortest);
  EXPECT_EQ(text, patched);
}

TEST(RecordCodecTest, EmbeddingsMatchTheStreamCodec) {
  Rng rng(0xE1);
  const RecallEmbeddings embeddings = SmallEmbeddings(rng);
  const std::string text = embeddings.Serialize();
  EXPECT_EQ(text, ReferenceSerializeEmbeddings(embeddings));
  ASSERT_EQ(Diff(*RecallEmbeddings::Deserialize(text), embeddings), "");
  ExpectSameReadings(text, kEmbeddingsCodec, ReferenceDeserializeEmbeddings,
                     0xE1A);
}

TEST(RecordCodecTest, IvfIndexMatchesTheStreamCodec) {
  Rng rng(0x1F);
  const IvfIndex index = SmallIvf(rng);
  const std::string text = index.Serialize();
  EXPECT_EQ(text, ReferenceSerializeIvf(index));
  ExpectSameReadings(text, kIvfCodec, ReferenceDeserializeIvf, 0x1FA);
}

TEST(RecordCodecTest, DecidedDivergences) {
  const std::string head = "tps-model-clustering v2\n2 1\n";
  const auto clustering = [&](const std::string& options,
                              const std::string& distances) {
    return head + options + "\n0 0 \n1 \n2\n" + distances + "\n";
  };
  const std::string plain = "0 0.25 \n0.25 0 ";
  ASSERT_TRUE(DeserializeClustering(clustering("5 0 0.085", plain)).ok());

  // A leading '+': the stream reads it, the codec rejects it.
  for (const std::string& text :
       {clustering("+5 0 0.085", plain), clustering("5 +0 0.085", plain),
        clustering("5 0 +0.085", plain)}) {
    EXPECT_TRUE(ReferenceDeserializeClustering(text).ok()) << text;
    EXPECT_EQ(DeserializeClustering(text).status().message(),
              "bad clustering options")
        << text;
  }
  EXPECT_TRUE(ReferenceDeserializeClustering(
                  clustering("5 0 0.085", "+0 0.25 \n0.25 0 "))
                  .ok());
  EXPECT_EQ(DeserializeClustering(clustering("5 0 0.085", "+0 0.25 \n0.25 0 "))
                .status()
                .message(),
            "truncated distances");

  // A '-' on an unsigned field: the stream wraps it, the codec rejects it.
  auto wrapped = ReferenceDeserializeClustering(clustering("-5 0 0.085",
                                                           plain));
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->options.top_k, static_cast<size_t>(-5));
  EXPECT_EQ(DeserializeClustering(clustering("-5 0 0.085", plain))
                .status()
                .message(),
            "bad clustering options");
  // On a signed field both read it.
  EXPECT_EQ(DeserializeClustering(clustering("5 -3 0.085", plain))
                ->options.num_clusters,
            -3);

  // Agreed: non-finite numbers and a dangling exponent are rejected by
  // both, also as the record's last value (where nothing after them
  // fails); underflow reads as strtod's value (signed zero or a
  // subnormal) in both; overflow is rejected by both.
  for (const std::string bad : {"nan", "inf", "-inf", "infinity", "1e",
                                 "2.5E+", "1e999", "-1e999"}) {
    for (const std::string& text :
         {clustering("5 0 0.085", bad + " 0.25 \n0.25 0 "),
          clustering("5 0 0.085", "0 0.25 \n0.25 " + bad)}) {
      EXPECT_FALSE(ReferenceDeserializeClustering(text).ok()) << text;
      EXPECT_EQ(DeserializeClustering(text).status().message(),
                "truncated distances")
          << text;
    }
  }
  for (const std::string tiny : {"1e-400", "-1e-400", "2e-320", "1e-310"}) {
    const std::string text =
        clustering("5 0 0.085", tiny + " 0.25 \n0.25 0 ");
    auto want = ReferenceDeserializeClustering(text);
    auto got = DeserializeClustering(text);
    ASSERT_TRUE(want.ok()) << tiny;
    ASSERT_TRUE(got.ok()) << tiny;
    EXPECT_EQ(Diff(*got, *want), "") << tiny;
  }
  EXPECT_TRUE(std::signbit(
      DeserializeClustering(clustering("5 0 0.085", "-1e-400 0.25 \n0.25 0 "))
          ->distances.At(0, 0)));
}

}  // namespace
}  // namespace tps
