#include "bench/lib/baseline_clustering.h"

#include <gtest/gtest.h>

#include "matrix/vector_ops.h"

namespace tps {
namespace {

TEST(TextEmbedderTest, TokenizeLowercasesAndSplitsOnNonAlnum) {
  EXPECT_EQ(HashedTextEmbedder::Tokenize("Hello, World-2!"),
            (std::vector<std::string>{"hello", "world", "2"}));
  EXPECT_TRUE(HashedTextEmbedder::Tokenize("...!!!").empty());
  EXPECT_TRUE(HashedTextEmbedder::Tokenize("").empty());
}

TEST(TextEmbedderTest, EmbeddingIsUnitNorm) {
  HashedTextEmbedder embedder;
  const auto v = embedder.Embed("a model card with words");
  EXPECT_EQ(v.size(), embedder.dims());
  EXPECT_NEAR(vec::Norm(v), 1.0, 1e-12);
}

TEST(TextEmbedderTest, EmptyTextIsZeroVector) {
  HashedTextEmbedder embedder;
  EXPECT_DOUBLE_EQ(vec::Norm(embedder.Embed("")), 0.0);
}

TEST(TextEmbedderTest, IdenticalTextsHaveSimilarityOne) {
  HashedTextEmbedder embedder;
  EXPECT_NEAR(embedder.Similarity("bert base uncased", "bert base uncased"),
              1.0, 1e-12);
}

TEST(TextEmbedderTest, CaseAndPunctuationInvariant) {
  HashedTextEmbedder embedder;
  EXPECT_NEAR(embedder.Similarity("BERT-Base, Uncased!", "bert base uncased"),
              1.0, 1e-12);
}

TEST(TextEmbedderTest, OverlapRaisesSimilarity) {
  HashedTextEmbedder embedder(256);
  const double related = embedder.Similarity(
      "bert fine-tuned on qqp paraphrase",
      "roberta fine-tuned on qqp paraphrase");
  const double unrelated = embedder.Similarity(
      "bert fine-tuned on qqp paraphrase",
      "vision transformer for flowers");
  EXPECT_GT(related, unrelated);
  EXPECT_GT(related, 0.4);
}

TEST(TextEmbedderTest, DisjointTokensNearZero) {
  HashedTextEmbedder embedder(512);
  const double sim = embedder.Similarity("alpha beta gamma delta",
                                         "epsilon zeta eta theta");
  EXPECT_LT(std::abs(sim), 0.35);  // Hash collisions allow small overlap.
}

TEST(TextEmbedderTest, RepeatedTokensWeightSubLinearly) {
  HashedTextEmbedder embedder(256);
  const double once = embedder.Similarity("unique common", "common");
  const double many =
      embedder.Similarity("unique common common common common", "common");
  EXPECT_GT(many, once);  // More mass on "common"...
  EXPECT_LT(many, 1.0);   // ...but not total domination.
}

}  // namespace
}  // namespace tps
