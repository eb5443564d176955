// ServiceArtifacts::Load reads the model store without writing it: a
// mistyped store path creates no file, and a torn tail (a record a writer
// is still appending) is read past, not truncated.

#include "serve/artifacts.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "store/model_store.h"

namespace tps {
namespace serve {
namespace {

class ArtifactsLoadTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    built_ = new ServiceArtifacts(*ServiceArtifacts::Build(TaskDomain::kNLP));
  }

  static std::string TempPath(const std::string& name) {
    const std::string path = testing::TempDir() + "/tps_artifacts_" + name;
    std::remove(path.c_str());
    return path;
  }

  /// A store holding the built NLP matrix and clustering under "nlp".
  static std::string WriteStore(const std::string& name) {
    const std::string path = TempPath(name);
    auto store = ModelStore::Open(path);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(store->PutPerformanceMatrix("nlp", built_->matrix).ok());
    EXPECT_TRUE(store->PutClustering("nlp", built_->clustering).ok());
    return path;
  }

  static ArtifactPaths StorePaths(const std::string& store) {
    ArtifactPaths paths;
    paths.domain = TaskDomain::kNLP;
    paths.store = store;
    return paths;
  }

  static ServiceArtifacts* built_;
};

ServiceArtifacts* ArtifactsLoadTest::built_ = nullptr;

TEST_F(ArtifactsLoadTest, MissingStoreIsNotFoundAndCreatesNoFile) {
  const std::string path = TempPath("missing.log");
  auto loaded = ServiceArtifacts::Load(StorePaths(path));
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ArtifactsLoadTest, TornTailIsReadPastAndLeftOnDisk) {
  const std::string path = WriteStore("torn.log");
  // Stray bytes after the last whole record: a writer mid-append.
  std::ofstream(path, std::ios::binary | std::ios::app) << "half-record";
  const auto size = std::filesystem::file_size(path);

  auto loaded = ServiceArtifacts::Load(StorePaths(path));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->matrix.Serialize(), built_->matrix.Serialize());
  EXPECT_EQ(std::filesystem::file_size(path), size);
}

}  // namespace
}  // namespace serve
}  // namespace tps
