#include "store/kv_store.h"

#include <cstdio>
#include <fstream>
#include <map>

#include <gtest/gtest.h>

#include "store/record_log.h"
#include "util/rng.h"

namespace tps {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(KvStoreTest, PutGetAndMissingKey) {
  auto store = std::move(KvStore::Open(TempPath("kv_basic.log"))).value();
  ASSERT_TRUE(store.Put("alpha", "1").ok());
  ASSERT_TRUE(store.Put("beta", "2").ok());
  EXPECT_EQ(*store.Get("alpha"), "1");
  EXPECT_EQ(*store.Get("beta"), "2");
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Get("gamma").status().IsNotFound());
}

TEST(KvStoreTest, LogWithADeleteRecordFailsToOpen) {
  // Stores once logged deletes as 'D' records; no writer emits one now, so
  // replay refuses the op instead of guessing at it.
  const std::string path = TempPath("kv_delete_op.log");
  {
    auto store = std::move(KvStore::Open(path)).value();
    ASSERT_TRUE(store.Put("alpha", "1").ok());
  }
  {
    auto writer = std::move(RecordLogWriter::Open(path)).value();
    // [op][u32 key length LE][key], as the put records are framed.
    ASSERT_TRUE(writer.Append(std::string("D\x05\0\0\0alpha", 10)).ok());
  }
  for (const bool read_only : {false, true}) {
    const auto store =
        read_only ? KvStore::OpenReadOnly(path) : KvStore::Open(path);
    EXPECT_FALSE(store.ok()) << read_only;
    EXPECT_EQ(store.status().message(), "unknown mutation op in log")
        << store.status().ToString();
  }
}

TEST(KvStoreTest, OverwriteKeepsLatestValue) {
  auto store = std::move(KvStore::Open(TempPath("kv_overwrite.log"))).value();
  ASSERT_TRUE(store.Put("key", "v1").ok());
  ASSERT_TRUE(store.Put("key", "v2").ok());
  EXPECT_EQ(*store.Get("key"), "v2");
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreTest, EmptyKeyRejected) {
  auto store = std::move(KvStore::Open(TempPath("kv_emptykey.log"))).value();
  EXPECT_TRUE(store.Put("", "v").IsInvalidArgument());
}

TEST(KvStoreTest, ValuesMayContainBinaryData) {
  auto store = std::move(KvStore::Open(TempPath("kv_binary.log"))).value();
  std::string value = "a";
  value.push_back('\0');
  value += "\n\tb";
  ASSERT_TRUE(store.Put("bin", value).ok());
  EXPECT_EQ(*store.Get("bin"), value);
}

TEST(KvStoreTest, PersistsAcrossReopen) {
  const std::string path = TempPath("kv_reopen.log");
  {
    auto store = std::move(KvStore::Open(path)).value();
    ASSERT_TRUE(store.Put("a", "1").ok());
    ASSERT_TRUE(store.Put("b", "2").ok());
    ASSERT_TRUE(store.Put("a", "10").ok());
    ASSERT_TRUE(store.Put("c", "3").ok());
  }
  auto store = std::move(KvStore::Open(path)).value();
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(*store.Get("a"), "10");
  EXPECT_EQ(*store.Get("b"), "2");
  EXPECT_EQ(*store.Get("c"), "3");
}

TEST(KvStoreTest, ScanPrefixIsSortedAndBounded) {
  auto store = std::move(KvStore::Open(TempPath("kv_scan.log"))).value();
  for (const char* key : {"model/b", "model/a", "dataset/x", "model/c",
                          "modelz"}) {
    ASSERT_TRUE(store.Put(key, "v").ok());
  }
  EXPECT_EQ(store.ScanPrefix("model/"),
            (std::vector<std::string>{"model/a", "model/b", "model/c"}));
  EXPECT_EQ(store.ScanPrefix("nothing/").size(), 0u);
  EXPECT_EQ(store.ScanPrefix("").size(), 5u);  // Empty prefix = everything.
}

TEST(KvStoreTest, CompactionShrinksLogAndPreservesContents) {
  const std::string path = TempPath("kv_compact.log");
  auto store = std::move(KvStore::Open(path)).value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Put("churn", std::string("v") + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store.Put("keep", "forever").ok());
  EXPECT_EQ(store.log_records(), 51u);

  ASSERT_TRUE(store.Compact().ok());
  EXPECT_EQ(store.log_records(), 2u);  // Only the live values remain.
  EXPECT_EQ(*store.Get("churn"), "v49");
  EXPECT_EQ(*store.Get("keep"), "forever");

  // The compacted log replays correctly.
  auto reopened = std::move(KvStore::Open(path)).value();
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(*reopened.Get("churn"), "v49");
  EXPECT_EQ(*reopened.Get("keep"), "forever");
}

TEST(KvStoreTest, WritesAfterCompactionSurviveReopen) {
  const std::string path = TempPath("kv_compact_append.log");
  {
    auto store = std::move(KvStore::Open(path)).value();
    ASSERT_TRUE(store.Put("a", "1").ok());
    ASSERT_TRUE(store.Compact().ok());
    ASSERT_TRUE(store.Put("b", "2").ok());
  }
  auto store = std::move(KvStore::Open(path)).value();
  EXPECT_EQ(*store.Get("a"), "1");
  EXPECT_EQ(*store.Get("b"), "2");
}

TEST(KvStoreTest, TornTailIsTruncatedSoPostRecoveryWritesSurvive) {
  // Regression test for the torn-tail data-loss bug: Open used to reopen
  // the log for append WITHOUT truncating a detected torn tail, so every
  // post-recovery append sat behind corrupt bytes and was silently
  // discarded by the next replay.
  const std::string path = TempPath("kv_torn_tail.log");
  {
    auto store = std::move(KvStore::Open(path)).value();
    ASSERT_TRUE(store.Put("survivor", "intact").ok());
    ASSERT_TRUE(store.Put("victim", "will be torn").ok());
  }
  // Chop a few bytes off the end (crash mid-append of the second record).
  std::string bytes = ReadAll(path);
  bytes.resize(bytes.size() - 3);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();

  {
    auto store = std::move(KvStore::Open(path)).value();
    EXPECT_TRUE(store.recovery_stats().tail_was_torn);
    // The whole torn record (8 header + 5 op/keylen + 6 key + 12 value)
    // minus the 3 chopped bytes.
    EXPECT_EQ(store.recovery_stats().bytes_truncated, 8u + 23u - 3u);
    EXPECT_EQ(store.recovery_stats().records_replayed, 1u);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.Get("victim").status().IsNotFound());
    ASSERT_TRUE(store.Put("after-crash", "must survive").ok());
  }
  auto store = std::move(KvStore::Open(path)).value();
  EXPECT_FALSE(store.recovery_stats().tail_was_torn);
  EXPECT_EQ(*store.Get("survivor"), "intact");
  EXPECT_EQ(*store.Get("after-crash"), "must survive");
  EXPECT_EQ(store.size(), 2u);
}

TEST(KvStoreTest, ReadOnlyOpenOfMissingLogCreatesNothing) {
  const std::string path = TempPath("kv_read_only_missing.log");
  auto store = KvStore::OpenReadOnly(path);
  EXPECT_TRUE(store.status().IsNotFound()) << store.status().ToString();
  EXPECT_NE(store.status().message().find(path), std::string::npos);
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(KvStoreTest, ReadOnlyOpenLeavesTornTailAndRejectsWrites) {
  const std::string path = TempPath("kv_read_only_torn.log");
  {
    auto store = std::move(KvStore::Open(path)).value();
    ASSERT_TRUE(store.Put("kept", "intact").ok());
  }
  // A writer mid-append: stray bytes after the last whole record.
  std::ofstream(path, std::ios::binary | std::ios::app) << "torn";
  const std::string before = ReadAll(path);

  auto store = std::move(KvStore::OpenReadOnly(path)).value();
  EXPECT_EQ(*store.Get("kept"), "intact");
  EXPECT_TRUE(store.recovery_stats().tail_was_torn);
  EXPECT_EQ(store.recovery_stats().bytes_truncated, 0u);
  EXPECT_TRUE(store.Put("new", "value").IsFailedPrecondition());
  EXPECT_TRUE(store.Compact().IsFailedPrecondition());
  EXPECT_EQ(ReadAll(path), before);
}

TEST(KvStoreTest, RandomOpsMatchReferenceModel) {
  // Property test: a random Put/Compact/Reopen workload agrees with
  // std::map at every step.
  const std::string path = TempPath("kv_model_check.log");
  auto store_or = KvStore::Open(path);
  ASSERT_TRUE(store_or.ok());
  KvStore store = std::move(store_or).value();
  std::map<std::string, std::string> reference;
  Rng rng(2026);

  for (int op = 0; op < 2000; ++op) {
    const std::string key =
        std::string("k") + std::to_string(rng.UniformInt(uint64_t{40}));
    const double dice = rng.Uniform();
    if (dice < 0.85) {
      const std::string value = std::string("v") + std::to_string(op);
      ASSERT_TRUE(store.Put(key, value).ok());
      reference[key] = value;
    } else if (dice < 0.95) {
      ASSERT_TRUE(store.Compact().ok());
    } else {
      // Reopen from disk (crash-free restart).
      auto reopened = KvStore::Open(path);
      ASSERT_TRUE(reopened.ok());
      store = std::move(reopened).value();
    }
    if (op % 100 == 0) {
      ASSERT_EQ(store.size(), reference.size()) << "op " << op;
      for (const auto& [k, v] : reference) {
        ASSERT_EQ(*store.Get(k), v) << "op " << op << " key " << k;
      }
    }
  }
  EXPECT_EQ(store.size(), reference.size());
}

}  // namespace
}  // namespace tps
