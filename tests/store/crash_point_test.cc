// Crash-point property tests for the KvStore: simulate a crash at EVERY
// byte of a realistic mutation log (puts, overwrites, deletes, a
// compaction, binary values) and assert the three recovery invariants:
//
//   1. Open never fails on a torn log — it recovers the durable prefix;
//   2. the recovered table equals a replay of exactly the records that
//      were fully on disk at the crash point;
//   3. writes issued after recovery survive the next replay (regression
//      test for the torn-tail data-loss bug, where appends landed behind
//      corrupt bytes and were silently discarded).
//
// Plus fault-injection scenarios (torn Put, failed compaction rename and
// compaction write) via FaultInjectingEnv.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/kv_store.h"
#include "store/record_log.h"
#include "util/fault_env.h"

namespace tps {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string ReadBytes(const std::string& path) {
  auto size = *Env::Default()->FileSize(path);
  auto file = std::move(Env::Default()->NewSequentialFile(path)).value();
  std::string bytes(static_cast<size_t>(size), '\0');
  EXPECT_EQ(*ReadFully(file.get(), bytes.size(), bytes.data()),
            bytes.size());
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  auto file = std::move(Env::Default()->NewTruncatedFile(path)).value();
  ASSERT_TRUE(file->Append(bytes).ok());
  ASSERT_TRUE(file->Flush().ok());
}

/// Test-side decoder for the documented mutation payload layout
/// [op][u32 key length LE][key][value...] — deliberately independent of
/// the store's own decoder.
struct Mutation {
  char op;
  std::string key;
  std::string value;
};

Mutation DecodeForTest(const std::string& payload) {
  EXPECT_GE(payload.size(), 5u);
  uint32_t key_length = 0;
  for (int i = 3; i >= 0; --i) {
    key_length = (key_length << 8) |
                 static_cast<uint8_t>(payload[1 + static_cast<size_t>(i)]);
  }
  EXPECT_LE(uint64_t{5} + key_length, payload.size());
  return Mutation{payload[0], payload.substr(5, key_length),
                  payload.substr(5 + key_length)};
}

void ApplyForTest(const Mutation& m,
                  std::map<std::string, std::string>* table) {
  if (m.op == 'P') {
    (*table)[m.key] = m.value;
  } else {
    ASSERT_EQ(m.op, 'D');
    table->erase(m.key);
  }
}

TEST(CrashPointTest, EveryBytePrefixRecoversTheDurablePrefix) {
  // Build a log that exercises every mutation shape the store emits.
  const std::string source = TempPath("crash_source.log");
  {
    auto store = std::move(KvStore::Open(source)).value();
    ASSERT_TRUE(store.Put("alpha", "1").ok());
    ASSERT_TRUE(store.Put("beta", "2").ok());
    ASSERT_TRUE(store.Put("gamma", "3").ok());
    ASSERT_TRUE(store.Put("beta", "overwritten").ok());
    ASSERT_TRUE(store.Put("alpha", "overwritten").ok());
    ASSERT_TRUE(store.Compact().ok());
    ASSERT_TRUE(store.Put("delta", "4").ok());
    std::string binary = "bin";
    binary.push_back('\0');
    binary += "\xFF\n";
    ASSERT_TRUE(store.Put("binary-value", binary).ok());
    ASSERT_TRUE(store.Put("gamma", "overwritten").ok());
    ASSERT_TRUE(store.Put("epsilon", "5").ok());
  }
  const std::string bytes = ReadBytes(source);

  // Record boundaries + the expected table after each whole record.
  auto contents = *ReadRecordLog(source);
  ASSERT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.valid_prefix_bytes, bytes.size());
  std::vector<uint64_t> record_ends;
  std::vector<std::map<std::string, std::string>> state_after;
  state_after.emplace_back();  // Zero records = empty table.
  uint64_t offset = 0;
  for (const std::string& record : contents.records) {
    offset += 8 + record.size();
    record_ends.push_back(offset);
    auto next = state_after.back();
    ApplyForTest(DecodeForTest(record), &next);
    state_after.push_back(std::move(next));
  }
  ASSERT_EQ(offset, bytes.size());
  ASSERT_GE(record_ends.size(), 6u);  // The workload really is multi-record.

  const std::string crash = TempPath("crash_prefix.log");
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("crash at byte " + std::to_string(cut));
    WriteBytes(crash, bytes.substr(0, cut));

    // Durable records = those wholly on disk at the crash point.
    size_t durable = 0;
    while (durable < record_ends.size() && record_ends[durable] <= cut) {
      ++durable;
    }
    const auto& expected = state_after[durable];
    const uint64_t valid_bytes = durable == 0 ? 0 : record_ends[durable - 1];

    {
      auto store_or = KvStore::Open(crash);
      // Never throws or fails.
      ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
      KvStore store = std::move(store_or).value();
      ASSERT_EQ(store.size(), expected.size());
      for (const auto& [key, value] : expected) {
        ASSERT_EQ(*store.Get(key), value);
      }
      const RecoveryStats& stats = store.recovery_stats();
      EXPECT_EQ(stats.records_replayed, durable);
      EXPECT_EQ(stats.valid_prefix_bytes, valid_bytes);
      EXPECT_EQ(stats.bytes_truncated, cut - valid_bytes);
      EXPECT_EQ(stats.tail_was_torn, cut != valid_bytes);
      // The write-after-recovery half of the torn-tail regression.
      ASSERT_TRUE(store.Put("crash-probe", std::to_string(cut)).ok());
    }
    {
      auto reopened = std::move(KvStore::Open(crash)).value();
      EXPECT_FALSE(reopened.recovery_stats().tail_was_torn);
      ASSERT_EQ(*reopened.Get("crash-probe"), std::to_string(cut));
      ASSERT_EQ(reopened.size(), expected.size() + 1);
      for (const auto& [key, value] : expected) {
        ASSERT_EQ(*reopened.Get(key), value);
      }
    }
  }
}

TEST(CrashPointTest, OverflowedKeyLengthIsAStatusNotACrash) {
  // A CRC-valid record whose payload declares key_length = UINT32_MAX:
  // `5 + key_length` wraps in 32-bit arithmetic, so the unfixed decoder
  // accepted the record and overran/misparsed the payload.
  const std::string path = TempPath("crash_overflow_keylen.log");
  {
    auto writer = std::move(RecordLogWriter::Open(path)).value();
    ASSERT_TRUE(writer.Append(
        std::string("P\xFF\xFF\xFF\xFF", 5) + "abc").ok());
  }
  auto store_or = KvStore::Open(path);
  ASSERT_FALSE(store_or.ok());
  EXPECT_TRUE(store_or.status().IsInternal());
}

TEST(CrashPointTest, TornPutRecoversAndLaterWritesSurvive) {
  FaultInjectingEnv env(Env::Default());
  const std::string path = TempPath("crash_torn_put.log");
  {
    auto store = std::move(KvStore::Open(path, &env)).value();
    ASSERT_TRUE(store.Put("durable", "yes").ok());
    env.TearWrite(env.writes_seen() + 1, 7);  // Tear mid-record.
    EXPECT_TRUE(store.Put("torn", "lost").IsIOError());
  }
  env.Reset();
  {
    auto store = std::move(KvStore::Open(path, &env)).value();
    EXPECT_TRUE(store.recovery_stats().tail_was_torn);
    EXPECT_EQ(store.recovery_stats().bytes_truncated, 7u);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(*store.Get("durable"), "yes");
    EXPECT_TRUE(store.Get("torn").status().IsNotFound());
    ASSERT_TRUE(store.Put("after-recovery", "kept").ok());
  }
  auto store = std::move(KvStore::Open(path, &env)).value();
  EXPECT_FALSE(store.recovery_stats().tail_was_torn);
  EXPECT_EQ(*store.Get("durable"), "yes");
  EXPECT_EQ(*store.Get("after-recovery"), "kept");
}

TEST(CrashPointTest, CompactionRenameFailureKeepsStoreUsable) {
  FaultInjectingEnv env(Env::Default());
  const std::string path = TempPath("crash_compact_rename.log");
  auto store = std::move(KvStore::Open(path, &env)).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Put("churn", std::string("v") + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store.Put("keep", "forever").ok());

  env.FailRenames(1);
  EXPECT_TRUE(store.Compact().IsIOError());
  EXPECT_FALSE(env.FileExists(path + ".compact"));  // Temp cleaned up.

  // The store stays fully usable on the old (uncompacted) log.
  EXPECT_EQ(*store.Get("keep"), "forever");
  ASSERT_TRUE(store.Put("post-failure", "ok").ok());
  auto reopened = std::move(KvStore::Open(path, &env)).value();
  EXPECT_EQ(*reopened.Get("keep"), "forever");
  EXPECT_EQ(*reopened.Get("churn"), "v9");
  EXPECT_EQ(*reopened.Get("post-failure"), "ok");
  // And a retried compaction succeeds.
  ASSERT_TRUE(reopened.Compact().ok());
  EXPECT_EQ(reopened.log_records(), 3u);
}

TEST(CrashPointTest, CompactionWriteFailureKeepsOldLog) {
  FaultInjectingEnv env(Env::Default());
  const std::string path = TempPath("crash_compact_write.log");
  auto store = std::move(KvStore::Open(path, &env)).value();
  ASSERT_TRUE(store.Put("a", "1").ok());
  ASSERT_TRUE(store.Put("b", "2").ok());

  env.FailWrite(env.writes_seen() + 2);  // Second record of the rewrite.
  EXPECT_TRUE(store.Compact().IsIOError());
  EXPECT_FALSE(env.FileExists(path + ".compact"));

  EXPECT_EQ(*store.Get("a"), "1");
  EXPECT_EQ(*store.Get("b"), "2");
  ASSERT_TRUE(store.Put("c", "3").ok());
  auto reopened = std::move(KvStore::Open(path, &env)).value();
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(*reopened.Get("c"), "3");
}

}  // namespace
}  // namespace tps
