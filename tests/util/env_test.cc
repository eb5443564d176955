#include "util/env.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "util/fault_env.h"

namespace tps {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string ReadAll(Env* env, const std::string& path) {
  auto size = env->FileSize(path);
  EXPECT_TRUE(size.ok()) << size.status().ToString();
  auto file = env->NewSequentialFile(path);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  std::string bytes(static_cast<size_t>(*size), '\0');
  auto got = ReadFully(file->get(), bytes.size(), bytes.data());
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, bytes.size());
  return bytes;
}

TEST(PosixEnvTest, AppendableFileWritesAndAppends) {
  Env* env = Env::Default();
  const std::string path = TempPath("env_append.bin");
  {
    auto file = std::move(env->NewAppendableFile(path)).value();
    ASSERT_TRUE(file->Append("hello ").ok());
    ASSERT_TRUE(file->Append("world").ok());
    ASSERT_TRUE(file->Flush().ok());
  }
  // A second appendable handle continues at the end.
  {
    auto file = std::move(env->NewAppendableFile(path)).value();
    ASSERT_TRUE(file->Append("!").ok());
    ASSERT_TRUE(file->Flush().ok());
  }
  EXPECT_EQ(ReadAll(env, path), "hello world!");
  EXPECT_EQ(*env->FileSize(path), 12u);
  EXPECT_TRUE(env->FileExists(path));
}

TEST(PosixEnvTest, TruncatedFileDiscardsOldContents) {
  Env* env = Env::Default();
  const std::string path = TempPath("env_trunc.bin");
  {
    auto file = std::move(env->NewAppendableFile(path)).value();
    ASSERT_TRUE(file->Append("old contents").ok());
    ASSERT_TRUE(file->Flush().ok());
  }
  {
    auto file = std::move(env->NewTruncatedFile(path)).value();
    ASSERT_TRUE(file->Append("new").ok());
    ASSERT_TRUE(file->Flush().ok());
  }
  EXPECT_EQ(ReadAll(env, path), "new");
}

TEST(PosixEnvTest, TruncateFileShrinksToExactSize) {
  Env* env = Env::Default();
  const std::string path = TempPath("env_shrink.bin");
  {
    auto file = std::move(env->NewAppendableFile(path)).value();
    ASSERT_TRUE(file->Append("0123456789").ok());
    ASSERT_TRUE(file->Flush().ok());
  }
  ASSERT_TRUE(env->TruncateFile(path, 4).ok());
  EXPECT_EQ(ReadAll(env, path), "0123");
  // Appending after a truncate lands at the new end.
  {
    auto file = std::move(env->NewAppendableFile(path)).value();
    ASSERT_TRUE(file->Append("X").ok());
    ASSERT_TRUE(file->Flush().ok());
  }
  EXPECT_EQ(ReadAll(env, path), "0123X");
}

TEST(PosixEnvTest, RenameReplacesTarget) {
  Env* env = Env::Default();
  const std::string from = TempPath("env_rename_from.bin");
  const std::string to = TempPath("env_rename_to.bin");
  for (const auto& [path, text] : {std::pair{from, "source"},
                                   std::pair{to, "target"}}) {
    auto file = std::move(env->NewTruncatedFile(path)).value();
    ASSERT_TRUE(file->Append(text).ok());
    ASSERT_TRUE(file->Flush().ok());
  }
  ASSERT_TRUE(env->RenameFile(from, to).ok());
  EXPECT_FALSE(env->FileExists(from));
  EXPECT_EQ(ReadAll(env, to), "source");
}

TEST(PosixEnvTest, RemoveFileDeletes) {
  Env* env = Env::Default();
  const std::string path = TempPath("env_remove.bin");
  {
    auto file = std::move(env->NewTruncatedFile(path)).value();
    ASSERT_TRUE(file->Append("x").ok());
  }
  ASSERT_TRUE(env->RemoveFile(path).ok());
  EXPECT_FALSE(env->FileExists(path));
  EXPECT_TRUE(env->RemoveFile(path).IsIOError());  // Already gone.
}

TEST(PosixEnvTest, MissingFileErrors) {
  Env* env = Env::Default();
  const std::string path = TempPath("env_missing.bin");
  EXPECT_FALSE(env->FileExists(path));
  EXPECT_TRUE(env->NewSequentialFile(path).status().IsIOError());
  EXPECT_TRUE(env->FileSize(path).status().IsIOError());
  EXPECT_TRUE(env->RenameFile(path, path + ".x").IsIOError());
}

TEST(FaultEnvTest, FailNthWriteLeavesNoBytes) {
  FaultInjectingEnv env(Env::Default());
  const std::string path = TempPath("fault_fail.bin");
  env.FailWrite(2);
  auto file = std::move(env.NewAppendableFile(path)).value();
  ASSERT_TRUE(file->Append("first").ok());
  ASSERT_TRUE(file->Flush().ok());
  Status failed = file->Append("second");
  EXPECT_TRUE(failed.IsIOError());
  EXPECT_EQ(ReadAll(&env, path), "first");
  EXPECT_EQ(env.writes_seen(), 2u);
  // Fault is one-shot: the 3rd write goes through.
  ASSERT_TRUE(file->Append("third").ok());
  ASSERT_TRUE(file->Flush().ok());
  EXPECT_EQ(ReadAll(&env, path), "firstthird");
}

TEST(FaultEnvTest, TornWriteKeepsExactPrefix) {
  FaultInjectingEnv env(Env::Default());
  const std::string path = TempPath("fault_tear.bin");
  env.TearWrite(1, 3);
  auto file = std::move(env.NewAppendableFile(path)).value();
  EXPECT_TRUE(file->Append("abcdefgh").IsIOError());
  EXPECT_EQ(ReadAll(&env, path), "abc");
}

TEST(FaultEnvTest, TornWriteCountsAcrossFiles) {
  FaultInjectingEnv env(Env::Default());
  const std::string a = TempPath("fault_multi_a.bin");
  const std::string b = TempPath("fault_multi_b.bin");
  env.TearWrite(3, 1);
  auto file_a = std::move(env.NewAppendableFile(a)).value();
  auto file_b = std::move(env.NewTruncatedFile(b)).value();
  ASSERT_TRUE(file_a->Append("one").ok());
  ASSERT_TRUE(file_b->Append("two").ok());
  ASSERT_TRUE(file_a->Flush().ok());
  ASSERT_TRUE(file_b->Flush().ok());
  EXPECT_TRUE(file_b->Append("XYZ").IsIOError());  // 3rd write overall.
  EXPECT_EQ(ReadAll(&env, a), "one");
  EXPECT_EQ(ReadAll(&env, b), "twoX");
}

TEST(FaultEnvTest, FailRenamesIsCountedAndExpires) {
  FaultInjectingEnv env(Env::Default());
  const std::string from = TempPath("fault_ren_from.bin");
  const std::string to = TempPath("fault_ren_to.bin");
  {
    auto file = std::move(env.NewTruncatedFile(from)).value();
    ASSERT_TRUE(file->Append("data").ok());
  }
  env.FailRenames(1);
  EXPECT_TRUE(env.RenameFile(from, to).IsIOError());
  EXPECT_TRUE(env.FileExists(from));  // Nothing moved.
  EXPECT_TRUE(env.RenameFile(from, to).ok());  // Second attempt passes.
  EXPECT_EQ(env.renames_seen(), 2u);
}

TEST(FaultEnvTest, ShortReadsAreLoopedOverByReadFully) {
  FaultInjectingEnv env(Env::Default());
  const std::string path = TempPath("fault_short_read.bin");
  {
    auto file = std::move(env.NewTruncatedFile(path)).value();
    ASSERT_TRUE(file->Append("0123456789").ok());
  }
  env.SetMaxReadChunk(3);
  auto file = std::move(env.NewSequentialFile(path)).value();
  char buffer[10];
  // A raw Read is capped at the chunk size...
  auto got = file->Read(10, buffer);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 3u);
  // ...but ReadFully keeps going until it has everything.
  auto rest = ReadFully(file.get(), 7, buffer + 3);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(*rest, 7u);
  EXPECT_EQ(std::string(buffer, 10), "0123456789");
}

TEST(FaultEnvTest, ResetDisarmsEverything) {
  FaultInjectingEnv env(Env::Default());
  const std::string path = TempPath("fault_reset.bin");
  env.FailWrite(1);
  env.FailRenames(5);
  env.SetMaxReadChunk(1);
  env.Reset();
  auto file = std::move(env.NewTruncatedFile(path)).value();
  EXPECT_TRUE(file->Append("fine").ok());
  EXPECT_EQ(env.writes_seen(), 1u);
}

}  // namespace
}  // namespace tps
