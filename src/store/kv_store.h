#ifndef TPS_STORE_KV_STORE_H_
#define TPS_STORE_KV_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "store/record_log.h"
#include "util/env.h"
#include "util/statusor.h"

namespace tps {

/// What Open() found and did while replaying the log — surfaced so
/// operators (and the crash-point tests) can observe recovery instead of
/// having it happen silently.
struct RecoveryStats {
  /// Mutation records replayed into the table.
  uint64_t records_replayed = 0;
  /// Byte offset of the end of the last valid record (the log's size
  /// after recovery).
  uint64_t valid_prefix_bytes = 0;
  /// Torn/corrupt tail bytes dropped by truncation (0 on a clean or a
  /// read-only open).
  uint64_t bytes_truncated = 0;
  /// True when the log ended in a torn or corrupt record.
  bool tail_was_torn = false;

  /// One-line human-readable summary, e.g.
  /// "replayed 12 records (96 valid bytes), torn tail: truncated 5 bytes"
  /// ("torn tail: left on disk" after a read-only open).
  std::string ToString() const;
};

/// Log-structured key-value store: the persistence layer of the model
/// store (the paper's future-work item 3 — an OLML-style system that
/// "stores and maintains the pre-trained models and datasets").
///
/// Design (a deliberately small cousin of the RocksDB WAL+memtable pair):
///  - every mutation is appended to a checksummed record log;
///  - the full key space lives in an in-memory ordered map;
///  - Open() rebuilds the map by replaying the log, truncates any torn
///    tail to the last valid record, and only then reopens the log for
///    append — so post-recovery writes land on a clean boundary and
///    survive the next replay (crash safety);
///  - Compact() rewrites the log with only live entries and atomically
///    swaps it in, reclaiming space from overwrites and deletes;
///  - OpenReadOnly() replays the log with no writer: it never creates,
///    truncates or appends to the file, so readers can load a store that
///    a writer may still be appending to.
///
/// Keys and values are arbitrary byte strings (values may contain \0).
/// Single-threaded by design; callers serialize access. All file access
/// goes through `Env`, so tests can inject faults at any byte.
class KvStore {
 public:
  /// Opens (or creates) the store at `path`, replaying the existing log.
  /// `env` must outlive the store.
  static StatusOr<KvStore> Open(const std::string& path,
                                Env* env = Env::Default());

  /// Replays the log at `path` without opening it for writing. A missing
  /// file is NotFound and nothing is created; a torn tail is read up to
  /// its valid prefix and left on disk (`recovery_stats().tail_was_torn`
  /// reports it, `bytes_truncated` stays 0). Put, Delete and Compact on
  /// the returned store are FailedPrecondition.
  static StatusOr<KvStore> OpenReadOnly(const std::string& path,
                                        Env* env = Env::Default());

  KvStore(KvStore&&) = default;
  KvStore& operator=(KvStore&&) = default;
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Inserts or overwrites. Keys must be non-empty.
  Status Put(const std::string& key, const std::string& value);

  /// Value for `key`, or NotFound.
  StatusOr<std::string> Get(const std::string& key) const;

  /// Removes `key`; idempotent (deleting an absent key is OK).
  Status Delete(const std::string& key);

  bool Contains(const std::string& key) const;

  /// All keys with the given prefix, in lexicographic order.
  std::vector<std::string> ScanPrefix(const std::string& prefix) const;

  /// Number of live keys.
  size_t size() const { return table_.size(); }

  /// Log records written since Open (live + dead); drives compaction
  /// policy.
  size_t log_records() const { return log_records_; }

  /// What the open replayed and truncated.
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Rewrites the log with only live entries (atomic rename swap).
  Status Compact();

  const std::string& path() const { return path_; }

 private:
  KvStore(std::string path, Env* env)
      : path_(std::move(path)), env_(env) {}

  /// Rebuilds the table from a read log and records what it replayed.
  Status Replay(const RecordLogContents& contents);
  /// FailedPrecondition on a store opened read-only.
  Status CheckWritable() const;
  Status AppendMutation(char op, const std::string& key,
                        const std::string& value);

  std::string path_;
  Env* env_ = nullptr;
  std::map<std::string, std::string> table_;
  std::unique_ptr<RecordLogWriter> log_;  // Null when read-only.
  size_t log_records_ = 0;
  RecoveryStats recovery_stats_;
};

}  // namespace tps

#endif  // TPS_STORE_KV_STORE_H_
