#include "store/kv_store.h"

#include "util/metrics.h"

namespace tps {

namespace {

constexpr char kOpPut = 'P';
constexpr char kOpDelete = 'D';

/// Mutation payload: [op][u32 key length LE][key][value...].
std::string EncodeMutation(char op, const std::string& key,
                           const std::string& value) {
  std::string payload;
  payload.reserve(5 + key.size() + value.size());
  payload.push_back(op);
  const uint32_t key_length = static_cast<uint32_t>(key.size());
  payload.push_back(static_cast<char>(key_length & 0xFF));
  payload.push_back(static_cast<char>((key_length >> 8) & 0xFF));
  payload.push_back(static_cast<char>((key_length >> 16) & 0xFF));
  payload.push_back(static_cast<char>((key_length >> 24) & 0xFF));
  payload += key;
  payload += value;
  return payload;
}

Status DecodeMutation(const std::string& payload, char* op,
                      std::string* key, std::string* value) {
  if (payload.size() < 5) {
    return Status::Internal("mutation record too short");
  }
  *op = payload[0];
  const uint32_t key_length =
      static_cast<uint32_t>(static_cast<uint8_t>(payload[1])) |
      (static_cast<uint32_t>(static_cast<uint8_t>(payload[2])) << 8) |
      (static_cast<uint32_t>(static_cast<uint8_t>(payload[3])) << 16) |
      (static_cast<uint32_t>(static_cast<uint8_t>(payload[4])) << 24);
  // 64-bit arithmetic: `5 + key_length` wraps for key_length near
  // UINT32_MAX on 32-bit size_t, letting a corrupt record overrun the
  // payload and throw from substr.
  if (static_cast<uint64_t>(payload.size()) <
      uint64_t{5} + static_cast<uint64_t>(key_length)) {
    return Status::Internal("mutation record key overruns payload");
  }
  *key = payload.substr(5, key_length);
  *value = payload.substr(5 + static_cast<size_t>(key_length));
  return Status::OK();
}

}  // namespace

std::string RecoveryStats::ToString() const {
  std::string out = "replayed " + std::to_string(records_replayed) +
                    " records (" + std::to_string(valid_prefix_bytes) +
                    " valid bytes)";
  if (tail_was_torn && bytes_truncated > 0) {
    out += ", torn tail: truncated " + std::to_string(bytes_truncated) +
           " bytes";
  } else if (tail_was_torn) {
    out += ", torn tail: left on disk (read-only open)";
  } else {
    out += ", clean tail";
  }
  return out;
}

Status KvStore::Replay(const RecordLogContents& contents) {
  for (const std::string& record : contents.records) {
    char op = 0;
    std::string key, value;
    TPS_RETURN_NOT_OK(DecodeMutation(record, &op, &key, &value));
    if (op == kOpPut) {
      table_[key] = std::move(value);
    } else if (op == kOpDelete) {
      table_.erase(key);
    } else {
      return Status::Internal("unknown mutation op in log");
    }
    ++log_records_;
  }
  recovery_stats_.records_replayed = contents.records.size();
  recovery_stats_.valid_prefix_bytes = contents.valid_prefix_bytes;
  recovery_stats_.tail_was_torn = contents.truncated_tail;
  MetricsRegistry& metrics = *MetricsRegistry::Default();
  metrics.counter("store.opens").Increment();
  metrics.counter("store.records_replayed")
      .Increment(recovery_stats_.records_replayed);
  return Status::OK();
}

StatusOr<KvStore> KvStore::Open(const std::string& path, Env* env) {
  KvStore store(path, env);

  // Replay an existing log; a missing file just means a fresh store.
  RecordLogContents contents;
  if (env->FileExists(path)) {
    TPS_ASSIGN_OR_RETURN(contents, ReadRecordLog(path, env));
  }
  TPS_RETURN_NOT_OK(store.Replay(contents));
  if (contents.truncated_tail) {
    // Drop the torn tail before reopening for append. Without this,
    // records appended after recovery sit behind the corrupt bytes and
    // are silently discarded by the next replay.
    TPS_ASSIGN_OR_RETURN(uint64_t file_size, env->FileSize(path));
    store.recovery_stats_.bytes_truncated =
        file_size - contents.valid_prefix_bytes;
    TPS_RETURN_NOT_OK(env->TruncateFile(path, contents.valid_prefix_bytes));
    MetricsRegistry& metrics = *MetricsRegistry::Default();
    metrics.counter("store.torn_tails_recovered").Increment();
    metrics.counter("store.bytes_truncated")
        .Increment(store.recovery_stats_.bytes_truncated);
  }

  TPS_ASSIGN_OR_RETURN(RecordLogWriter writer,
                       RecordLogWriter::Open(path, env));
  store.log_ = std::make_unique<RecordLogWriter>(std::move(writer));
  return store;
}

StatusOr<KvStore> KvStore::OpenReadOnly(const std::string& path, Env* env) {
  if (!env->FileExists(path)) {
    return Status::NotFound("no store at " + path);
  }
  KvStore store(path, env);
  TPS_ASSIGN_OR_RETURN(RecordLogContents contents, ReadRecordLog(path, env));
  TPS_RETURN_NOT_OK(store.Replay(contents));
  return store;
}

Status KvStore::CheckWritable() const {
  if (log_ != nullptr) return Status::OK();
  return Status::FailedPrecondition("store opened read-only: " + path_);
}

Status KvStore::AppendMutation(char op, const std::string& key,
                               const std::string& value) {
  TPS_RETURN_NOT_OK(CheckWritable());
  TPS_RETURN_NOT_OK(log_->Append(EncodeMutation(op, key, value)));
  ++log_records_;
  return Status::OK();
}

Status KvStore::Put(const std::string& key, const std::string& value) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  TPS_RETURN_NOT_OK(AppendMutation(kOpPut, key, value));
  table_[key] = value;
  return Status::OK();
}

StatusOr<std::string> KvStore::Get(const std::string& key) const {
  auto it = table_.find(key);
  if (it == table_.end()) return Status::NotFound("key not found: " + key);
  return it->second;
}

Status KvStore::Delete(const std::string& key) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  if (table_.find(key) == table_.end()) return Status::OK();
  TPS_RETURN_NOT_OK(AppendMutation(kOpDelete, key, ""));
  table_.erase(key);
  return Status::OK();
}

bool KvStore::Contains(const std::string& key) const {
  return table_.find(key) != table_.end();
}

std::vector<std::string> KvStore::ScanPrefix(
    const std::string& prefix) const {
  std::vector<std::string> keys;
  for (auto it = table_.lower_bound(prefix); it != table_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    keys.push_back(it->first);
  }
  return keys;
}

Status KvStore::Compact() {
  TPS_RETURN_NOT_OK(CheckWritable());
  const std::string temp_path = path_ + ".compact";
  {
    // Write all live entries into a fresh temp log (truncating any stale
    // temp file from an earlier failed compaction).
    TPS_ASSIGN_OR_RETURN(RecordLogWriter writer,
                         RecordLogWriter::Create(temp_path, env_));
    for (const auto& [key, value] : table_) {
      Status append = writer.Append(EncodeMutation(kOpPut, key, value));
      if (!append.ok()) {
        // The live log is untouched; drop the partial temp file.
        env_->RemoveFile(temp_path);
        return append;
      }
    }
    TPS_RETURN_NOT_OK(writer.Flush());
  }

  // Atomic swap, then reopen the append handle on the new file.
  log_.reset();
  Status renamed = env_->RenameFile(temp_path, path_);
  if (!renamed.ok()) {
    // Keep the store usable on the old log rather than leaving a null
    // append handle behind. The old log fully describes the table, so
    // nothing is lost — compaction just didn't happen.
    env_->RemoveFile(temp_path);
    auto reopened_old = RecordLogWriter::Open(path_, env_);
    if (reopened_old.ok()) {
      log_ = std::make_unique<RecordLogWriter>(
          std::move(reopened_old).value());
    }
    return renamed;
  }
  TPS_ASSIGN_OR_RETURN(RecordLogWriter reopened,
                       RecordLogWriter::Open(path_, env_));
  log_ = std::make_unique<RecordLogWriter>(std::move(reopened));
  log_records_ = table_.size();
  MetricsRegistry::Default()->counter("store.compactions").Increment();
  return Status::OK();
}

}  // namespace tps
