#include "core/performance_matrix.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <string_view>
#include <type_traits>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tps {

namespace {

/// A cursor over serialized text that reads lines like std::getline and
/// numbers like operator>> (skip leading whitespace, then take the longest
/// valid number), with std::from_chars instead of a stream. Both parse
/// doubles with correct rounding, so Serialize round trips stay bit-exact.
class TextCursor {
 public:
  explicit TextCursor(std::string_view text) : text_(text) {}

  /// The next line without its '\n'; false (and no line) at end of text.
  bool Line(std::string_view* line) {
    if (pos_ >= text_.size()) return false;
    const size_t end = std::min(text_.find('\n', pos_), text_.size());
    *line = text_.substr(pos_, end - pos_);
    pos_ = end + (end < text_.size() ? 1 : 0);
    return true;
  }

  template <typename T>
  bool Number(T* value) {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + text_.size();
    const std::from_chars_result result = std::from_chars(first, last, *value);
    if (result.ec != std::errc()) return false;
    pos_ += static_cast<size_t>(result.ptr - first);
    return true;
  }

  /// Skips one character (the newline after the dimensions line).
  void SkipOne() {
    if (pos_ < text_.size()) ++pos_;
  }

  size_t remaining() const { return text_.size() - pos_; }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<PerformanceMatrix> PerformanceMatrix::Build(
    const ModelZoo& zoo, const std::vector<const Dataset*>& benchmarks,
    const FineTuneSimulator& simulator, const Hyperparams& hp) {
  // The serial reference path: BuildOnPool without a pool walks the flat
  // (dataset, model) index space in order.
  return BuildOnPool(zoo, benchmarks, simulator, hp, nullptr);
}

StatusOr<PerformanceMatrix> PerformanceMatrix::BuildParallel(
    const ModelZoo& zoo, const std::vector<const Dataset*>& benchmarks,
    const FineTuneSimulator& simulator, const Hyperparams& hp,
    int num_threads) {
  if (num_threads < 1) {
    return Status::InvalidArgument("BuildParallel needs num_threads >= 1");
  }
  if (num_threads == 1) return Build(zoo, benchmarks, simulator, hp);
  // Input errors (empty zoo / empty or null benchmarks) are diagnosed by
  // BuildOnPool before any work is scheduled, so the clamp below never
  // sees a zero-item grid from valid inputs.
  const size_t total = benchmarks.size() * zoo.size();
  ThreadPool pool(ThreadPool::ClampThreads(num_threads, total));
  return BuildOnPool(zoo, benchmarks, simulator, hp, &pool);
}

StatusOr<PerformanceMatrix> PerformanceMatrix::BuildOnPool(
    const ModelZoo& zoo, const std::vector<const Dataset*>& benchmarks,
    const FineTuneSimulator& simulator, const Hyperparams& hp,
    ThreadPool* pool) {
  if (zoo.size() == 0) {
    return Status::InvalidArgument("PerformanceMatrix needs >= 1 model");
  }
  if (benchmarks.empty()) {
    return Status::InvalidArgument(
        "PerformanceMatrix needs >= 1 benchmark dataset");
  }
  for (const Dataset* ds : benchmarks) {
    if (ds == nullptr) {
      return Status::InvalidArgument("null benchmark dataset");
    }
  }

  WallTimer build_timer;
  PerformanceMatrix pm;
  for (const PretrainedModel& model : zoo.models()) {
    pm.model_names_.push_back(model.name());
  }
  for (const Dataset* ds : benchmarks) pm.dataset_names_.push_back(ds->name());
  const size_t num_models = zoo.size();
  const size_t total = benchmarks.size() * num_models;
  pm.accuracy_ = Matrix(benchmarks.size(), num_models);
  pm.runs_.resize(total);

  // Fan out over the flat (dataset, model) index space; each cell is an
  // index-addressed slot written by exactly one task, so the matrix is
  // bit-identical to the serial Build for any pool size.
  TPS_RETURN_NOT_OK(StatusParallelFor(pool, total, [&](size_t index)
                                          -> Status {
    const size_t di = index / num_models;
    const size_t mi = index % num_models;
    TPS_ASSIGN_OR_RETURN(TrainingRun run,
                         simulator.Run(zoo.model(mi), *benchmarks[di], hp));
    pm.accuracy_.At(di, mi) = run.final_test();
    pm.runs_[index] = std::move(run);
    return Status::OK();
  }));
  MetricsRegistry& metrics = *MetricsRegistry::Default();
  metrics.counter("matrix.builds").Increment();
  metrics.counter("matrix.cells_built").Increment(total);
  metrics.histogram("matrix.build_wall_us")
      .Record(build_timer.ElapsedMillis() * 1e3);
  return pm;
}

std::vector<double> PerformanceMatrix::ModelVector(size_t model_index) const {
  TPS_CHECK(model_index < num_models());
  return accuracy_.Col(model_index);
}

double PerformanceMatrix::ModelAverageAccuracy(size_t model_index) const {
  const std::vector<double> vec = ModelVector(model_index);
  double sum = 0.0;
  for (double v : vec) sum += v;
  return vec.empty() ? 0.0 : sum / static_cast<double>(vec.size());
}

std::vector<std::vector<double>> PerformanceMatrix::ModelVectors() const {
  std::vector<std::vector<double>> vectors;
  vectors.reserve(num_models());
  for (size_t m = 0; m < num_models(); ++m) {
    vectors.push_back(ModelVector(m));
  }
  return vectors;
}

std::vector<double> PerformanceMatrix::ModelAverageAccuracies() const {
  std::vector<double> priors;
  priors.reserve(num_models());
  for (size_t m = 0; m < num_models(); ++m) {
    priors.push_back(ModelAverageAccuracy(m));
  }
  return priors;
}

const TrainingRun& PerformanceMatrix::run(size_t dataset_index,
                                          size_t model_index) const {
  TPS_CHECK(dataset_index < num_datasets());
  TPS_CHECK(model_index < num_models());
  return runs_[dataset_index * num_models() + model_index];
}

double PerformanceMatrix::ValAtStage(size_t dataset_index, size_t model_index,
                                     int stage) const {
  const TrainingRun& r = run(dataset_index, model_index);
  TPS_CHECK(!r.val_accuracy.empty());
  const int last = static_cast<int>(r.val_accuracy.size()) - 1;
  const int s = stage < 0 ? 0 : (stage > last ? last : stage);
  return r.val_accuracy[static_cast<size_t>(s)];
}

namespace {

/// Appends `v` as ostream would with precision 17: integers in decimal,
/// doubles as %.17g (to_chars' general format at that precision).
template <typename T>
void AppendText(std::string* out, T v) {
  char buf[32];
  const std::to_chars_result written = [&] {
    if constexpr (std::is_floating_point_v<T>) {
      return std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::general, 17);
    } else {
      return std::to_chars(buf, buf + sizeof(buf), v);
    }
  }();
  out->append(buf, written.ptr);
}

}  // namespace

std::string PerformanceMatrix::Serialize() const {
  std::string out = "tps-performance-matrix v1\n";
  AppendText(&out, num_datasets());
  out.push_back(' ');
  AppendText(&out, num_models());
  out.push_back('\n');
  for (const std::vector<std::string>* names :
       {&dataset_names_, &model_names_}) {
    for (const std::string& name : *names) {
      out.append(name);
      out.push_back('\n');
    }
  }
  for (size_t di = 0; di < num_datasets(); ++di) {
    for (size_t mi = 0; mi < num_models(); ++mi) {
      const TrainingRun& r = run(di, mi);
      AppendText(&out, di);
      out.push_back(' ');
      AppendText(&out, mi);
      out.push_back(' ');
      AppendText(&out, r.epochs());
      for (const std::vector<double>* curve :
           {&r.val_accuracy, &r.test_accuracy}) {
        for (double v : *curve) {
          out.push_back(' ');
          AppendText(&out, v);
        }
      }
      out.push_back('\n');
    }
  }
  return out;
}

Status PerformanceMatrix::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << Serialize();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

StatusOr<PerformanceMatrix> PerformanceMatrix::Deserialize(
    const std::string& text) {
  TextCursor in(text);
  std::string_view header;
  in.Line(&header);
  if (header != "tps-performance-matrix v1") {
    return Status::InvalidArgument("bad performance-matrix header");
  }
  size_t num_datasets = 0, num_models = 0;
  const bool dims_ok = in.Number(&num_datasets) && in.Number(&num_models);
  in.SkipOne();  // Trailing newline.
  // Every name and run record takes at least two bytes, so dimensions the
  // text cannot hold are malformed (and would otherwise size huge buffers).
  if (!dims_ok || num_datasets == 0 || num_models == 0 ||
      num_datasets > text.size() || num_models > text.size() / num_datasets) {
    return Status::InvalidArgument("bad performance-matrix dimensions");
  }

  PerformanceMatrix pm;
  pm.dataset_names_.resize(num_datasets);
  for (std::string& name : pm.dataset_names_) {
    std::string_view line;
    if (!in.Line(&line) || line.empty()) {
      return Status::InvalidArgument("truncated dataset names");
    }
    name = line;
  }
  pm.model_names_.resize(num_models);
  for (std::string& name : pm.model_names_) {
    std::string_view line;
    if (!in.Line(&line) || line.empty()) {
      return Status::InvalidArgument("truncated model names");
    }
    name = line;
  }

  pm.accuracy_ = Matrix(num_datasets, num_models);
  pm.runs_.resize(num_datasets * num_models);
  for (size_t entry = 0; entry < num_datasets * num_models; ++entry) {
    size_t di = 0, mi = 0;
    int epochs = 0;
    if (!(in.Number(&di) && in.Number(&mi) && in.Number(&epochs)) ||
        di >= num_datasets || mi >= num_models || epochs < 1) {
      return Status::InvalidArgument("truncated run record");
    }
    // 2 * epochs values of at least two bytes each (digit + separator).
    if (static_cast<size_t>(epochs) > (in.remaining() + 1) / 4) {
      return Status::InvalidArgument("truncated curves");
    }
    TrainingRun run;
    run.dataset_name = pm.dataset_names_[di];
    run.model_name = pm.model_names_[mi];
    run.val_accuracy.resize(static_cast<size_t>(epochs));
    run.test_accuracy.resize(static_cast<size_t>(epochs));
    for (double& v : run.val_accuracy) {
      if (!in.Number(&v)) return Status::InvalidArgument("truncated curves");
    }
    for (double& v : run.test_accuracy) {
      if (!in.Number(&v)) return Status::InvalidArgument("truncated curves");
    }
    pm.accuracy_.At(di, mi) = run.final_test();
    pm.runs_[di * num_models + mi] = std::move(run);
  }
  return pm;
}

StatusOr<PerformanceMatrix> PerformanceMatrix::LoadFromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto result = Deserialize(text);
  if (!result.ok()) {
    return Status(result.status().code(),
                  result.status().message() + " in " + path);
  }
  return result;
}

}  // namespace tps
