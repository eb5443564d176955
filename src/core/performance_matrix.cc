#include "core/performance_matrix.h"

#include <algorithm>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/text_codec.h"
#include "util/timer.h"

namespace tps {

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
  std::vector<TrainingRun> runs(total);

  // Fan out over the flat (dataset, model) index space; each cell is an
  // index-addressed slot written by exactly one task, so the matrix is
  // bit-identical to the serial Build for any pool size.
  TPS_RETURN_NOT_OK(StatusParallelFor(pool, total, [&](size_t index)
                                          -> Status {
    const size_t di = index / num_models;
    const size_t mi = index % num_models;
    TPS_ASSIGN_OR_RETURN(runs[index],
                         simulator.Run(zoo.model(mi), *benchmarks[di], hp));
    pm.accuracy_.At(di, mi) = runs[index].final_test();
    return Status::OK();
  }));
  pm.offsets_.reserve(total + 1);
  pm.offsets_.push_back(0);
  for (const TrainingRun& run : runs) {
    pm.curves_.insert(pm.curves_.end(), run.val_accuracy.begin(),
                      run.val_accuracy.end());
    pm.curves_.insert(pm.curves_.end(), run.test_accuracy.begin(),
                      run.test_accuracy.end());
    pm.offsets_.push_back(pm.curves_.size());
  }
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

std::span<const double> PerformanceMatrix::ValCurve(
    size_t dataset_index, size_t model_index) const {
  TPS_CHECK(dataset_index < num_datasets());
  TPS_CHECK(model_index < num_models());
  const size_t cell = dataset_index * num_models() + model_index;
  const size_t begin = offsets_[cell];
  return {curves_.data() + begin, (offsets_[cell + 1] - begin) / 2};
}

std::span<const double> PerformanceMatrix::TestCurve(
    size_t dataset_index, size_t model_index) const {
  const std::span<const double> val = ValCurve(dataset_index, model_index);
  return {val.data() + val.size(), val.size()};
}

double PerformanceMatrix::ValAtStage(size_t dataset_index, size_t model_index,
                                     int stage) const {
  const std::span<const double> val = ValCurve(dataset_index, model_index);
  TPS_CHECK(!val.empty());
  const int last = static_cast<int>(val.size()) - 1;
  const int s = stage < 0 ? 0 : (stage > last ? last : stage);
  return val[static_cast<size_t>(s)];
}

std::string PerformanceMatrix::Serialize() const {
  text::TextWriter out;
  out << "tps-performance-matrix v1\n"
      << num_datasets() << ' ' << num_models() << '\n';
  for (const std::vector<std::string>* names :
       {&dataset_names_, &model_names_}) {
    for (const std::string& name : *names) out << name << '\n';
  }
  for (size_t di = 0; di < num_datasets(); ++di) {
    for (size_t mi = 0; mi < num_models(); ++mi) {
      const std::span<const double> val = ValCurve(di, mi);
      out << di << ' ' << mi << ' ' << val.size();
      for (double v : val) out << ' ' << v;
      for (double v : TestCurve(di, mi)) out << ' ' << v;
      out << '\n';
    }
  }
  return out.Take();
}

StatusOr<PerformanceMatrix> PerformanceMatrix::Deserialize(
    std::string_view text) {
  text::TextCursor in(text);
  std::string_view header;
  in.Line(&header);
  if (header != "tps-performance-matrix v1") {
    return Status::InvalidArgument("bad performance-matrix header");
  }
  size_t num_datasets = 0, num_models = 0;
  const bool dims_ok = in.ReadAll(&num_datasets, &num_models);
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

  const size_t total = num_datasets * num_models;
  pm.accuracy_ = Matrix(num_datasets, num_models);
  pm.offsets_.reserve(total + 1);
  pm.offsets_.push_back(0);
  for (size_t cell = 0; cell < total; ++cell) {
    size_t di = 0, mi = 0;
    int epochs = 0;
    if (!in.ReadAll(&di, &mi, &epochs) || di >= num_datasets ||
        mi >= num_models || epochs < 1) {
      return Status::InvalidArgument("truncated run record");
    }
    if (di * num_models + mi != cell) {
      return Status::InvalidArgument("run record out of order");
    }
    // 2 * epochs values of at least two bytes each (digit + separator).
    if (static_cast<size_t>(epochs) > (in.remaining() + 1) / 4) {
      return Status::InvalidArgument("truncated curves");
    }
    if (cell == 0) {
      // Sized for every cell at the first one's length, but never past
      // what the rest of the text can hold.
      pm.curves_.reserve(std::min(total * 2 * static_cast<size_t>(epochs),
                                  in.remaining() / 2 + 1));
    }
    for (int i = 0; i < 2 * epochs; ++i) {
      double v = 0.0;
      if (!in.Read(&v)) return Status::InvalidArgument("truncated curves");
      pm.curves_.push_back(v);
    }
    pm.accuracy_.At(di, mi) = pm.curves_.back();
    pm.offsets_.push_back(pm.curves_.size());
  }
  return pm;
}

}  // namespace tps
