#include "store/reference_record_text.h"

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

namespace tps {

std::string ReferenceSerializeMatrix(const PerformanceMatrix& matrix) {
  std::ostringstream out;
  out << "tps-performance-matrix v1\n";
  out << matrix.num_datasets() << " " << matrix.num_models() << "\n";
  for (const std::string& name : matrix.dataset_names()) out << name << "\n";
  for (const std::string& name : matrix.model_names()) out << name << "\n";
  out.precision(17);
  for (size_t di = 0; di < matrix.num_datasets(); ++di) {
    for (size_t mi = 0; mi < matrix.num_models(); ++mi) {
      out << di << " " << mi << " " << matrix.ValCurve(di, mi).size();
      for (double v : matrix.ValCurve(di, mi)) out << " " << v;
      for (double v : matrix.TestCurve(di, mi)) out << " " << v;
      out << "\n";
    }
  }
  return out.str();
}

std::string ReferenceSerializeClustering(const ModelClustering& clustering) {
  std::ostringstream out;
  out << "tps-model-clustering v2\n";
  out << clustering.clusters.assignments.size() << " "
      << clustering.clusters.num_clusters << "\n";
  out << clustering.options.top_k << " " << clustering.options.num_clusters
      << " " << clustering.options.distance_threshold << "\n";
  for (int a : clustering.clusters.assignments) out << a << " ";
  out << "\n";
  for (size_t r : clustering.representatives) out << r << " ";
  out << "\n";
  out.precision(17);
  const size_t n = clustering.distances.rows();
  out << n << "\n";
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) out << clustering.distances.At(i, j)
                                       << " ";
    out << "\n";
  }
  return out.str();
}

StatusOr<ModelClustering> ReferenceDeserializeClustering(
    const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  const bool v1 = header == "tps-model-clustering v1";
  if (!v1 && header != "tps-model-clustering v2") {
    return Status::InvalidArgument("bad clustering header");
  }
  size_t num_models = 0;
  int num_clusters = 0;
  in >> num_models >> num_clusters;
  if (!in || num_models == 0 || num_models > text.size() ||
      num_clusters <= 0 || num_clusters > static_cast<int>(num_models)) {
    return Status::InvalidArgument("bad clustering dimensions");
  }

  ModelClustering clustering;
  int similarity = 0, algorithm = 0;
  uint64_t seed = 0;
  if (v1) in >> similarity >> algorithm;
  in >> clustering.options.top_k >> clustering.options.num_clusters >>
      clustering.options.distance_threshold;
  if (v1) in >> seed;
  if (!in || similarity < 0 || similarity > 1 || algorithm < 0 ||
      algorithm > 1) {
    return Status::InvalidArgument("bad clustering options");
  }

  clustering.clusters.num_clusters = num_clusters;
  clustering.clusters.assignments.resize(num_models);
  for (int& a : clustering.clusters.assignments) {
    in >> a;
    if (!in || a < 0 || a >= num_clusters) {
      return Status::InvalidArgument("bad assignment");
    }
  }
  clustering.representatives.resize(static_cast<size_t>(num_clusters));
  for (size_t& r : clustering.representatives) {
    in >> r;
    if (!in || r >= num_models) {
      return Status::InvalidArgument("bad representative");
    }
  }
  size_t n = 0;
  in >> n;
  if (!in || (n != num_models && n != 0) || (n != 0 && n > text.size() / n)) {
    return Status::InvalidArgument("bad distance matrix size");
  }
  if (n > 0) {
    clustering.distances = Matrix(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) in >> clustering.distances.At(i, j);
    }
    if (!in) return Status::InvalidArgument("truncated distances");
  }
  return clustering;
}

std::string ReferenceSerializeEmbeddings(
    const recall::RecallEmbeddings& embeddings) {
  const recall::EmbeddingConfig& config = embeddings.config();
  std::ostringstream out;
  out.precision(17);
  out << "tps-recall-embeddings v1\n";
  out << embeddings.num_models() << " " << config.dim << " "
      << embeddings.feature_dim() << "\n";
  out << config.epochs << " " << config.learning_rate << " "
      << config.temperature << " " << config.accuracy_temperature << " "
      << config.weight_decay << " " << config.seed << "\n";
  for (const std::string& name : embeddings.model_names()) out << name << "\n";
  for (double p : embeddings.prior()) out << p << " ";
  out << "\n";
  const Matrix& map = embeddings.dataset_map();
  for (size_t r = 0; r < map.rows(); ++r) {
    for (size_t c = 0; c < map.cols(); ++c) out << map.At(r, c) << " ";
    out << "\n";
  }
  for (const std::vector<double>& v : embeddings.model_embeddings()) {
    for (double x : v) out << x << " ";
    out << "\n";
  }
  return out.str();
}

StatusOr<recall::RecallEmbeddings> ReferenceDeserializeEmbeddings(
    const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  if (header != "tps-recall-embeddings v1") {
    return Status::InvalidArgument("bad recall embeddings header");
  }
  size_t n = 0, dim = 0, feature_dim = 0;
  in >> n >> dim >> feature_dim;
  if (!in || n == 0 || dim == 0 || feature_dim == 0 || n > text.size() ||
      dim > text.size() / n || feature_dim > text.size() / dim) {
    return Status::InvalidArgument("bad recall embeddings dimensions");
  }
  recall::EmbeddingConfig config;
  config.dim = dim;
  in >> config.epochs >> config.learning_rate >> config.temperature >>
      config.accuracy_temperature >> config.weight_decay >> config.seed;
  if (!in) return Status::InvalidArgument("bad recall embeddings config");
  in.ignore(1, '\n');
  std::vector<std::string> model_names(n);
  for (std::string& name : model_names) {
    if (!std::getline(in, name) || name.empty()) {
      return Status::InvalidArgument("truncated recall embeddings names");
    }
  }
  std::vector<double> prior(n);
  for (double& p : prior) in >> p;
  Matrix dataset_map(dim, feature_dim);
  for (size_t r = 0; r < dim; ++r) {
    for (size_t c = 0; c < feature_dim; ++c) in >> dataset_map.At(r, c);
  }
  std::vector<std::vector<double>> model_embeddings(
      n, std::vector<double>(dim, 0.0));
  for (std::vector<double>& v : model_embeddings) {
    for (double& x : v) in >> x;
  }
  if (!in) return Status::InvalidArgument("truncated recall embeddings");
  return recall::RecallEmbeddings::Create(
      config, std::move(dataset_map), std::move(model_embeddings),
      std::move(prior), std::move(model_names));
}

std::string ReferenceSerializeIvf(const IvfIndex& index) {
  std::ostringstream out;
  out.precision(17);
  const IndexStructure& s = index.structure();
  const IvfIndexOptions& options = index.options();
  const Matrix& centroids = index.centroids();
  const size_t dims = s.vectors.empty() ? 0 : s.vectors[0].size();
  out << "tps-ivf-index v1\n";
  out << s.num_models() << " " << dims << " " << centroids.rows() << "\n";
  out << options.num_partitions << " " << options.default_nprobe << " "
      << options.propagation_neighbors << " " << options.similarity_top_k
      << " " << options.kmeans_iterations << " " << options.kmeans_restarts
      << " " << options.seed << "\n";
  for (double p : s.prior) out << p << " ";
  out << "\n";
  for (int a : s.assignments) out << a << " ";
  out << "\n";
  for (size_t c = 0; c < centroids.rows(); ++c) {
    for (size_t d = 0; d < centroids.cols(); ++d) {
      out << centroids.At(c, d) << " ";
    }
    out << "\n";
  }
  for (const std::vector<double>& v : s.vectors) {
    for (double x : v) out << x << " ";
    out << "\n";
  }
  return out.str();
}

StatusOr<ReferenceIvfRecord> ReferenceDeserializeIvf(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  if (header != "tps-ivf-index v1") {
    return Status::InvalidArgument("bad ivf index header");
  }
  size_t n = 0, dims = 0, partitions = 0;
  in >> n >> dims >> partitions;
  if (!in || n == 0 || dims == 0 || partitions == 0 || partitions > n ||
      n > text.size() || dims > text.size() / n) {
    return Status::InvalidArgument("bad ivf index dimensions");
  }
  ReferenceIvfRecord record;
  IvfIndexOptions& options = record.options;
  in >> options.num_partitions >> options.default_nprobe >>
      options.propagation_neighbors >> options.similarity_top_k >>
      options.kmeans_iterations >> options.kmeans_restarts >> options.seed;
  if (!in) return Status::InvalidArgument("bad ivf index options");

  IndexStructure& s = record.structure;
  s.similarity_top_k = options.similarity_top_k;
  s.prior.resize(n);
  for (double& p : s.prior) in >> p;
  s.assignments.resize(n);
  for (int& a : s.assignments) {
    in >> a;
    if (in && (a < 0 || a >= static_cast<int>(partitions))) {
      return Status::InvalidArgument("ivf assignment out of range");
    }
  }
  if (!in) return Status::InvalidArgument("truncated ivf index");
  record.centroids = Matrix(partitions, dims);
  for (size_t c = 0; c < partitions; ++c) {
    for (size_t d = 0; d < dims; ++d) in >> record.centroids.At(c, d);
  }
  s.vectors.assign(n, std::vector<double>(dims, 0.0));
  for (std::vector<double>& v : s.vectors) {
    for (double& x : v) in >> x;
  }
  if (!in) return Status::InvalidArgument("truncated ivf index");
  s.members.resize(partitions);
  TPS_RETURN_NOT_OK(
      FinalizeIndexStructure(&s, options.propagation_neighbors));
  return record;
}

}  // namespace tps
