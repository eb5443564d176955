#include "index/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "clustering/kmeans.h"

namespace tps {

namespace {

Status ValidateVectors(const std::vector<std::vector<double>>& vectors,
                       const std::vector<double>& prior,
                       const IvfIndexOptions& options) {
  if (vectors.empty()) {
    return Status::InvalidArgument("index needs at least one model vector");
  }
  const size_t dims = vectors[0].size();
  if (dims == 0) {
    return Status::InvalidArgument("model vectors must be non-empty");
  }
  for (const std::vector<double>& v : vectors) {
    if (v.size() != dims) {
      return Status::InvalidArgument("ragged model vectors");
    }
  }
  if (prior.size() != vectors.size()) {
    return Status::InvalidArgument(
        "prior count does not match the vector count");
  }
  if (options.num_partitions < 0) {
    return Status::InvalidArgument("num_partitions must be >= 0");
  }
  if (options.num_partitions > static_cast<int>(vectors.size())) {
    return Status::InvalidArgument(
        "num_partitions exceeds the number of models");
  }
  if (options.similarity_top_k == 0) {
    return Status::InvalidArgument("similarity_top_k must be >= 1");
  }
  if (options.kmeans_iterations < 1 || options.kmeans_restarts < 1) {
    return Status::InvalidArgument(
        "kmeans_iterations and kmeans_restarts must be >= 1");
  }
  return Status::OK();
}

size_t ResolvePartitions(const IvfIndexOptions& options, size_t n) {
  if (options.num_partitions > 0) {
    return static_cast<size_t>(options.num_partitions);
  }
  const size_t auto_p = 2 * static_cast<size_t>(
                                std::ceil(std::sqrt(static_cast<double>(n))));
  return std::min(n, std::max<size_t>(1, auto_p));
}

}  // namespace

size_t IvfIndex::NearestCentroid(const std::vector<double>& vector) const {
  size_t best = 0;
  double best_dist = 0.0;
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    double dist = 0.0;
    for (size_t d = 0; d < centroids_.cols(); ++d) {
      const double diff = vector[d] - centroids_.At(c, d);
      dist += diff * diff;
    }
    if (c == 0 || dist < best_dist) {  // Strict <: lowest id wins ties.
      best = c;
      best_dist = dist;
    }
  }
  return best;
}

StatusOr<IvfIndex> IvfIndex::Build(std::vector<std::vector<double>> vectors,
                                   std::vector<double> prior,
                                   const IvfIndexOptions& options) {
  TPS_RETURN_NOT_OK(ValidateVectors(vectors, prior, options));
  const size_t num_partitions = ResolvePartitions(options, vectors.size());
  TPS_ASSIGN_OR_RETURN(Matrix points, Matrix::FromRows(vectors));
  KMeansOptions kmeans_options;
  kmeans_options.num_clusters = static_cast<int>(num_partitions);
  kmeans_options.max_iterations = options.kmeans_iterations;
  kmeans_options.restarts = options.kmeans_restarts;
  kmeans_options.seed = options.seed;
  TPS_ASSIGN_OR_RETURN(KMeansResult kmeans, KMeans(points, kmeans_options));

  IvfIndex index;
  index.options_ = options;
  index.centroids_ = std::move(kmeans.centroids);
  // The k-means loop can stop on its iteration cap right after a centroid
  // update, leaving the reported assignments one step behind the final
  // centroids. The index contract is nearest-final-centroid (Insert and
  // BuildWithCentroids both route that way — the equivalence theorems rest
  // on it), so re-derive every assignment here and drop any cell the final
  // pass leaves empty. Pruning keeps the quantizer minimal: every surviving
  // centroid is some model's nearest, so a frozen-quantizer rebuild
  // reproduces these assignments exactly.
  std::vector<int> assignments(vectors.size());
  std::vector<size_t> cell_count(index.centroids_.rows(), 0);
  for (size_t m = 0; m < vectors.size(); ++m) {
    const size_t cell = index.NearestCentroid(vectors[m]);
    assignments[m] = static_cast<int>(cell);
    ++cell_count[cell];
  }
  size_t kept = 0;
  std::vector<int> remap(cell_count.size(), -1);
  for (size_t c = 0; c < cell_count.size(); ++c) {
    if (cell_count[c] > 0) remap[c] = static_cast<int>(kept++);
  }
  if (kept < cell_count.size()) {
    Matrix pruned(kept, index.centroids_.cols());
    for (size_t c = 0; c < cell_count.size(); ++c) {
      if (remap[c] < 0) continue;
      for (size_t d = 0; d < index.centroids_.cols(); ++d) {
        pruned.At(static_cast<size_t>(remap[c]), d) = index.centroids_.At(c, d);
      }
    }
    index.centroids_ = std::move(pruned);
    for (int& a : assignments) a = remap[static_cast<size_t>(a)];
  }

  IndexStructure& s = index.structure_;
  s.similarity_top_k = options.similarity_top_k;
  s.vectors = std::move(vectors);
  s.prior = std::move(prior);
  s.assignments = std::move(assignments);
  s.members.resize(index.centroids_.rows());
  TPS_RETURN_NOT_OK(
      FinalizeIndexStructure(&s, options.propagation_neighbors));
  return index;
}

StatusOr<IvfIndex> IvfIndex::BuildWithCentroids(
    Matrix centroids, std::vector<std::vector<double>> vectors,
    std::vector<double> prior, const IvfIndexOptions& options) {
  TPS_RETURN_NOT_OK(ValidateVectors(vectors, prior, options));
  if (centroids.empty()) {
    return Status::InvalidArgument("centroids must be non-empty");
  }
  if (centroids.cols() != vectors[0].size()) {
    return Status::InvalidArgument(
        "centroid dimensionality does not match the model vectors");
  }
  IvfIndex index;
  index.options_ = options;
  index.centroids_ = std::move(centroids);
  IndexStructure& s = index.structure_;
  s.similarity_top_k = options.similarity_top_k;
  s.vectors = std::move(vectors);
  s.prior = std::move(prior);
  s.assignments.resize(s.vectors.size());
  for (size_t m = 0; m < s.vectors.size(); ++m) {
    s.assignments[m] = static_cast<int>(index.NearestCentroid(s.vectors[m]));
  }
  s.members.resize(index.centroids_.rows());
  TPS_RETURN_NOT_OK(
      FinalizeIndexStructure(&s, options.propagation_neighbors));
  return index;
}

Status IvfIndex::Insert(const std::vector<double>& vector, double prior) {
  if (vector.size() != centroids_.cols()) {
    return Status::InvalidArgument(
        "inserted vector dimensionality does not match the index");
  }
  // Frozen quantizer: route to the nearest existing centroid, touch that
  // posting list only, then refresh the derived layout. No k-means rerun,
  // no reassignment of existing models — Insert over a BuildWithCentroids
  // index is bit-identical to rebuilding it with the grown inputs
  // (tests/index/index_equivalence_test.cc).
  const size_t partition = NearestCentroid(vector);
  structure_.vectors.push_back(vector);
  structure_.prior.push_back(prior);
  structure_.assignments.push_back(static_cast<int>(partition));
  return FinalizeIndexStructure(&structure_,
                                options_.propagation_neighbors);
}

size_t IvfIndex::default_nprobe() const {
  const size_t scored = structure_.scored_partitions.size();
  // Auto rule: an eighth of the scored partitions, but never fewer than
  // 24 — the adaptive pilot-and-route probe needs enough pilots to cover
  // the performance space before routing can exploit them, and below ~24
  // probes its recall@10 against the exhaustive sweep falls off sharply
  // (bench_scaling_zoo_size). Small zoos simply probe a larger fraction;
  // sub-linear probing is a large-zoo economy anyway.
  const size_t resolved =
      options_.default_nprobe != 0
          ? options_.default_nprobe
          : std::max<size_t>(24, scored / 8);
  return std::min(resolved, scored);
}

std::vector<size_t> IvfIndex::ProbePartitions(size_t nprobe,
                                              size_t target_dim) const {
  const IndexStructure& s = structure_;
  const size_t scored = s.scored_partitions.size();
  const size_t take =
      nprobe == 0 ? default_nprobe() : std::min(nprobe, scored);
  if (take >= scored) {
    // Full probe visits everything; skip the per-query re-rank so the
    // result is the scored set itself (ascending), whatever the target.
    return s.scored_partitions;
  }
  const size_t dims = s.vectors.empty() ? 0 : s.vectors[0].size();
  std::vector<size_t> probed;
  if (target_dim != IndexStructure::kNoSlot && target_dim < dims) {
    // Known-benchmark routing: the representative's recorded performance
    // on the target column is a free surrogate for the proxy score the
    // probe would measure, so rank by its product with the prior — the
    // same shape as the Eq. 2 recall score.
    std::vector<size_t> order = s.scored_partitions;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const size_t ra = s.representatives[a];
      const size_t rb = s.representatives[b];
      return s.prior[ra] * s.vectors[ra][target_dim] >
             s.prior[rb] * s.vectors[rb][target_dim];
    });
    probed.assign(order.begin(), order.begin() + static_cast<long>(take));
  } else {
    probed.assign(s.probe_priority.begin(),
                  s.probe_priority.begin() + static_cast<long>(take));
  }
  std::sort(probed.begin(), probed.end());
  return probed;
}

std::vector<size_t> IvfIndex::ProbePartitionsNearQuery(
    const std::vector<double>& query, size_t nprobe) const {
  const size_t partitions = centroids_.rows();
  const size_t take = std::min(
      nprobe == 0 ? std::max<size_t>(1, default_nprobe()) : nprobe,
      partitions);
  if (take >= partitions) {
    std::vector<size_t> all(partitions);
    for (size_t c = 0; c < partitions; ++c) all[c] = c;
    return all;
  }
  std::vector<std::pair<double, size_t>> by_distance(partitions);
  for (size_t c = 0; c < partitions; ++c) {
    double dist = 0.0;
    for (size_t d = 0; d < centroids_.cols(); ++d) {
      const double diff = query[d] - centroids_.At(c, d);
      dist += diff * diff;
    }
    by_distance[c] = {dist, c};
  }
  // Ascending distance; the pair's second breaks ties toward the lowest
  // partition id, so the probe set is deterministic.
  std::sort(by_distance.begin(), by_distance.end());
  std::vector<size_t> probed(take);
  for (size_t i = 0; i < take; ++i) probed[i] = by_distance[i].second;
  std::sort(probed.begin(), probed.end());
  return probed;
}

std::string IvfIndex::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  const IndexStructure& s = structure_;
  const size_t dims = s.vectors.empty() ? 0 : s.vectors[0].size();
  out << "tps-ivf-index v1\n";
  out << s.num_models() << " " << dims << " " << centroids_.rows() << "\n";
  out << options_.num_partitions << " " << options_.default_nprobe << " "
      << options_.propagation_neighbors << " " << options_.similarity_top_k
      << " " << options_.kmeans_iterations << " "
      << options_.kmeans_restarts << " " << options_.seed << "\n";
  for (double p : s.prior) out << p << " ";
  out << "\n";
  for (int a : s.assignments) out << a << " ";
  out << "\n";
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    for (size_t d = 0; d < centroids_.cols(); ++d) {
      out << centroids_.At(c, d) << " ";
    }
    out << "\n";
  }
  for (const std::vector<double>& v : s.vectors) {
    for (double x : v) out << x << " ";
    out << "\n";
  }
  return out.str();
}

StatusOr<IvfIndex> IvfIndex::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  if (header != "tps-ivf-index v1") {
    return Status::InvalidArgument("bad ivf index header");
  }
  size_t n = 0, dims = 0, partitions = 0;
  in >> n >> dims >> partitions;
  if (!in || n == 0 || dims == 0 || partitions == 0 || partitions > n) {
    return Status::InvalidArgument("bad ivf index dimensions");
  }
  IvfIndex index;
  IvfIndexOptions& options = index.options_;
  in >> options.num_partitions >> options.default_nprobe >>
      options.propagation_neighbors >> options.similarity_top_k >>
      options.kmeans_iterations >> options.kmeans_restarts >> options.seed;
  if (!in) return Status::InvalidArgument("bad ivf index options");

  IndexStructure& s = index.structure_;
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
  index.centroids_ = Matrix(partitions, dims);
  for (size_t c = 0; c < partitions; ++c) {
    for (size_t d = 0; d < dims; ++d) in >> index.centroids_.At(c, d);
  }
  s.vectors.assign(n, std::vector<double>(dims, 0.0));
  for (std::vector<double>& v : s.vectors) {
    for (double& x : v) in >> x;
  }
  if (!in) return Status::InvalidArgument("truncated ivf index");
  s.members.resize(partitions);
  // Refinalized rather than deserialized: the derived layout is always a
  // pure function of the primaries, so the codec cannot desync from the
  // build rules.
  TPS_RETURN_NOT_OK(
      FinalizeIndexStructure(&s, options.propagation_neighbors));
  return index;
}

}  // namespace tps
