#ifndef TPS_TESTS_STORE_REFERENCE_RECORD_TEXT_H_
#define TPS_TESTS_STORE_REFERENCE_RECORD_TEXT_H_

#include <string>

#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "index/ivf_index.h"
#include "matrix/matrix.h"
#include "recall/recall_embeddings.h"
#include "util/statusor.h"

namespace tps {

/// Test-only oracles: the store's record text written through
/// std::ostringstream at precision 17 (integers by operator<<, doubles as
/// %.17g) and read through std::istringstream. The production codecs
/// (util/text_codec.h) write the same bytes with std::to_chars and read
/// with std::from_chars; tests/store/record_codec_test.cc pins them
/// against these byte for byte, and Status for Status on mutated and
/// truncated text.
///
/// The readers are the stream readers the codecs replaced, with one
/// addition: a count the text cannot hold is rejected as bad dimensions
/// before anything is sized by it (the codecs do the same). Such text
/// always failed later as truncated; the guard keeps a mutated count from
/// allocating gigabytes first.

std::string ReferenceSerializeMatrix(const PerformanceMatrix& matrix);

/// Writes the distance threshold at the stream's default precision (6
/// significant digits), as the stream writer did; the codec writes its
/// shortest round-trip form, which is the same bytes for 0.085.
std::string ReferenceSerializeClustering(const ModelClustering& clustering);
StatusOr<ModelClustering> ReferenceDeserializeClustering(
    const std::string& text);

std::string ReferenceSerializeEmbeddings(
    const recall::RecallEmbeddings& embeddings);
StatusOr<recall::RecallEmbeddings> ReferenceDeserializeEmbeddings(
    const std::string& text);

/// The primary fields of an IVF index record; `structure` is finalized,
/// as IvfIndex::Deserialize finalizes its own.
struct ReferenceIvfRecord {
  IvfIndexOptions options;
  IndexStructure structure;
  Matrix centroids;
};
std::string ReferenceSerializeIvf(const IvfIndex& index);
StatusOr<ReferenceIvfRecord> ReferenceDeserializeIvf(const std::string& text);

}  // namespace tps

#endif  // TPS_TESTS_STORE_REFERENCE_RECORD_TEXT_H_
