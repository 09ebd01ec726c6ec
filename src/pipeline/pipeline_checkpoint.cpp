#include "pipeline/pipeline_checkpoint.hpp"

#include <cstring>

#include "common/serialize.hpp"
#include "pipeline/pipeline_error.hpp"

namespace elrec {

namespace {
constexpr char kTagV1[4] = {'E', 'P', 'C', '1'};  // legacy, null codec only
constexpr char kTagV2[4] = {'E', 'P', 'C', '2'};  // + u32 codec id
}  // namespace

void write_checkpoint_header(BinaryWriter& w, const char* legacy_tag,
                             const char* codec_tag, CodecId codec,
                             index_t next_batch) {
  if (codec == CodecId::kNull) {
    w.write_tag(legacy_tag);  // null-codec runs keep the legacy bytes
  } else {
    w.write_tag(codec_tag);
    w.write_pod(static_cast<std::uint32_t>(codec));
  }
  w.write_i64(next_batch);
}

index_t read_checkpoint_header(BinaryReader& r, const char* legacy_tag,
                               const char* codec_tag, CodecId codec,
                               const std::string& path) {
  char tag[4];
  for (char& c : tag) c = r.read_pod<char>();
  CodecId saved = CodecId::kNull;
  if (std::memcmp(tag, codec_tag, 4) == 0) {
    saved = static_cast<CodecId>(r.read_pod<std::uint32_t>());
  } else {
    ELREC_CHECK(std::memcmp(tag, legacy_tag, 4) == 0,
                "unrecognized checkpoint tag in '" + path + "'");
  }
  if (saved != codec) {
    throw PipelineError(
        "resume", -1,
        "checkpoint '" + path + "' was written under codec '" +
            codec_name(saved) + "' but this run uses '" + codec_name(codec) +
            "' — refusing to resume across codecs");
  }
  return r.read_i64();
}

void write_store_section(BinaryWriter& w, const HostEmbeddingStore& store) {
  // store.weights() is the quiescent-only lock-free view (see its
  // annotation): the runtime writes checkpoints only after every gradient
  // up to the checkpoint batch has been applied and while no other is in
  // flight.
  w.write_i64(store.num_rows());
  w.write_i64(store.dim());
  w.write_array(store.weights().data(),
                static_cast<std::size_t>(store.weights().size()));
}

Matrix read_store_section(BinaryReader& r, const HostEmbeddingStore& store) {
  const index_t rows = r.read_i64();
  const index_t dim = r.read_i64();
  ELREC_CHECK(rows == store.num_rows() && dim == store.dim(),
              "checkpoint host-store shape mismatch");
  const auto values = r.read_vector<float>();
  ELREC_CHECK(static_cast<index_t>(values.size()) == rows * dim,
              "checkpoint host-store payload size mismatch");
  Matrix weights(rows, dim);
  std::copy(values.begin(), values.end(), weights.data());
  return weights;
}

void save_pipeline_checkpoint(const HostEmbeddingStore& store,
                              index_t next_batch, const std::string& path,
                              CodecId codec) {
  write_checkpoint_atomic(path, [&](BinaryWriter& w) {
    write_checkpoint_header(w, kTagV1, kTagV2, codec, next_batch);
    write_store_section(w, store);
  });
}

index_t load_pipeline_checkpoint(HostEmbeddingStore& store,
                                 const std::string& path, CodecId codec) {
  BinaryReader r(path);
  const index_t next_batch =
      read_checkpoint_header(r, kTagV1, kTagV2, codec, path);
  const Matrix weights = read_store_section(r, store);
  r.expect_footer();
  store.load_weights(weights);
  return next_batch;
}

}  // namespace elrec
