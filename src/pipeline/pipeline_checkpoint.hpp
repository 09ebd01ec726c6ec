// Crash-safe checkpointing for the pipeline training system.
//
// A pipeline checkpoint is the durable pair (host-store weights, next batch
// to run). It is written at a quiescent point — every gradient up to
// `next_batch - 1` applied, none beyond — via write-to-temp + checksum
// footer + atomic rename, so a crash at any instant leaves either the old
// or the new checkpoint fully loadable, never a torn file. Replaying the
// batch stream from `next_batch` reproduces the uninterrupted run exactly.
//
// Codec provenance: a run under the null codec writes the legacy 'EPC1'
// format, byte-identical to pre-codec checkpoints. A lossy run writes
// 'EPC2', which additionally records the codec id; loading under a
// different codec throws a structured PipelineError instead of silently
// resuming a stream whose error budget the new codec would not honour.
#pragma once

#include <string>

#include "codec/grad_codec.hpp"
#include "pipeline/host_embedding_store.hpp"
#include "pipeline/pipeline_error.hpp"  // load throws PipelineError on codec mismatch

namespace elrec {

class BinaryReader;
class BinaryWriter;

/// Every trainer checkpoint starts with a four-byte tag — `legacy_tag`
/// under the null codec (byte-identical to pre-codec files), else
/// `codec_tag` followed by the u32 codec id — and the next batch to run.
void write_checkpoint_header(BinaryWriter& w, const char* legacy_tag,
                             const char* codec_tag, CodecId codec,
                             index_t next_batch);

/// Reads that header and returns the next batch; throws PipelineError when
/// the checkpoint was written under a codec other than `codec`.
index_t read_checkpoint_header(BinaryReader& r, const char* legacy_tag,
                               const char* codec_tag, CodecId codec,
                               const std::string& path);

/// One store's section of a checkpoint: rows, dim, weights. The reader
/// checks the shape against `store` and returns the weights without
/// installing them, so callers can verify the footer first.
void write_store_section(BinaryWriter& w, const HostEmbeddingStore& store);
Matrix read_store_section(BinaryReader& r, const HostEmbeddingStore& store);

/// Atomically persists the store plus the id of the next batch to run.
void save_pipeline_checkpoint(const HostEmbeddingStore& store,
                              index_t next_batch, const std::string& path,
                              CodecId codec = CodecId::kNull);

/// Restores weights into a shape-identical store; returns `next_batch`.
/// Throws on missing, truncated, or corrupt files, and PipelineError when
/// the checkpoint was written under a different codec than `codec`.
index_t load_pipeline_checkpoint(HostEmbeddingStore& store,
                                 const std::string& path,
                                 CodecId codec = CodecId::kNull);

}  // namespace elrec
