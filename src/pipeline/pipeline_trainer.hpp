// The pipelined parameter-server training runtime (§V-A, Fig. 9/10a).
//
// A server thread loads upcoming batches, pre-fetches the embedding rows
// each one reads from every HostEmbeddingStore into a bounded Pre-fetch
// Queue, and drains a Gradient Queue back into the stores, while the worker
// (caller thread) consumes prefetched batches, synchronizes their rows
// against one EmbeddingCache per store, runs the compute step, and pushes
// gradients. What a batch is stays opaque to the runtime: it carries a
// caller-defined payload (a MiniBatch for ElRecTrainer, nothing for the
// single-table PipelineTrainer below) from the load step to the compute
// step. Every trainer with host-resident tables runs on run_pipeline().
//
// Fault tolerance: any thread failure runs the shutdown protocol — both
// queues close, the server is joined, in-flight gradients are drained into
// the stores — and surfaces as a PipelineError naming the stage and batch.
// Transient host-store faults are retried with exponential backoff; an
// optional queue deadline converts a stalled peer into a diagnosed error
// instead of a deadlock; periodic crash-safe checkpoints enable resume().
#pragma once

#include <chrono>
#include <functional>
#include <string>

#include "codec/grad_codec.hpp"
#include "common/blocking_queue.hpp"
#include "common/retry.hpp"
#include "pipeline/embedding_cache.hpp"
#include "pipeline/host_embedding_store.hpp"
#include "pipeline/pipeline_error.hpp"

namespace elrec {

struct PipelineConfig {
  index_t queue_capacity = 4;  // depth of both queues; 1 == sequential mode
  float lr = 0.05f;
  bool use_embedding_cache = true;  // off reproduces the RAW bug (Fig. 10a)

  // Bounded retry + backoff for transient host-store pull/push faults.
  RetryPolicy host_retry;

  // Deadline for each queue wait; 0 = wait forever. With a deadline set, a
  // stalled peer (e.g. a wedged server) yields a PipelineError instead of
  // blocking the run indefinitely.
  std::chrono::milliseconds queue_timeout{0};

  // Every n batches the worker waits until the server has applied every
  // gradient so far and then calls the checkpoint step, which writes a
  // crash-safe checkpoint to checkpoint_path (0 = off).
  index_t checkpoint_every_n = 0;
  std::string checkpoint_path;

  // Codec applied to both queue streams (prefetched rows and pushed
  // gradients). The default null codec keeps the run bitwise-identical to
  // an uncompressed pipeline; checkpoints record the codec id and resume()
  // refuses a checkpoint written under a different codec.
  CodecConfig codec;
};

struct PipelineStats {
  index_t batches = 0;
  index_t rows_patched = 0;      // cache sync hits (RAW repairs)
  std::size_t cache_peak = 0;    // max entries of any cache (LC bound check)
  index_t checkpoints_written = 0;
  double wall_seconds = 0.0;
  // Bytes that crossed the queues this run (encoded), and what the same
  // tensors would have cost raw — the bench's bytes-on-queue reduction.
  std::uint64_t encoded_queue_bytes = 0;
  std::uint64_t raw_queue_bytes = 0;
};

/// Per-store row lists of one batch: entry h belongs to stores[h].
using RowIds = std::vector<std::vector<index_t>>;

/// The three caller-supplied steps of a pipelined run.
template <typename Payload>
struct PipelineSteps {
  /// Server thread: loads batch `batch_id` and names, in `unique[h]`, the
  /// distinct rows it reads from store h.
  std::function<Payload(index_t batch_id, RowIds& unique)> load;
  /// Worker thread: trains on the batch. `rows[h]` holds the synchronized
  /// parameters of `unique[h]`; fill `grads[h]` with dL/d(row), same shape.
  /// The step may move the rows out but must put them back unchanged: the
  /// runtime turns them into the cache's post-update rows afterwards.
  std::function<void(index_t batch_id, Payload& payload, const RowIds& unique,
                     std::vector<Matrix>& rows, std::vector<Matrix>& grads)>
      compute;
  /// Worker thread, at a quiescent point (every gradient of the batches
  /// before `next_batch` applied, none after): persists what resume() needs
  /// to replay from `next_batch`. Required when checkpoint_every_n > 0.
  std::function<void(index_t next_batch)> checkpoint;
};

/// Runs batches [start_batch, end_batch) through the pipeline. Blocks until
/// every gradient has been applied to the stores. Throws PipelineError on
/// any thread failure, after the shutdown protocol has quiesced the
/// pipeline. Instantiated for MiniBatch and std::monostate payloads.
template <typename Payload>
PipelineStats run_pipeline(const std::vector<HostEmbeddingStore*>& stores,
                           const PipelineConfig& config, index_t start_batch,
                           index_t end_batch,
                           const PipelineSteps<Payload>& steps);

/// Computes per-unique-row gradients for one batch: given the (synchronized)
/// parameter rows, fill `grads` with dL/d(row).
using ComputeStep = std::function<void(index_t batch_id,
                                       const std::vector<index_t>& indices,
                                       const Matrix& rows, Matrix& grads)>;

/// The runtime over one host store whose batches are given up front as
/// lists of unique row ids; checkpoints hold the store alone.
class PipelineTrainer {
 public:
  PipelineTrainer(HostEmbeddingStore& store, PipelineConfig config);

  /// Runs the pipeline over `batches` (each a list of unique row indices),
  /// starting at `start_batch` (use the value resume() returned to continue
  /// an interrupted run).
  PipelineStats run(const std::vector<std::vector<index_t>>& batches,
                    const ComputeStep& compute, index_t start_batch = 0);

  /// Loads the last durable checkpoint into the host store and returns the
  /// batch id to pass to run() as start_batch. Replaying from there yields
  /// final parameters bitwise-identical to an uninterrupted run.
  index_t resume(const std::string& path);

 private:
  HostEmbeddingStore& store_;
  PipelineConfig config_;
};

}  // namespace elrec
