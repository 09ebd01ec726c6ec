// EL-Rec end-to-end training system (paper Fig. 9).
//
// Assembles the full design: Eff-TT tables (and small dense tables) live on
// the "device" (worker), oversized tables live in the HostEmbeddingStore
// behind a prefetch/gradient queue pair, and an EmbeddingCache per host
// table repairs the pipeline RAW hazard. The server thread doubles as the
// data loader; the worker thread runs DLRM forward/backward.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "common/retry.hpp"
#include "core/eff_tt_table.hpp"
#include "data/synthetic.hpp"
#include "dlrm/dlrm_model.hpp"
#include "pipeline/embedding_cache.hpp"
#include "pipeline/host_embedding_store.hpp"
#include "pipeline/pipeline_error.hpp"
#include "pipeline/pipeline_trainer.hpp"

namespace elrec {

/// Placement of one embedding table in the EL-Rec hierarchy.
enum class TablePlacement {
  kDeviceDense,  // small table, kept dense on the worker
  kDeviceTT,     // compressed to an Eff-TT table on the worker
  kHost,         // parameter-server resident, pipelined
};

/// The pipeline knobs (queue depth, cache, retry, deadlines, checkpoint
/// cadence, codec) come from PipelineConfig: queue_capacity 1 is EL-Rec
/// (Sequential) of Fig. 16, and a checkpoint holds the model parameters plus
/// every host store.
struct ElRecTrainerConfig : PipelineConfig {
  DlrmConfig model;
  std::vector<TablePlacement> placement;  // one per table
  index_t tt_rank = 16;
  std::uint64_t seed = 1;
};

/// Chooses placements the way the paper does: tables above `tt_threshold`
/// rows are compressed to Eff-TT; tables above `host_threshold` (when TT is
/// disabled) or explicitly oversized ones go to the host.
std::vector<TablePlacement> default_placement(const DatasetSpec& spec,
                                              index_t tt_threshold,
                                              index_t host_threshold);

/// Host-resident table seen from the worker: forward pools from rows the
/// pipeline installed; backward captures aggregated gradients for the
/// gradient queue instead of updating locally.
class HostTableClient final : public IEmbeddingTable {
 public:
  HostTableClient(index_t num_rows, index_t dim)
      : num_rows_(num_rows), dim_(dim) {}

  index_t num_rows() const override { return num_rows_; }
  index_t dim() const override { return dim_; }

  /// Called by the trainer before forward: the synchronized parameter rows
  /// for this batch's unique indices.
  void install(std::vector<index_t> unique, Matrix rows);

  void forward(const IndexBatch& batch, Matrix& out) override;
  void backward_and_update(const IndexBatch& batch, const Matrix& grad_out,
                           float lr) override;

  std::size_t parameter_bytes() const override { return 0; }  // host-owned
  std::string name() const override { return "HostTableClient"; }

  void visit_parameters(const ParameterVisitor&) override {
    // Parameters live in the HostEmbeddingStore; nothing worker-resident.
  }

  const std::vector<index_t>& captured_indices() const { return unique_; }
  const Matrix& captured_grads() const { return grads_; }
  /// Post-update row values (rows - lr * grads) for an embedding cache.
  Matrix updated_rows() const;

  /// Moves the installed rows and the captured gradients out, for a
  /// pipeline that owns both between batches; the next install() and
  /// backward_and_update() refill them.
  void hand_back(Matrix& rows, Matrix& grads);

 private:
  index_t num_rows_;
  index_t dim_;
  float lr_ = 0.0f;
  std::vector<index_t> unique_;
  std::vector<index_t> occurrence_;  // per batch position
  Matrix rows_;
  Matrix grads_;
};

struct ElRecRunStats : PipelineStats {
  double final_loss = 0.0;
  std::vector<float> loss_curve;
};

class ElRecTrainer {
 public:
  ElRecTrainer(ElRecTrainerConfig config, const DatasetSpec& spec);

  /// Trains for `num_batches` batches of `batch_size`, streaming data from
  /// `data`, starting at `start_batch` (pass the value resume() returned,
  /// with `data` fast-forwarded past the already-trained batches, to
  /// continue an interrupted run). Runs on run_pipeline(): pipelined when
  /// queue_capacity > 1, sequential otherwise; throws PipelineError on any
  /// thread failure, after the shutdown protocol has quiesced the pipeline.
  ElRecRunStats train(SyntheticDataset& data, index_t num_batches,
                      index_t batch_size, index_t start_batch = 0);

  /// Loads the last durable checkpoint (model parameters + every host
  /// store) into this trainer and returns the batch id to pass to train()
  /// as start_batch. The trainer must be constructed with the same config.
  index_t resume(const std::string& path);

  DlrmModel& model() { return *model_; }
  HostEmbeddingStore& host_store(std::size_t i) { return *host_stores_[i]; }
  std::size_t num_host_tables() const { return host_stores_.size(); }
  std::size_t device_embedding_bytes() const;

 private:
  /// Atomically persists model parameters + host stores + `next_batch`.
  void save_checkpoint(index_t next_batch);

  ElRecTrainerConfig config_;
  std::vector<std::size_t> host_tables_;         // host index -> table
  std::vector<HostTableClient*> host_clients_;   // borrowed from model_
  std::vector<std::unique_ptr<HostEmbeddingStore>> host_stores_;
  std::unique_ptr<DlrmModel> model_;
};

}  // namespace elrec
