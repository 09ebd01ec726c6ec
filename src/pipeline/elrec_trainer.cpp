#include "pipeline/elrec_trainer.hpp"

#include "common/serialize.hpp"
#include "embed/embedding_bag.hpp"
#include "pipeline/pipeline_checkpoint.hpp"

namespace elrec {

namespace {

constexpr char kCheckpointTag[4] = {'E', 'L', 'C', '1'};     // null codec
constexpr char kCheckpointTagV2[4] = {'E', 'L', 'C', '2'};   // + u32 codec id

}  // namespace

std::vector<TablePlacement> default_placement(const DatasetSpec& spec,
                                              index_t tt_threshold,
                                              index_t host_threshold) {
  std::vector<TablePlacement> placement;
  placement.reserve(spec.table_rows.size());
  for (index_t rows : spec.table_rows) {
    if (rows >= host_threshold) {
      placement.push_back(TablePlacement::kHost);
    } else if (rows >= tt_threshold) {
      placement.push_back(TablePlacement::kDeviceTT);
    } else {
      placement.push_back(TablePlacement::kDeviceDense);
    }
  }
  return placement;
}

void HostTableClient::install(std::vector<index_t> unique, Matrix rows) {
  ELREC_CHECK(rows.rows() == static_cast<index_t>(unique.size()) &&
                  rows.cols() == dim_,
              "installed rows shape mismatch");
  unique_ = std::move(unique);
  rows_ = std::move(rows);
}

void HostTableClient::forward(const IndexBatch& batch, Matrix& out) {
  batch.validate(num_rows_);
  // Map batch positions onto the installed unique rows.
  occurrence_.resize(batch.indices.size());
  for (std::size_t i = 0; i < batch.indices.size(); ++i) {
    const auto it =
        std::lower_bound(unique_.begin(), unique_.end(), batch.indices[i]);
    ELREC_CHECK(it != unique_.end() && *it == batch.indices[i],
                "batch index missing from installed prefetch rows");
    occurrence_[i] = static_cast<index_t>(it - unique_.begin());
  }
  const index_t b = batch.batch_size();
  out.resize(b, dim_);
  for (index_t s = 0; s < b; ++s) {
    float* dst = out.row(s);
    for (index_t p = batch.bag_begin(s); p < batch.bag_end(s); ++p) {
      const float* src = rows_.row(occurrence_[static_cast<std::size_t>(p)]);
      for (index_t j = 0; j < dim_; ++j) dst[j] += src[j];
    }
  }
}

void HostTableClient::backward_and_update(const IndexBatch& batch,
                                          const Matrix& grad_out, float lr) {
  ELREC_CHECK(grad_out.rows() == batch.batch_size() && grad_out.cols() == dim_,
              "grad_out shape mismatch");
  grads_.resize(static_cast<index_t>(unique_.size()), dim_);
  grads_.set_zero();
  for (index_t s = 0; s < batch.batch_size(); ++s) {
    const float* g = grad_out.row(s);
    for (index_t p = batch.bag_begin(s); p < batch.bag_end(s); ++p) {
      float* dst = grads_.row(occurrence_[static_cast<std::size_t>(p)]);
      for (index_t j = 0; j < dim_; ++j) dst[j] += g[j];
    }
  }
  lr_ = lr;
}

Matrix HostTableClient::updated_rows() const {
  Matrix updated(rows_.rows(), rows_.cols());
  for (index_t i = 0; i < rows_.rows(); ++i) {
    const float* r = rows_.row(i);
    const float* g = grads_.row(i);
    float* u = updated.row(i);
    for (index_t j = 0; j < dim_; ++j) u[j] = r[j] - lr_ * g[j];
  }
  return updated;
}

void HostTableClient::hand_back(Matrix& rows, Matrix& grads) {
  rows = std::move(rows_);
  grads = std::move(grads_);
}

ElRecTrainer::ElRecTrainer(ElRecTrainerConfig config, const DatasetSpec& spec)
    : config_(std::move(config)) {
  ELREC_CHECK(config_.placement.size() == spec.table_rows.size(),
              "one placement per table required");
  Prng rng(config_.seed);

  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  const index_t dim = config_.model.embedding_dim;

  for (std::size_t t = 0; t < spec.table_rows.size(); ++t) {
    const index_t rows = spec.table_rows[t];
    switch (config_.placement[t]) {
      case TablePlacement::kDeviceDense:
        tables.push_back(std::make_unique<EmbeddingBag>(rows, dim, rng));
        break;
      case TablePlacement::kDeviceTT: {
        const TTShape shape = TTShape::balanced(rows, dim, 3, config_.tt_rank);
        tables.push_back(std::make_unique<EffTTTable>(rows, shape, rng));
        break;
      }
      case TablePlacement::kHost: {
        host_tables_.push_back(t);
        host_stores_.push_back(
            std::make_unique<HostEmbeddingStore>(rows, dim, rng));
        auto client = std::make_unique<HostTableClient>(rows, dim);
        host_clients_.push_back(client.get());
        tables.push_back(std::move(client));
        break;
      }
    }
  }
  model_ = std::make_unique<DlrmModel>(config_.model, std::move(tables), rng);
}

std::size_t ElRecTrainer::device_embedding_bytes() const {
  return model_->embedding_bytes();  // HostTableClient reports 0
}

void ElRecTrainer::save_checkpoint(index_t next_batch) {
  write_checkpoint_atomic(config_.checkpoint_path, [&](BinaryWriter& w) {
    write_checkpoint_header(w, kCheckpointTag, kCheckpointTagV2,
                            config_.codec.id, next_batch);
    std::uint64_t count = 0;
    model_->visit_parameters([&](float*, std::size_t) { ++count; });
    w.write_u64(count);
    model_->visit_parameters(
        [&](float* p, std::size_t n) { w.write_array(p, n); });
    w.write_u64(host_stores_.size());
    for (const auto& store : host_stores_) write_store_section(w, *store);
  });
}

index_t ElRecTrainer::resume(const std::string& path) {
  BinaryReader r(path);
  const index_t next_batch = read_checkpoint_header(
      r, kCheckpointTag, kCheckpointTagV2, config_.codec.id, path);
  std::uint64_t count = 0;
  model_->visit_parameters([&](float*, std::size_t) { ++count; });
  const std::uint64_t stored = r.read_u64();
  ELREC_CHECK(stored == count,
              "checkpoint buffer count mismatch — different trainer config");
  model_->visit_parameters([&](float* p, std::size_t n) {
    const auto values = r.read_vector<float>();
    ELREC_CHECK(values.size() == n, "checkpoint buffer size mismatch");
    std::copy(values.begin(), values.end(), p);
  });
  const std::uint64_t num_host = r.read_u64();
  ELREC_CHECK(num_host == host_stores_.size(),
              "checkpoint host-store count mismatch");
  std::vector<Matrix> weights;
  for (const auto& store : host_stores_) {
    weights.push_back(read_store_section(r, *store));
  }
  r.expect_footer();
  for (std::size_t h = 0; h < host_stores_.size(); ++h) {
    host_stores_[h]->load_weights(weights[h]);
  }
  return next_batch;
}

ElRecRunStats ElRecTrainer::train(SyntheticDataset& data, index_t num_batches,
                                  index_t batch_size, index_t start_batch) {
  ElRecRunStats stats;
  std::vector<HostEmbeddingStore*> stores;
  for (const auto& store : host_stores_) stores.push_back(store.get());

  PipelineSteps<MiniBatch> steps;
  // Server thread: the data loader names each host table's unique rows.
  steps.load = [&](index_t, RowIds& unique) {
    MiniBatch batch = data.next_batch(batch_size);
    for (std::size_t h = 0; h < host_tables_.size(); ++h) {
      unique[h] =
          build_unique_index_map(batch.sparse[host_tables_[h]].indices).unique;
    }
    return batch;
  };
  // Worker: DLRM forward/backward. Device tables (dense + Eff-TT) update in
  // place; host clients pool the synchronized rows and capture gradients.
  steps.compute = [&](index_t, MiniBatch& batch, const RowIds& unique,
                      std::vector<Matrix>& rows, std::vector<Matrix>& grads) {
    for (std::size_t h = 0; h < host_clients_.size(); ++h) {
      host_clients_[h]->install(unique[h], std::move(rows[h]));
    }
    stats.loss_curve.push_back(model_->train_step(batch, config_.lr));
    for (std::size_t h = 0; h < host_clients_.size(); ++h) {
      host_clients_[h]->hand_back(rows[h], grads[h]);
    }
  };
  steps.checkpoint = [&](index_t next_batch) { save_checkpoint(next_batch); };

  static_cast<PipelineStats&>(stats) =
      run_pipeline(stores, config_, start_batch, num_batches, steps);
  if (!stats.loss_curve.empty()) stats.final_loss = stats.loss_curve.back();
  return stats;
}

}  // namespace elrec
