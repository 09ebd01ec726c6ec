#include <algorithm>
#include <cmath>
#include <cstring>

#include "codec/grad_codec.hpp"
#include "core/eff_tt_table.hpp"
#include "dlrm/interaction.hpp"
#include "dlrm/loss.hpp"
#include "dlrm/mlp.hpp"
#include "embed/embedding_bag.hpp"
#include "obs/trace.hpp"
#include "phases.hpp"
#include "pipeline/embedding_cache.hpp"
#include "pipeline/host_embedding_store.hpp"

namespace perfbench {

using namespace elrec;

ModelSetup make_model_setup(const Workload& w, const Options& o) {
  ModelSetup m;
  m.spec.name = w.name;
  m.spec.num_dense = 13;
  m.spec.table_rows = o.tiny ? std::vector<index_t>{4000, 1200, 400, 50}
                             : std::vector<index_t>{1000000, 300000, 100000, 1000};
  m.spec.num_samples = index_t{1} << 24;
  m.spec.zipf_s = 1.05;

  ElRecTrainerConfig& c = m.trainer;
  c.model.num_dense = m.spec.num_dense;
  c.model.embedding_dim = 32;
  c.model.bottom_hidden = {64, 32};
  c.model.top_hidden = {128, 64};
  const TablePlacement large =
      w.host_tables ? TablePlacement::kHost : TablePlacement::kDeviceTT;
  c.placement = {large, large, large, TablePlacement::kDeviceDense};
  c.tt_rank = 16;
  c.queue_capacity = 4;
  c.lr = 0.05f;
  c.seed = o.seed;
  m.data_seed = o.seed * 0x9E3779B97F4A7C15ULL + 0x5EED;

  m.batch_size = o.tiny ? 128 : 2048;
  m.loss_steps = o.tiny ? 8 : 40;
  m.loss_window = o.tiny ? 4 : 10;
  m.replay_steps = o.tiny ? 6 : 24;
  m.cache_rows = o.tiny ? 128 : 4096;
  m.warm_draws = o.tiny ? 4096 : 100000;
  m.fixed_rps = o.tiny ? 2000.0 : 20000.0;
  m.limit_us = 2000.0;
  return m;
}

namespace {

// Drives one trainer in chunks of whole train() calls, continuing the same
// data stream and batch ids, and keeps the full loss curve.
struct ChunkedTrainer {
  ChunkedTrainer(ElRecTrainer& t, SyntheticDataset& d, index_t b)
      : trainer(t), data(d), batch_size(b) {}

  ElRecTrainer& trainer;
  SyntheticDataset& data;
  index_t batch_size;
  index_t done = 0;
  std::vector<float> losses;

  // Runs `steps` more batches; returns samples/s over the call.
  double run(index_t steps) {
    const auto t0 = Clock::now();
    const ElRecRunStats s = trainer.train(data, done + steps, batch_size, done);
    const double dt = seconds_since(t0);
    losses.insert(losses.end(), s.loss_curve.begin(), s.loss_curve.end());
    done += steps;
    return static_cast<double>(steps * batch_size) / dt;
  }
};

// Steps per chunk so that about `chunks` chunks fill the budget, from the
// measured time of the warm-up steps (an overestimate: it includes
// first-touch costs, so chunks come out short rather than long).
index_t chunk_steps(double budget_s, double chunks, double warm_s,
                    index_t warm_steps) {
  const double step_s = warm_s / static_cast<double>(warm_steps);
  const auto k = static_cast<index_t>(std::llround(budget_s / chunks / step_s));
  return std::clamp<index_t>(k, 2, 400);
}

// Every step's loss must be finite; a non-finite loss is a failed step.
void check_losses(const std::vector<float>& losses, Report& r) {
  std::uint64_t non_finite = 0;
  for (const float l : losses) non_finite += std::isfinite(l) ? 0 : 1;
  r.ops(losses.size(), non_finite);
  r.check("train_loss_finite", non_finite == 0,
          std::to_string(non_finite) + " non-finite step losses of " +
              std::to_string(losses.size()));
}

// train_loss: the arithmetic check. A short run of the workload's model
// from one fixed seed, so the value moves only when the arithmetic does,
// never with --seed or with how many steps the time budget allowed.
void run_loss_check(const ModelSetup& m, Report& r) {
  constexpr std::uint64_t kLossSeed = 20221113;
  ModelSetup fixed = m;
  fixed.trainer.seed = kLossSeed;
  ElRecTrainer trainer(fixed.trainer, fixed.spec);
  SyntheticDataset data(fixed.spec, kLossSeed + 1);
  const ElRecRunStats s = trainer.train(data, m.loss_steps, m.batch_size);
  check_losses(s.loss_curve, r);
  double sum = 0.0;
  for (index_t i = m.loss_steps - m.loss_window; i < m.loss_steps; ++i) {
    sum += s.loss_curve[static_cast<std::size_t>(i)];
  }
  r.metric("train_loss", sum / static_cast<double>(m.loss_window), "bce");
}

bool bitwise_equal_prefix(const std::vector<float>& a,
                          const std::vector<float>& b, std::size_t n) {
  return a.size() >= n && b.size() >= n &&
         std::memcmp(a.data(), b.data(), n * sizeof(float)) == 0;
}

// One training step composed by hand from the public layer classes, in the
// order DlrmModel::train_step and ElRecTrainer run them, with every layer
// call timed. Sequential: the host store absorbs batch b's gradients before
// batch b+1 is pulled. Built from the same seeds as the trainer, so its loss
// curve must equal the trainer's bitwise — the replay's fidelity check.
class StepReplay {
 public:
  explicit StepReplay(const ModelSetup& m)
      : m_(m), data_(m.spec, m.data_seed) {
    const ElRecTrainerConfig& c = m.trainer;
    const index_t dim = c.model.embedding_dim;
    Prng rng(c.seed);  // same draw order as ElRecTrainer's constructor
    for (std::size_t t = 0; t < m.spec.table_rows.size(); ++t) {
      const index_t rows = m.spec.table_rows[t];
      switch (c.placement[t]) {
        case TablePlacement::kDeviceDense:
          tables_.push_back(std::make_unique<EmbeddingBag>(rows, dim, rng));
          break;
        case TablePlacement::kDeviceTT:
          tables_.push_back(std::make_unique<EffTTTable>(
              rows, TTShape::balanced(rows, dim, 3, c.tt_rank), rng));
          break;
        case TablePlacement::kHost: {
          stores_.push_back(
              std::make_unique<HostEmbeddingStore>(rows, dim, rng));
          auto client = std::make_unique<HostTableClient>(rows, dim);
          host_.push_back({t, client.get()});
          tables_.push_back(std::move(client));
          pull_codecs_.push_back(make_codec(c.codec));
          grad_codecs_.push_back(make_codec(c.codec));
          caches_.emplace_back(dim, c.queue_capacity + 1, c.codec);
          break;
        }
      }
    }
    const auto features = static_cast<index_t>(tables_.size()) + 1;
    bottom_ = std::make_unique<Mlp>(
        mlp_sizes(c.model.num_dense, c.model.bottom_hidden, dim), rng);
    top_ = std::make_unique<Mlp>(
        mlp_sizes(dim + features * (features - 1) / 2, c.model.top_hidden, 1),
        rng);
    interaction_ = std::make_unique<FeatureInteraction>(features, dim);
    emb_out_.resize(tables_.size());
    unique_.resize(host_.size());
  }

  float step(index_t b, LayerClock& clock) {
    const float lr = m_.trainer.lr;
    MiniBatch batch;
    clock.time("bench.data.next_batch",
               [&] { batch = data_.next_batch(m_.batch_size); });

    // Server: pull and encode the batch's host rows. Worker: decode them,
    // repair read-after-write hazards from the cache, install them.
    for (std::size_t h = 0; h < host_.size(); ++h) {
      const IndexBatch& ib = batch.sparse[host_[h].table];
      clock.time("bench.pipeline.host_pull", [&] {
        unique_[h] = build_unique_index_map(ib.indices).unique;
        stores_[h]->pull(unique_[h], pulled_);
      });
      clock.time("bench.codec.encode",
                 [&] { pull_codecs_[h]->encode(pulled_, blob_); });
      clock.time("bench.codec.decode", [&] { decode_blob(blob_, rows_); });
      clock.time("bench.pipeline.cache_sync",
                 [&] { caches_[h].sync(unique_[h], rows_); });
      clock.time("bench.pipeline.host_client",
                 [&] { host_[h].client->install(unique_[h], std::move(rows_)); });
    }

    clock.time("bench.dlrm.mlp.fwd",
               [&] { bottom_->forward(batch.dense, bottom_out_); });
    std::vector<const Matrix*> features{&bottom_out_};
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      clock.time(table_span(t, true), [&] {
        tables_[t]->forward(batch.sparse[t], emb_out_[t]);
      });
      features.push_back(&emb_out_[t]);
    }
    clock.time("bench.dlrm.interaction.fwd",
               [&] { interaction_->forward(features, interact_out_); });
    clock.time("bench.dlrm.mlp.fwd",
               [&] { top_->forward(interact_out_, logits_); });
    float loss = 0.0f;
    clock.time("bench.dlrm.loss", [&] {
      loss = bce_with_logits_loss(logits_, batch.labels);
      bce_with_logits_backward(logits_, batch.labels, grad_logits_);
    });
    clock.time("bench.dlrm.mlp.bwd", [&] {
      top_->backward_and_update(grad_logits_, grad_interact_, lr);
    });
    clock.time("bench.dlrm.interaction.bwd",
               [&] { interaction_->backward(grad_interact_, feature_grads_); });
    clock.time("bench.dlrm.mlp.bwd", [&] {
      bottom_->backward_and_update(feature_grads_[0], grad_dense_, lr);
    });
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      clock.time(table_span(t, false), [&] {
        tables_[t]->backward_and_update(batch.sparse[t], feature_grads_[t + 1],
                                        lr);
      });
    }

    // Worker: encode the host-table gradients and refresh the cache with
    // the post-update rows. Server: decode and apply them.
    for (std::size_t h = 0; h < host_.size(); ++h) {
      HostTableClient& client = *host_[h].client;
      clock.time("bench.codec.encode", [&] {
        grad_codecs_[h]->encode(client.captured_grads(), blob_);
      });
      clock.time("bench.pipeline.cache_update", [&] {
        caches_[h].insert(client.captured_indices(), client.updated_rows(), b);
        caches_[h].retire_batch(b - 1);
      });
      clock.time("bench.codec.decode", [&] { decode_blob(blob_, grads_); });
      clock.time("bench.pipeline.host_push", [&] {
        stores_[h]->apply_gradients(client.captured_indices(), grads_, lr);
      });
    }
    return loss;
  }

 private:
  struct HostSlot {
    std::size_t table;
    HostTableClient* client;
  };

  const char* table_span(std::size_t t, bool forward) const {
    switch (m_.trainer.placement[t]) {
      case TablePlacement::kDeviceTT:
        return forward ? "bench.core.efftt.fwd" : "bench.core.efftt.bwd";
      case TablePlacement::kHost:
        return "bench.pipeline.host_client";
      case TablePlacement::kDeviceDense:
        break;
    }
    return "bench.dlrm.dense_table";
  }

  const ModelSetup& m_;
  SyntheticDataset data_;
  std::vector<std::unique_ptr<IEmbeddingTable>> tables_;
  std::vector<std::unique_ptr<HostEmbeddingStore>> stores_;
  std::vector<HostSlot> host_;
  std::vector<std::unique_ptr<IGradCodec>> pull_codecs_, grad_codecs_;
  std::vector<EmbeddingCache> caches_;
  std::unique_ptr<Mlp> bottom_, top_;
  std::unique_ptr<FeatureInteraction> interaction_;

  std::vector<std::vector<index_t>> unique_;
  Matrix pulled_, rows_, grads_;
  EncodedBlob blob_;
  Matrix bottom_out_, interact_out_, logits_;
  Matrix grad_logits_, grad_interact_, grad_dense_;
  std::vector<Matrix> emb_out_, feature_grads_;
};

void run_replay(const ModelSetup& m, const std::vector<float>& trainer_losses,
                Report& r) {
  StepReplay replay(m);
  LayerClock warm_clock, clock;
  std::vector<float> losses;
  const index_t warm = 2;
  double step_us = 0.0;
  obs::set_trace_enabled(true);
  obs::clear_trace();
  for (index_t b = 0; b < m.replay_steps; ++b) {
    const auto t0 = Clock::now();
    losses.push_back(replay.step(b, b < warm ? warm_clock : clock));
    if (b >= warm) step_us += seconds_since(t0) * 1e6;
  }
  obs::set_trace_enabled(false);

  r.check("replay_loss_equals_trainer_bitwise",
          bitwise_equal_prefix(losses, trainer_losses, losses.size()),
          "layer replay vs ElRecTrainer loss curve, first " +
              std::to_string(losses.size()) + " steps");
  r.ops(losses.size(), 0);

  const auto steps = static_cast<double>(m.replay_steps - warm);
  auto per_step = [&](const char* metric, const char* span) {
    r.metric(metric, clock.us(span) / steps, "us");
  };
  per_step("dlrm.mlp.fwd_us", "bench.dlrm.mlp.fwd");
  per_step("dlrm.mlp.bwd_us", "bench.dlrm.mlp.bwd");
  per_step("dlrm.interaction.fwd_us", "bench.dlrm.interaction.fwd");
  per_step("dlrm.interaction.bwd_us", "bench.dlrm.interaction.bwd");
  per_step("dlrm.loss_us", "bench.dlrm.loss");
  per_step("dlrm.dense_table_us", "bench.dlrm.dense_table");
  per_step("core.efftt.fwd_us", "bench.core.efftt.fwd");
  per_step("core.efftt.bwd_us", "bench.core.efftt.bwd");
  per_step("codec.encode_us", "bench.codec.encode");
  per_step("codec.decode_us", "bench.codec.decode");
  per_step("pipeline.cache_sync_us", "bench.pipeline.cache_sync");
  per_step("pipeline.cache_update_us", "bench.pipeline.cache_update");
  per_step("pipeline.host_pull_us", "bench.pipeline.host_pull");
  per_step("pipeline.host_push_us", "bench.pipeline.host_push");
  per_step("pipeline.host_client_us", "bench.pipeline.host_client");
  per_step("data.next_batch_us", "bench.data.next_batch");
  r.metric("train.replay_step_us", step_us / steps, "us");
  r.metric("train.unattributed_share", 1.0 - clock.total_us() / step_us,
           "share");
}

void run_untraced(const ModelSetup& m, ElRecTrainer& trainer,
                  SyntheticDataset& data, double budget_s, Report& r) {
  ChunkedTrainer q4{trainer, data, m.batch_size};
  const index_t warm = 4;
  const auto t_warm = Clock::now();
  q4.run(warm);
  const index_t k = chunk_steps(budget_s, 30.0, seconds_since(t_warm), warm);
  std::vector<double> rates;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < budget_s || rates.size() < 3) {
    rates.push_back(q4.run(k));
  }
  r.metric("train_samples_per_s", median(rates), "1/s");
  r.meta("train_chunk_steps", static_cast<double>(k));
  r.meta("train_chunks", static_cast<double>(rates.size()));
  r.meta("train_rate_relative_iqr", relative_iqr(rates));
  std::string all;
  for (double x : rates) all += std::to_string(std::llround(x)) + " ";
  r.meta("train_rates", all);
  check_losses(q4.losses, r);
  run_loss_check(m, r);
}

void run_traced(const Workload& w, const Options& o, const ModelSetup& m,
                ElRecTrainer& trainer, SyntheticDataset& data,
                double budget_s, Report& r) {
  // Queue depth 1 is EL-Rec (Sequential) of Fig. 16: same seeds, same data.
  ElRecTrainerConfig seq_cfg = m.trainer;
  seq_cfg.queue_capacity = 1;
  auto seq_trainer = std::make_unique<ElRecTrainer>(seq_cfg, m.spec);
  SyntheticDataset seq_data(m.spec, m.data_seed);
  ChunkedTrainer q4{trainer, data, m.batch_size};
  ChunkedTrainer q1{*seq_trainer, seq_data, m.batch_size};

  const index_t warm = 4;
  const auto t_warm = Clock::now();
  q4.run(warm);
  q1.run(warm);
  const index_t k =
      chunk_steps(budget_s, 24.0, seconds_since(t_warm) / 2.0, warm);

  // Each round: queue-4 untraced, queue-1 untraced, queue-4 traced. Only
  // the traced chunk's spans and counter deltas feed the layer metrics.
  std::vector<double> q4_rates, q1_rates, ratios, traced_rates;
  SpanTotals spans;
  CounterValues deltas;
  const char* kCounters[] = {
      "tensor.batched_gemm.flops", "tensor.batched_gemm.products",
      "efftt.reuse.hits",          "efftt.reuse.misses",
      "pipeline.cache.patched",    "pipeline.bytes.grad_push",
      "pipeline.bytes.host_pull",  "codec.raw_bytes",
      "codec.encoded_bytes"};
  index_t traced_steps = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < budget_s || ratios.size() < 3) {
    q4_rates.push_back(q4.run(k));
    q1_rates.push_back(q1.run(k));
    ratios.push_back(q4_rates.back() / q1_rates.back());

    const CounterValues before = counter_values();
    obs::clear_trace();
    obs::set_trace_enabled(true);
    traced_rates.push_back(q4.run(k));
    obs::set_trace_enabled(false);
    spans.add(collect_spans());
    const CounterValues after = counter_values();
    for (const char* name : kCounters) {
      deltas[name] += counter_delta(before, after, name);
    }
    traced_steps += k;
  }
  // The rings now hold exactly the last traced chunk.
  obs::write_chrome_trace(o.out_dir + "/trace-" + w.name + "-train.json");

  r.check("queue4_loss_equals_queue1_bitwise",
          bitwise_equal_prefix(q1.losses, q4.losses, q1.losses.size()),
          std::to_string(q1.losses.size()) + " steps compared");
  r.check("trace_ring_no_drops", spans.dropped == 0,
          std::to_string(spans.dropped) + " span events overwritten");
  check_losses(q4.losses, r);
  check_losses(q1.losses, r);

  const auto steps = static_cast<double>(traced_steps);
  const double batch_us = spans.get_us("elrec.batch");
  const double wait_us = spans.get_us("elrec.prefetch_wait");
  r.metric("pipeline.overlap_speedup", median(ratios), "x");
  r.metric("pipeline.overlap_speedup_iqr", relative_iqr(ratios), "share");
  r.metric("train.trace_overhead_share",
           1.0 - median(traced_rates) / median(q4_rates), "share");
  r.metric("pipeline.worker_busy_us", (batch_us - wait_us) / steps, "us");
  r.metric("pipeline.server_busy_us",
           (spans.get_us("elrec.host_pull") + spans.get_us("elrec.host_push")) /
               steps,
           "us");
  r.metric("pipeline.prefetch_wait_share",
           batch_us > 0.0 ? wait_us / batch_us : 0.0, "share");
  r.metric("pipeline.cache.patched_per_step",
           static_cast<double>(deltas["pipeline.cache.patched"]) / steps,
           "rows");
  r.metric("pipeline.queue_bytes_per_step",
           static_cast<double>(deltas["pipeline.bytes.grad_push"] +
                               deltas["pipeline.bytes.host_pull"]) /
               steps,
           "bytes");
  const double gemm_us = spans.get_us("tensor.batched_gemm");
  r.metric("tensor.batched_gemm.gflops",
           gemm_us > 0.0
               ? static_cast<double>(deltas["tensor.batched_gemm.flops"]) /
                     (gemm_us * 1e3)
               : 0.0,
           "GFLOP/s");
  r.metric("tensor.batched_gemm.products_per_step",
           static_cast<double>(deltas["tensor.batched_gemm.products"]) / steps,
           "count");
  const auto lookups = deltas["efftt.reuse.hits"] + deltas["efftt.reuse.misses"];
  r.metric("core.efftt.reuse_hit_ratio",
           lookups > 0 ? static_cast<double>(deltas["efftt.reuse.hits"]) /
                             static_cast<double>(lookups)
                       : 0.0,
           "share");
  const auto raw = deltas["codec.raw_bytes"];
  r.metric("codec.bytes_ratio",
           raw > 0 ? static_cast<double>(deltas["codec.encoded_bytes"]) /
                         static_cast<double>(raw)
                   : 0.0,
           "ratio");

  seq_trainer.reset();  // the replay builds a third copy of the model
  run_replay(m, q4.losses, r);
  obs::write_chrome_trace(o.out_dir + "/trace-" + w.name + "-replay.json");
}

}  // namespace

void run_train_phase(const Workload& w, const Options& o, const ModelSetup& m,
                     ElRecTrainer& trainer, SyntheticDataset& data,
                     double budget_s, Report& report) {
  if (o.trace) {
    run_traced(w, o, m, trainer, data, budget_s, report);
  } else {
    run_untraced(m, trainer, data, budget_s, report);
  }
}

}  // namespace perfbench
