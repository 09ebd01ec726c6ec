// Tests for the pipeline training system (§V): host store semantics, the
// embedding cache LC protocol, ring all-reduce, and — the paper's key
// correctness claim — pipelined training with the cache matching a
// sequential oracle exactly, while disabling the cache reproduces the RAW
// staleness bug.
#include <gtest/gtest.h>

#include <thread>

#include "embed/minibatch.hpp"
#include "pipeline/allreduce.hpp"
#include "pipeline/embedding_cache.hpp"
#include "pipeline/host_embedding_store.hpp"
#include "pipeline/pipeline_trainer.hpp"

namespace elrec {
namespace {

TEST(HostEmbeddingStore, PullGathersRows) {
  Prng rng(1);
  HostEmbeddingStore store(20, 4, rng);
  Matrix rows;
  store.pull({3, 17, 3}, rows);
  ASSERT_EQ(rows.rows(), 3);
  for (index_t j = 0; j < 4; ++j) {
    EXPECT_EQ(rows.at(0, j), store.weights().at(3, j));
    EXPECT_EQ(rows.at(1, j), store.weights().at(17, j));
    EXPECT_EQ(rows.at(2, j), rows.at(0, j));
  }
}

TEST(HostEmbeddingStore, ApplyGradientsIsSgd) {
  Prng rng(2);
  HostEmbeddingStore store(20, 2, rng);
  const auto before = store.row_copy(5);
  Matrix grads{{1.0f, -2.0f}};
  store.apply_gradients({5}, grads, 0.5f);
  const auto after = store.row_copy(5);
  EXPECT_NEAR(after[0], before[0] - 0.5f, 1e-6f);
  EXPECT_NEAR(after[1], before[1] + 1.0f, 1e-6f);
}

TEST(HostEmbeddingStore, PullOutOfRangeThrows) {
  Prng rng(3);
  HostEmbeddingStore store(20, 2, rng);
  Matrix rows;
  EXPECT_THROW(store.pull({20}, rows), Error);
}

TEST(EmbeddingCacheTest, SyncPatchesOnlyCachedRows) {
  EmbeddingCache cache(2, 3);
  Matrix vals{{10.0f, 11.0f}};
  cache.insert({7}, vals, 0);
  Matrix rows{{1.0f, 2.0f}, {3.0f, 4.0f}};
  const index_t patched = cache.sync({7, 8}, rows);
  EXPECT_EQ(patched, 1);
  EXPECT_EQ(rows.at(0, 0), 10.0f);  // patched from cache
  EXPECT_EQ(rows.at(1, 0), 3.0f);   // untouched
}

TEST(EmbeddingCacheTest, LifeCycleEvictsAfterHostAbsorption) {
  EmbeddingCache cache(1, 2);  // 2 lives
  Matrix vals{{5.0f}};
  cache.insert({1}, vals, /*batch_id=*/0);
  // Host has NOT applied batch 0 yet: lives must not drain.
  cache.retire_batch(-1);
  cache.retire_batch(-1);
  cache.retire_batch(-1);
  EXPECT_EQ(cache.size(), 1u);
  // Host applied batch 0: two retirements drain the lives.
  cache.retire_batch(0);
  EXPECT_EQ(cache.size(), 1u);
  cache.retire_batch(0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EmbeddingCacheTest, RefreshResetsLifeCycle) {
  EmbeddingCache cache(1, 2);
  Matrix vals{{5.0f}};
  cache.insert({1}, vals, 0);
  cache.retire_batch(0);
  Matrix vals2{{6.0f}};
  cache.insert({1}, vals2, 3);  // refresh: new write, new lives
  cache.retire_batch(0);        // batch 3 not yet absorbed -> no drain
  cache.retire_batch(0);
  EXPECT_EQ(cache.size(), 1u);
  Matrix rows{{0.0f}};
  cache.sync({1}, rows);
  EXPECT_EQ(rows.at(0, 0), 6.0f);  // latest value
}

TEST(EmbeddingCacheTest, PeakSizeTracksHighWater) {
  EmbeddingCache cache(1, 1);
  Matrix v{{1.0f}, {2.0f}, {3.0f}};
  cache.insert({1, 2, 3}, v, 0);
  cache.retire_batch(0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.peak_size(), 3u);
}

TEST(RingAllReduceTest, SingleWorkerIsIdentity) {
  RingAllReduce ring(1);
  std::vector<float> data{1.0f, 2.0f};
  ring.allreduce_mean(0, data);
  EXPECT_EQ(data[0], 1.0f);
}

class RingAllReduceParam : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RingAllReduceParam, ComputesElementwiseMean) {
  const auto [workers, n] = GetParam();
  RingAllReduce ring(workers);
  std::vector<std::vector<float>> data(static_cast<std::size_t>(workers));
  std::vector<float> expected(static_cast<std::size_t>(n), 0.0f);
  Prng rng(9);
  for (int w = 0; w < workers; ++w) {
    data[static_cast<std::size_t>(w)].resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto v = static_cast<float>(rng.normal());
      data[static_cast<std::size_t>(w)][static_cast<std::size_t>(i)] = v;
      expected[static_cast<std::size_t>(i)] += v / workers;
    }
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      ring.allreduce_mean(w, data[static_cast<std::size_t>(w)]);
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < workers; ++w) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(data[static_cast<std::size_t>(w)][static_cast<std::size_t>(i)],
                  expected[static_cast<std::size_t>(i)], 1e-5f)
          << "worker " << w << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkerAndSizeSweep, RingAllReduceParam,
    ::testing::Values(std::make_pair(2, 10), std::make_pair(3, 7),
                      std::make_pair(4, 64), std::make_pair(4, 3),
                      std::make_pair(5, 1)));

TEST(RingAllReduceTest, RingBytesFormula) {
  EXPECT_DOUBLE_EQ(RingAllReduce::ring_bytes_per_worker(100.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(RingAllReduce::ring_bytes_per_worker(100.0, 4), 150.0);
}

// ---------------------------------------------------------------------
// Pipeline vs sequential-oracle equivalence.
// ---------------------------------------------------------------------

// Deterministic "loss": grad(row) = row - target, target fixed per index.
// Sequentially this is an exponential-decay iteration and every batch's
// gradient depends on the CURRENT parameter value, so stale reads change
// the result — exactly the RAW hazard the embedding cache must fix.
ComputeStep decay_compute() {
  return [](index_t /*batch_id*/, const std::vector<index_t>& indices,
            const Matrix& rows, Matrix& grads) {
    grads.resize(rows.rows(), rows.cols());
    for (index_t i = 0; i < rows.rows(); ++i) {
      const float target = static_cast<float>(indices[static_cast<std::size_t>(i)]);
      for (index_t j = 0; j < rows.cols(); ++j) {
        grads.at(i, j) = rows.at(i, j) - target;
      }
    }
  };
}

std::vector<std::vector<index_t>> overlapping_batches(index_t num_batches,
                                                      index_t table_rows,
                                                      std::uint64_t seed) {
  // Batches share indices aggressively so consecutive batches conflict.
  Prng rng(seed);
  std::vector<std::vector<index_t>> batches;
  for (index_t b = 0; b < num_batches; ++b) {
    std::vector<index_t> unique;
    for (index_t i = 0; i < table_rows; ++i) {
      if (rng.uniform() < 0.5) unique.push_back(i);
    }
    if (unique.empty()) unique.push_back(0);
    batches.push_back(std::move(unique));
  }
  return batches;
}

Matrix run_sequential_oracle(const std::vector<std::vector<index_t>>& batches,
                             index_t rows, index_t dim, float lr,
                             std::uint64_t seed) {
  Prng rng(seed);
  HostEmbeddingStore store(rows, dim, rng);
  const ComputeStep compute = decay_compute();
  Matrix pulled, grads;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    store.pull(batches[b], pulled);
    compute(static_cast<index_t>(b), batches[b], pulled, grads);
    store.apply_gradients(batches[b], grads, lr);
  }
  return store.weights();
}

class PipelineDepthTest : public ::testing::TestWithParam<index_t> {};

TEST_P(PipelineDepthTest, MatchesSequentialOracleWithCache) {
  const index_t depth = GetParam();
  const auto batches = overlapping_batches(40, 24, 77);
  const Matrix oracle = run_sequential_oracle(batches, 24, 3, 0.3f, 123);

  Prng rng(123);
  HostEmbeddingStore store(24, 3, rng);
  PipelineConfig cfg;
  cfg.queue_capacity = depth;
  cfg.lr = 0.3f;
  cfg.use_embedding_cache = true;
  PipelineTrainer trainer(store, cfg);
  const PipelineStats stats = trainer.run(batches, decay_compute());
  EXPECT_EQ(stats.batches, 40);
  EXPECT_LT(Matrix::max_abs_diff(store.weights(), oracle), 1e-5f)
      << "pipelined training diverged from the sequential oracle at depth "
      << depth;
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepthTest,
                         ::testing::Values<index_t>(1, 2, 4, 8));

TEST(PipelineTrainerTest, DisablingCacheReproducesRawBug) {
  // With deep queues and no cache, prefetched rows are stale and the result
  // must deviate from the oracle (this is Fig. 10a's failure mode). Guards
  // against the test above passing vacuously.
  const auto batches = overlapping_batches(40, 24, 77);
  const Matrix oracle = run_sequential_oracle(batches, 24, 3, 0.3f, 123);

  Prng rng(123);
  HostEmbeddingStore store(24, 3, rng);
  PipelineConfig cfg;
  cfg.queue_capacity = 8;
  cfg.lr = 0.3f;
  cfg.use_embedding_cache = false;
  PipelineTrainer trainer(store, cfg);
  trainer.run(batches, decay_compute());
  EXPECT_GT(Matrix::max_abs_diff(store.weights(), oracle), 1e-3f);
}

TEST(PipelineTrainerTest, CachePatchesRowsUnderDeepPipelines) {
  const auto batches = overlapping_batches(30, 16, 5);
  Prng rng(9);
  HostEmbeddingStore store(16, 2, rng);
  PipelineConfig cfg;
  cfg.queue_capacity = 4;
  PipelineTrainer trainer(store, cfg);
  const PipelineStats stats = trainer.run(batches, decay_compute());
  EXPECT_GT(stats.rows_patched, 0);
  // LC management must bound the cache: never more than a few batches of
  // rows resident.
  EXPECT_LE(stats.cache_peak, 16u * (4 + 2));
}

TEST(PipelineTrainerTest, SequentialModeNeedsNoPatches) {
  // Depth-1 queues serialize server and worker; with gradients applied
  // before the next pull there is no staleness... but the server MAY
  // prefetch batch i+1 before batch i's gradient arrives, so patches can
  // still occur. What must hold: the result matches the oracle (covered by
  // the parameterized test) and the pipeline completes without deadlock.
  const auto batches = overlapping_batches(10, 8, 3);
  Prng rng(4);
  HostEmbeddingStore store(8, 2, rng);
  PipelineConfig cfg;
  cfg.queue_capacity = 1;
  PipelineTrainer trainer(store, cfg);
  const PipelineStats stats = trainer.run(batches, decay_compute());
  EXPECT_EQ(stats.batches, 10);
}

TEST(PipelineRuntimeTest, StoresAndPayloadTravelTogetherBitwise) {
  // Two stores of different shapes plus a payload that names its batch:
  // the worker must see each batch's own payload next to that batch's
  // rows, and the stores must end bitwise equal to the sequential oracle.
  const auto batches_a = overlapping_batches(30, 24, 77);
  const auto batches_b = overlapping_batches(30, 16, 78);
  const Matrix oracle_a = run_sequential_oracle(batches_a, 24, 3, 0.3f, 123);
  const Matrix oracle_b = run_sequential_oracle(batches_b, 16, 2, 0.3f, 456);

  Prng rng_a(123), rng_b(456);
  HostEmbeddingStore store_a(24, 3, rng_a);
  HostEmbeddingStore store_b(16, 2, rng_b);
  PipelineConfig cfg;
  cfg.queue_capacity = 4;
  cfg.lr = 0.3f;
  const ComputeStep decay = decay_compute();
  PipelineSteps<MiniBatch> steps;
  steps.load = [&](index_t b, RowIds& unique) {
    unique[0] = batches_a[static_cast<std::size_t>(b)];
    unique[1] = batches_b[static_cast<std::size_t>(b)];
    MiniBatch payload;
    payload.labels = {static_cast<float>(b)};
    return payload;
  };
  steps.compute = [&](index_t b, MiniBatch& payload, const RowIds& unique,
                      std::vector<Matrix>& rows, std::vector<Matrix>& grads) {
    EXPECT_EQ(payload.labels, std::vector<float>{static_cast<float>(b)});
    for (std::size_t h = 0; h < 2; ++h) decay(b, unique[h], rows[h], grads[h]);
  };
  const PipelineStats stats =
      run_pipeline({&store_a, &store_b}, cfg, 0, 30, steps);
  EXPECT_EQ(stats.batches, 30);
  EXPECT_GT(stats.rows_patched, 0);
  EXPECT_EQ(Matrix::max_abs_diff(store_a.weights(), oracle_a), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(store_b.weights(), oracle_b), 0.0f);
}

}  // namespace
}  // namespace elrec
