#include "pipeline/pipeline_trainer.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <variant>

#include "common/fault_injector.hpp"
#include "common/stopwatch.hpp"
#include "embed/minibatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline_checkpoint.hpp"

namespace elrec {

namespace {

// Bytes-on-queue accounting for the three host-facing streams. These are
// the numbers the simulator's framework cost model and bench_codec consume.
struct PipelineByteCounters {
  obs::Counter& grad_push;  // worker -> gradient queue (encoded)
  obs::Counter& host_push;  // gradient queue -> host store (encoded)
  obs::Counter& host_pull;  // host store -> prefetch queue (encoded)
};

PipelineByteCounters& pipeline_byte_counters() {
  auto& reg = obs::MetricsRegistry::global();
  static PipelineByteCounters c{reg.counter("pipeline.bytes.grad_push"),
                                reg.counter("pipeline.bytes.host_push"),
                                reg.counter("pipeline.bytes.host_pull")};
  return c;
}

std::string describe_exception(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

// One worker-side queue transfer, bounded by `timeout` when it is set
// (0 = wait forever).
template <typename T>
QueueOpStatus pop_within(BlockingQueue<T>& queue, T& out,
                         std::chrono::milliseconds timeout) {
  if (timeout.count() > 0) return queue.try_pop_for(out, timeout);
  auto popped = queue.pop();
  if (!popped) return QueueOpStatus::kClosed;
  out = std::move(*popped);
  return QueueOpStatus::kOk;
}

template <typename T>
QueueOpStatus push_within(BlockingQueue<T>& queue, T& value,
                          std::chrono::milliseconds timeout) {
  if (timeout.count() > 0) return queue.try_push_for(value, timeout);
  return queue.push(std::move(value)) ? QueueOpStatus::kOk
                                      : QueueOpStatus::kClosed;
}

std::exception_ptr queue_error(QueueOpStatus st, const char* on_timeout,
                               const char* on_closed) {
  return std::make_exception_ptr(
      Error(st == QueueOpStatus::kTimeout ? on_timeout : on_closed));
}

}  // namespace

template <typename Payload>
PipelineStats run_pipeline(const std::vector<HostEmbeddingStore*>& stores,
                           const PipelineConfig& config, index_t start_batch,
                           index_t end_batch,
                           const PipelineSteps<Payload>& steps) {
  ELREC_CHECK(config.queue_capacity >= 1, "queue capacity must be >= 1");
  ELREC_CHECK(start_batch >= 0 && start_batch <= end_batch,
              "start_batch out of range");
  ELREC_CHECK(config.checkpoint_every_n == 0 ||
                  (!config.checkpoint_path.empty() && steps.checkpoint),
              "checkpoint_every_n requires a checkpoint_path");

  // One batch on its way to the worker, and its gradients on the way back.
  // Tensors cross the queues encoded; the null codec makes the round trip
  // bitwise-exact.
  struct Prefetched {
    index_t batch_id = 0;
    Payload payload;
    RowIds unique;
    std::vector<EncodedBlob> rows;
  };
  struct GradUnit {
    index_t batch_id = 0;
    RowIds indices;
    std::vector<EncodedBlob> grads;
  };

  const std::size_t num_stores = stores.size();
  PipelineStats stats;
  const auto capacity = static_cast<std::size_t>(config.queue_capacity);
  BlockingQueue<Prefetched> prefetch_queue(capacity);
  BlockingQueue<GradUnit> gradient_queue(capacity);

  // Highest batch id whose gradients the server has applied; drives cache
  // eviction (the host is authoritative once it absorbed a write) and the
  // checkpoint barrier.
  std::atomic<index_t> applied_batch_id{-1};

  // Set by the server before it closes the queues on failure; the queue
  // mutex orders the write against the worker observing the close.
  struct ThreadFailure {
    std::exception_ptr error;
    index_t batch_id = -1;
  };
  ThreadFailure server_failure;

  // Queue traffic accounting, merged into stats after the threads join.
  PipelineByteCounters& counters = pipeline_byte_counters();
  std::atomic<std::uint64_t> encoded_bytes{0};
  std::atomic<std::uint64_t> raw_bytes{0};
  auto count_stream = [&](obs::Counter& counter, const EncodedBlob& blob,
                          std::uint64_t raw) {
    counter.add(blob.size());
    encoded_bytes.fetch_add(blob.size(), std::memory_order_relaxed);
    raw_bytes.fetch_add(raw, std::memory_order_relaxed);
  };
  auto raw_size = [](const Matrix& m) {
    return static_cast<std::uint64_t>(m.size()) * sizeof(float);
  };

  // Decodes one gradient push and applies it to every store: the server's
  // job, and the worker's when it drains the queue after a failure.
  auto apply_to_stores = [&](const GradUnit& push, Matrix& decoded) {
    for (std::size_t h = 0; h < num_stores; ++h) {
      decode_blob(push.grads[h], decoded);
      count_stream(counters.host_push, push.grads[h], raw_size(decoded));
      with_retry(config.host_retry, "host-store push", [&] {
        stores[h]->apply_gradients(push.indices[h], decoded, config.lr);
      });
    }
  };

  Stopwatch wall;

  // ---- Server thread (paper Fig. 9, CPU side): loading + parameters ----
  std::thread server([&] {
    index_t current_batch = -1;
    try {
      index_t prefetched = start_batch;
      index_t applied = start_batch;
      // One codec instance per store's pull stream (encode is stateful;
      // each table's parameter scale adapts its own bound). Pushed gradient
      // blobs decode through the stateless free function.
      std::vector<std::unique_ptr<IGradCodec>> pull_codecs;
      for (std::size_t h = 0; h < num_stores; ++h) {
        pull_codecs.push_back(make_codec(config.codec));
      }
      Matrix pulled;
      Matrix decoded_grads;

      auto apply = [&](GradUnit& push) {
        current_batch = push.batch_id;
        TRACE_SPAN("elrec.host_push");
        apply_to_stores(push, decoded_grads);
        applied_batch_id.store(push.batch_id, std::memory_order_release);
        ++applied;
      };

      while (applied < end_batch) {
        ELREC_FAULT_POINT("elrec.server_tick");
        // Drain pushed gradients first: this keeps host rows as fresh as
        // possible before the next pull.
        while (auto push = gradient_queue.try_pop()) apply(*push);
        if (prefetched < end_batch) {
          current_batch = prefetched;
          Prefetched pf;
          pf.batch_id = prefetched;
          pf.unique.resize(num_stores);
          pf.rows.resize(num_stores);
          {
            TRACE_SPAN("elrec.host_pull");
            pf.payload = steps.load(prefetched, pf.unique);
            for (std::size_t h = 0; h < num_stores; ++h) {
              with_retry(config.host_retry, "host-store pull",
                         [&] { stores[h]->pull(pf.unique[h], pulled); });
              pull_codecs[h]->encode(pulled, pf.rows[h]);
              count_stream(counters.host_pull, pf.rows[h], raw_size(pulled));
            }
          }
          ++prefetched;
          // Bounded push with gradient drains in between: a worker stalled
          // at its checkpoint barrier (waiting for gradients to be applied)
          // must not deadlock against a full prefetch queue.
          for (;;) {
            const QueueOpStatus st =
                prefetch_queue.try_push_for(pf, std::chrono::milliseconds(5));
            if (st == QueueOpStatus::kClosed) return;
            if (st == QueueOpStatus::kOk) break;
            while (auto push = gradient_queue.try_pop()) apply(*push);
          }
        } else if (applied < end_batch) {
          // All batches prefetched; block on the remaining gradients.
          auto push = gradient_queue.pop();
          if (!push) return;
          apply(*push);
        }
      }
      prefetch_queue.close();
    } catch (...) {
      server_failure.error = std::current_exception();
      server_failure.batch_id = current_batch;
      // Closing both queues unwedges a worker blocked on either side.
      prefetch_queue.close();
      gradient_queue.close();
    }
  });

  // Shutdown protocol: close both queues, join the server, then drain any
  // in-flight gradients into the stores (FIFO order) so every successfully
  // computed batch is durable. Safe to call on every exit path.
  auto quiesce = [&] {
    prefetch_queue.close();
    gradient_queue.close();
    if (server.joinable()) server.join();
    Matrix drained;
    while (auto push = gradient_queue.try_pop()) {
      try {
        apply_to_stores(*push, drained);
      } catch (...) {
        break;  // store unusable; the remaining gradients are lost anyway
      }
    }
  };

  // Rethrows a recorded failure as a structured PipelineError (after the
  // pipeline has been quiesced).
  auto raise = [&](const char* stage, index_t batch_id,
                   const std::exception_ptr& cause) {
    quiesce();
    if (server_failure.error && cause != server_failure.error) {
      // Prefer the root cause: a worker unblocked by a dying server should
      // report the server's failure, not its own closed-queue symptom.
      throw PipelineError("server", server_failure.batch_id,
                          describe_exception(server_failure.error));
    }
    throw PipelineError(stage, batch_id, describe_exception(cause));
  };

  // Blocks until the server has absorbed every gradient up to and including
  // `b` — the quiescent point a consistent checkpoint needs (the worker is
  // the only gradient producer, so nothing new arrives while we wait, and
  // the server's concurrent pulls only read the stores).
  auto wait_until_applied = [&](index_t b) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (applied_batch_id.load(std::memory_order_acquire) < b) {
      ELREC_CHECK(!gradient_queue.closed(), "server died before checkpoint");
      ELREC_CHECK(std::chrono::steady_clock::now() < deadline,
                  "timed out waiting for gradient absorption at checkpoint");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  // ---- Worker (caller thread; paper Fig. 9, GPU side) -----------------
  std::vector<EmbeddingCache> caches;
  // One codec instance per store's gradient stream.
  std::vector<std::unique_ptr<IGradCodec>> grad_codecs;
  caches.reserve(num_stores);
  for (const HostEmbeddingStore* store : stores) {
    caches.emplace_back(store->dim(), config.queue_capacity + 1, config.codec);
    grad_codecs.push_back(make_codec(config.codec));
  }
  const bool lossless = config.codec.lossless();
  std::vector<Matrix> rows(num_stores);
  std::vector<Matrix> grads(num_stores);
  Matrix grads_seen_by_host;

  for (index_t b = start_batch; b < end_batch; ++b) {
    Prefetched pf;
    TRACE_SPAN("elrec.batch");
    {
      TRACE_SPAN("elrec.prefetch_wait");
      const QueueOpStatus st =
          pop_within(prefetch_queue, pf, config.queue_timeout);
      if (st != QueueOpStatus::kOk) {
        raise("worker", b,
              queue_error(st,
                          "timed out waiting for a prefetched batch — server "
                          "stalled?",
                          "prefetch queue closed early"));
      }
    }

    GradUnit push;
    try {
      // Step 1 (Fig. 9): decode the prefetched rows and synchronize them
      // with the caches.
      {
        TRACE_SPAN("elrec.cache_sync");
        for (std::size_t h = 0; h < num_stores; ++h) {
          decode_blob(pf.rows[h], rows[h]);
          if (config.use_embedding_cache) {
            stats.rows_patched += caches[h].sync(pf.unique[h], rows[h]);
          }
        }
      }

      {
        TRACE_SPAN("elrec.compute");
        ELREC_FAULT_POINT("elrec.compute");
        steps.compute(pf.batch_id, pf.payload, pf.unique, rows, grads);
      }

      // Step 3: encode the gradients for the queue. The worker-side view of
      // the updated rows goes into the cache so the next prefetched batch
      // can be patched (Fig. 10b). Under a lossy codec the cache must track
      // what the HOST will apply — the decoded gradients — or its rows
      // would drift from the host store by the unsent residual every batch.
      TRACE_SPAN("elrec.cache_update");
      push.batch_id = pf.batch_id;
      push.grads.resize(num_stores);
      for (std::size_t h = 0; h < num_stores; ++h) {
        ELREC_CHECK(grads[h].rows() == rows[h].rows() &&
                        grads[h].cols() == rows[h].cols(),
                    "compute step produced wrong gradient shape");
        grad_codecs[h]->encode(grads[h], push.grads[h]);
        count_stream(counters.grad_push, push.grads[h], raw_size(grads[h]));
        if (!config.use_embedding_cache) continue;
        const Matrix* host_grads = &grads[h];
        if (!lossless) {
          decode_blob(push.grads[h], grads_seen_by_host);
          host_grads = &grads_seen_by_host;
        }
        // The same SGD expression the host store applies, in place: the
        // synchronized rows become the post-update rows.
        Matrix& updated = rows[h];
        for (index_t i = 0; i < updated.rows(); ++i) {
          const float* g = host_grads->row(i);
          float* u = updated.row(i);
          for (index_t j = 0; j < updated.cols(); ++j) {
            u[j] -= config.lr * g[j];
          }
        }
        caches[h].insert(pf.unique[h], updated, pf.batch_id);
        caches[h].retire_batch(
            applied_batch_id.load(std::memory_order_acquire));
      }
      push.indices = std::move(pf.unique);
    } catch (...) {
      raise("worker", pf.batch_id, std::current_exception());
    }

    {
      TRACE_SPAN("elrec.grad_push");
      const QueueOpStatus st =
          push_within(gradient_queue, push, config.queue_timeout);
      if (st != QueueOpStatus::kOk) {
        raise("worker", pf.batch_id,
              queue_error(st, "timed out pushing gradients — server stalled?",
                          "gradient queue closed early"));
      }
    }
    ++stats.batches;

    if (config.checkpoint_every_n > 0 &&
        (b + 1) % config.checkpoint_every_n == 0) {
      try {
        TRACE_SPAN("elrec.checkpoint");
        wait_until_applied(b);
        steps.checkpoint(b + 1);
        ++stats.checkpoints_written;
      } catch (...) {
        raise("checkpoint", b, std::current_exception());
      }
    }
  }
  server.join();
  if (server_failure.error) {
    raise("server", server_failure.batch_id, server_failure.error);
  }

  for (const EmbeddingCache& cache : caches) {
    stats.cache_peak = std::max(stats.cache_peak, cache.peak_size());
  }
  stats.wall_seconds = wall.seconds();
  stats.encoded_queue_bytes = encoded_bytes.load(std::memory_order_relaxed);
  stats.raw_queue_bytes = raw_bytes.load(std::memory_order_relaxed);
  return stats;
}

template PipelineStats run_pipeline<MiniBatch>(
    const std::vector<HostEmbeddingStore*>&, const PipelineConfig&, index_t,
    index_t, const PipelineSteps<MiniBatch>&);
template PipelineStats run_pipeline<std::monostate>(
    const std::vector<HostEmbeddingStore*>&, const PipelineConfig&, index_t,
    index_t, const PipelineSteps<std::monostate>&);

PipelineTrainer::PipelineTrainer(HostEmbeddingStore& store,
                                 PipelineConfig config)
    : store_(store), config_(std::move(config)) {}

index_t PipelineTrainer::resume(const std::string& path) {
  return load_pipeline_checkpoint(store_, path, config_.codec.id);
}

PipelineStats PipelineTrainer::run(
    const std::vector<std::vector<index_t>>& batches,
    const ComputeStep& compute, index_t start_batch) {
  PipelineSteps<std::monostate> steps;
  steps.load = [&](index_t b, RowIds& unique) {
    unique[0] = batches[static_cast<std::size_t>(b)];
    return std::monostate{};
  };
  steps.compute = [&](index_t b, std::monostate&, const RowIds& unique,
                      std::vector<Matrix>& rows, std::vector<Matrix>& grads) {
    compute(b, unique[0], rows[0], grads[0]);
  };
  steps.checkpoint = [&](index_t next_batch) {
    save_pipeline_checkpoint(store_, next_batch, config_.checkpoint_path,
                             config_.codec.id);
  };
  return run_pipeline({&store_}, config_, start_batch,
                      static_cast<index_t>(batches.size()), steps);
}

}  // namespace elrec
