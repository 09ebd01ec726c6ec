// Host-memory embedding store — the parameter-server side of §V.
//
// Holds the embedding tables that do not fit in device memory. The server
// thread gathers rows for upcoming batches (pull) and applies pushed
// gradients (SGD), exactly the two PS operations of paper Fig. 9.
#pragma once

#include <mutex>

#include "common/thread_annotations.hpp"
#include "embed/index_batch.hpp"
#include "tensor/matrix.hpp"

namespace elrec {

class HostEmbeddingStore {
 public:
  HostEmbeddingStore(index_t num_rows, index_t dim, Prng& rng,
                     float init_std = 0.01f);

  // Shape is fixed at construction, so reading it never races with the
  // guarded element writes; exempt from the lock analysis.
  index_t num_rows() const ELREC_NO_THREAD_SAFETY_ANALYSIS {
    return weights_.rows();
  }
  index_t dim() const ELREC_NO_THREAD_SAFETY_ANALYSIS {
    return weights_.cols();
  }

  /// Gathers the given (typically unique) rows into `rows` (one per index).
  void pull(const std::vector<index_t>& indices, Matrix& rows) const;

  /// SGD push: weights[indices[i]] -= lr * grads[i].
  void apply_gradients(const std::vector<index_t>& indices, const Matrix& grads,
                       float lr);

  /// Snapshot of one row (tests / oracle comparison).
  std::vector<float> row_copy(index_t row) const;

  /// Replaces the full weight matrix (checkpoint resume). Shape must match.
  void load_weights(const Matrix& weights);

  /// Lock-free view for quiescent readers only: the checkpoint writer
  /// calls this after every gradient up to the checkpoint batch has been
  /// applied and while no other is in flight, so only reads (the server's
  /// pulls) can overlap it (pipeline_checkpoint.cpp).
  const Matrix& weights() const ELREC_NO_THREAD_SAFETY_ANALYSIS {
    return weights_;
  }

  std::size_t parameter_bytes() const ELREC_NO_THREAD_SAFETY_ANALYSIS {
    return static_cast<std::size_t>(weights_.size()) * sizeof(float);
  }

 private:
  // The server thread pulls while the store owner may be applying pushed
  // gradients; a mutex keeps the two phases atomic per call.
  mutable std::mutex mu_;
  Matrix weights_ ELREC_GUARDED_BY(mu_);
};

}  // namespace elrec
