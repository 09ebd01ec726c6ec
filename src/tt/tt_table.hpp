// Baseline TT embedding table in the style of TT-Rec (paper baseline [20]).
//
// Forward: every index occurrence recomputes the full chain of TT-slice
// products — no intermediate-result reuse.
// Backward: per-OCCURRENCE TT-core gradients are computed first, accumulated
// into dense core-gradient buffers, and only then applied by a separate
// optimizer pass (i.e. post-hoc aggregation + unfused update). These are
// precisely the costs the Eff-TT table (src/core) removes.
#pragma once

#include "embed/embedding_table.hpp"
#include "tensor/optimizer.hpp"
#include "tt/tt_cores.hpp"
#include "tt/tt_kernels.hpp"

namespace elrec {

class TTTable final : public IEmbeddingTable {
 public:
  /// Randomly initialised table (training from scratch, the DLRM case).
  TTTable(index_t num_rows, TTShape shape, Prng& rng,
          float init_row_std = 0.01f);

  /// Wraps pre-decomposed cores (e.g. from tt_svd).
  TTTable(index_t num_rows, TTCores cores);

  index_t num_rows() const override { return num_rows_; }
  index_t dim() const override { return cores_.shape().dim(); }

  void forward(const IndexBatch& batch, Matrix& out) override;
  void backward_and_update(const IndexBatch& batch, const Matrix& grad_out,
                           float lr) override;

  std::size_t parameter_bytes() const override {
    return cores_.parameter_bytes();
  }
  std::string name() const override { return "TTTable(TT-Rec baseline)"; }

  TTCores& cores() { return cores_; }
  const TTCores& cores() const { return cores_; }

  /// Switches the TT-core update rule (default plain SGD). Momentum is not
  /// supported for embedding tables (see tensor/optimizer.hpp).
  void set_optimizer(OptimizerConfig config);

  void visit_parameters(const ParameterVisitor& visit) override {
    for (int k = 0; k < cores_.shape().num_cores(); ++k) {
      visit(cores_.core(k).data(),
            static_cast<std::size_t>(cores_.core(k).size()));
    }
  }

  /// Counters for the most recent backward pass (benchmarks report these).
  struct BackwardStats {
    std::size_t occurrence_gradients = 0;  // per-occurrence grad computations
    std::size_t gemm_calls = 0;
  };
  const BackwardStats& last_backward_stats() const { return backward_stats_; }

 private:
  // Computes the chained product for one row into `row_out` (length dim),
  // reusing the caller's scratch vectors.
  void compute_row(index_t row, std::vector<index_t>& parts,
                   std::vector<float>& scratch_a, std::vector<float>& scratch_b,
                   float* row_out) const;

  index_t num_rows_ = 0;
  TTCores cores_;
  // The same compile-time kernels Eff-TT uses for this shape (nullptr:
  // generic gemm() chain), and the C1/C2 transposes their backward reads.
  const TT3Kernels* kernels_ = nullptr;
  SliceTransposes c1t_, c2t_;
  // Dense per-core gradient buffers, reused across batches (TT-Rec style).
  std::vector<Matrix> core_grads_;
  std::vector<OptimizerState> core_optimizers_;
  BackwardStats backward_stats_;
};

}  // namespace elrec
