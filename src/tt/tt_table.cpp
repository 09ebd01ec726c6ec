#include "tt/tt_table.hpp"

#include "tensor/gemm.hpp"

namespace elrec {

TTTable::TTTable(index_t num_rows, TTShape shape, Prng& rng,
                 float init_row_std)
    : num_rows_(num_rows),
      cores_(std::move(shape)),
      kernels_(find_tt3_kernels(cores_.shape())) {
  ELREC_CHECK(num_rows > 0, "table must be non-empty");
  ELREC_CHECK(cores_.shape().padded_rows() >= num_rows,
              "row factorization does not cover num_rows");
  cores_.init_normal(rng, init_row_std);
}

TTTable::TTTable(index_t num_rows, TTCores cores)
    : num_rows_(num_rows),
      cores_(std::move(cores)),
      kernels_(find_tt3_kernels(cores_.shape())) {
  ELREC_CHECK(cores_.shape().padded_rows() >= num_rows,
              "row factorization does not cover num_rows");
}

void TTTable::compute_row(index_t row, std::vector<index_t>& parts,
                          std::vector<float>& scratch_a,
                          std::vector<float>& scratch_b, float* row_out) const {
  const TTShape& shape = cores_.shape();
  const int d = shape.num_cores();
  shape.factorize_row(row, parts);

  if (kernels_ != nullptr) {
    scratch_a.resize(static_cast<std::size_t>(shape.col_factor(0) *
                                              cores_.slice_cols(1)));
    kernels_->prefix(cores_.slice(0, parts[0]), cores_.slice(1, parts[1]),
                     scratch_a.data());
    kernels_->expand(scratch_a.data(), cores_.slice(2, parts[2]), row_out);
    return;
  }

  const float* s0 = cores_.slice(0, parts[0]);
  scratch_a.assign(s0, s0 + cores_.slice_cols(0));
  index_t p = shape.col_factor(0);
  for (int k = 1; k < d; ++k) {
    const index_t rk = shape.rank(k);
    const index_t cols = cores_.slice_cols(k);
    scratch_b.assign(static_cast<std::size_t>(p) * cols, 0.0f);
    gemm(Trans::kNo, Trans::kNo, p, cols, rk, 1.0f, scratch_a.data(), rk,
         cores_.slice(k, parts[static_cast<std::size_t>(k)]), cols, 0.0f,
         scratch_b.data(), cols);
    scratch_a.swap(scratch_b);
    p *= shape.col_factor(k);
  }
  std::copy(scratch_a.begin(), scratch_a.end(), row_out);
}

void TTTable::forward(const IndexBatch& batch, Matrix& out) {
  batch.validate(num_rows_);
  const index_t b = batch.batch_size();
  const index_t n = dim();
  out.resize(b, n);

#pragma omp parallel if (b >= 256)
  {
    std::vector<index_t> parts(static_cast<std::size_t>(
        cores_.shape().num_cores()));
    std::vector<float> sa, sb;
    std::vector<float> row(static_cast<std::size_t>(n));
#pragma omp for schedule(static)
    for (index_t s = 0; s < b; ++s) {
      float* dst = out.row(s);
      for (index_t ppos = batch.bag_begin(s); ppos < batch.bag_end(s); ++ppos) {
        // TT-Rec baseline: full recompute per occurrence, no reuse.
        compute_row(batch.indices[static_cast<std::size_t>(ppos)], parts, sa,
                    sb, row.data());
        for (index_t j = 0; j < n; ++j) dst[j] += row[j];
      }
    }
  }
}

void TTTable::backward_and_update(const IndexBatch& batch,
                                  const Matrix& grad_out, float lr) {
  ELREC_CHECK(grad_out.rows() == batch.batch_size() && grad_out.cols() == dim(),
              "grad_out shape mismatch");
  const TTShape& shape = cores_.shape();
  const int d = shape.num_cores();
  backward_stats_ = BackwardStats{};

  // Dense gradient buffers shaped like the cores (allocated once).
  if (core_grads_.empty()) {
    core_grads_.resize(static_cast<std::size_t>(d));
    for (int k = 0; k < d; ++k) {
      core_grads_[static_cast<std::size_t>(k)].resize(cores_.core(k).rows(),
                                                      cores_.core(k).cols());
    }
  }
  for (auto& g : core_grads_) g.set_zero();

  std::vector<index_t> parts(static_cast<std::size_t>(d));
  std::vector<std::vector<float>> prefixes(static_cast<std::size_t>(d));
  std::vector<float> d_prefix, d_prev;
  if (kernels_ != nullptr) {
    c1t_.pack(cores_, 1);
    c2t_.pack(cores_, 2);
  }

  // Step 1 (Fig. 6a): per-OCCURRENCE gradient of every core, accumulated
  // into the dense buffers. No in-advance aggregation: a row repeated t
  // times in the batch costs t full chain-rule evaluations.
  for (index_t s = 0; s < batch.batch_size(); ++s) {
    const float* g = grad_out.row(s);
    for (index_t pos = batch.bag_begin(s); pos < batch.bag_end(s); ++pos) {
      const index_t row = batch.indices[static_cast<std::size_t>(pos)];
      shape.factorize_row(row, parts);
      backward_stats_.occurrence_gradients += 1;

      if (kernels_ != nullptr) {
        // d = 3: stage 1 into A_1, then the fused chain Eff-TT also runs.
        const float* c0 = cores_.slice(0, parts[0]);
        auto& p12 = prefixes[1];
        p12.resize(static_cast<std::size_t>(shape.col_factor(0) *
                                            cores_.slice_cols(1)));
        kernels_->prefix(c0, cores_.slice(1, parts[1]), p12.data());
        kernels_->backward(
            c0, c1t_.slice(parts[1]), c2t_.slice(parts[2]), p12.data(), g,
            core_grads_[0].row(parts[0]),
            core_grads_[1].row(parts[1] * shape.rank(1)),
            core_grads_[2].row(parts[2] * shape.rank(2)));
        backward_stats_.gemm_calls += 5;
        continue;
      }

      // Forward prefixes A_k (P_k x R_{k+1}) for k < d - 1 (the backward
      // never reads the full row A_{d-1}), A_0 = first slice.
      const float* s0 = cores_.slice(0, parts[0]);
      prefixes[0].assign(s0, s0 + cores_.slice_cols(0));
      index_t p = shape.col_factor(0);
      for (int k = 1; k < d - 1; ++k) {
        const index_t rk = shape.rank(k);
        const index_t cols = cores_.slice_cols(k);
        auto& out_buf = prefixes[static_cast<std::size_t>(k)];
        out_buf.assign(static_cast<std::size_t>(p) * cols, 0.0f);
        gemm(Trans::kNo, Trans::kNo, p, cols, rk, 1.0f,
             prefixes[static_cast<std::size_t>(k - 1)].data(), rk,
             cores_.slice(k, parts[static_cast<std::size_t>(k)]), cols, 0.0f,
             out_buf.data(), cols);
        backward_stats_.gemm_calls += 1;
        p *= shape.col_factor(k);
      }

      // Backward sweep: dA_d = g (N x 1); for k = d-1..0,
      //   view dA_{k+1} as (P_k x n_{k+1} R_{k+2}),
      //   dC_{k+1} += A_k^T * view,  dA_k = view * C_{k+1}^T.
      d_prefix.assign(g, g + dim());
      index_t pk = shape.dim();
      for (int k = d - 1; k >= 1; --k) {
        const index_t cols = cores_.slice_cols(k);  // n_k * R_{k+1}
        const index_t rk = shape.rank(k);
        pk /= shape.col_factor(k);  // P_{k-1}
        // dC_k[i_k] += A_{k-1}^T (rk x pk) * dA_k-view (pk x cols)
        float* gslice =
            core_grads_[static_cast<std::size_t>(k)].row(
                parts[static_cast<std::size_t>(k)] * rk);
        gemm(Trans::kYes, Trans::kNo, rk, cols, pk, 1.0f,
             prefixes[static_cast<std::size_t>(k - 1)].data(), rk,
             d_prefix.data(), cols, 1.0f, gslice, cols);
        backward_stats_.gemm_calls += 1;
        // dA_{k-1} = dA_k-view (pk x cols) * slice^T (cols x rk)
        d_prev.assign(static_cast<std::size_t>(pk) * rk, 0.0f);
        gemm(Trans::kNo, Trans::kYes, pk, rk, cols, 1.0f, d_prefix.data(),
             cols, cores_.slice(k, parts[static_cast<std::size_t>(k)]), cols,
             0.0f, d_prev.data(), rk);
        backward_stats_.gemm_calls += 1;
        d_prefix.swap(d_prev);
      }
      // Core 0 gradient is dA_0 itself (slice is 1 x n_0 R_1 == flat dA_0).
      float* g0 = core_grads_[0].row(parts[0] * shape.rank(0));
      for (index_t j = 0; j < cores_.slice_cols(0); ++j) g0[j] += d_prefix[static_cast<std::size_t>(j)];
    }
  }

  // Step 2/3: separate (unfused) optimizer pass over the whole cores.
  if (core_optimizers_.empty()) set_optimizer(OptimizerConfig{});
  for (int k = 0; k < d; ++k) {
    core_optimizers_[static_cast<std::size_t>(k)].update(
        {cores_.core(k).data(), static_cast<std::size_t>(cores_.core(k).size())},
        {core_grads_[static_cast<std::size_t>(k)].data(),
         static_cast<std::size_t>(core_grads_[static_cast<std::size_t>(k)].size())},
        lr);
  }
}

void TTTable::set_optimizer(OptimizerConfig config) {
  ELREC_CHECK(config.kind != OptimizerKind::kMomentum,
              "momentum is not inactive-safe for sparse embedding updates");
  const int d = cores_.shape().num_cores();
  core_optimizers_.resize(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    core_optimizers_[static_cast<std::size_t>(k)].reset(
        config, static_cast<std::size_t>(cores_.core(k).size()));
  }
}

}  // namespace elrec
