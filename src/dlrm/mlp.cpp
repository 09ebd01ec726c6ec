#include "dlrm/mlp.hpp"

#include <algorithm>
#include <type_traits>

#include "tensor/gemm.hpp"

namespace elrec {
namespace {

// Forward rows per block: a block's product, bias and ReLU run while its
// output is in cache, and blocks are shared out among threads.
constexpr index_t kRowBlock = 64;

// Bias passes share out column blocks of kColBlock; each walks every row
// in order, so a per-column fold is bitwise the serial row-order loop. A
// block's rows are 256 contiguous bytes, which keeps the walk streaming.
constexpr index_t kColBlock = 64;
constexpr index_t kParallelBiasElems = index_t{1} << 16;

// sums[j] = op(sums[j], g_ij) for the rows i in order, over one column block
// of width w, with the running sums kept in registers. With kRelu, g_ij is
// first replaced in place by relu_backward's value (g_ij where act_ij > 0,
// else 0).
template <bool kRelu, typename G, typename Op, typename Width>
void column_block(index_t rows, index_t cols, index_t j0, Width w,
                  const float* act, G* g, float* sums, Op op) {
  float acc[kColBlock];
  for (index_t jj = 0; jj < w; ++jj) acc[jj] = sums[j0 + jj];
  for (index_t i = 0; i < rows; ++i) {
    G* grow = g + i * cols + j0;
    if constexpr (kRelu) {
      const float* arow = act + i * cols + j0;
#pragma omp simd
      for (index_t jj = 0; jj < w; ++jj) {
        grow[jj] = arow[jj] > 0.0f ? grow[jj] : 0.0f;
        acc[jj] = op(acc[jj], grow[jj]);
      }
    } else {
#pragma omp simd
      for (index_t jj = 0; jj < w; ++jj) acc[jj] = op(acc[jj], grow[jj]);
    }
  }
  for (index_t jj = 0; jj < w; ++jj) sums[j0 + jj] = acc[jj];
}

// column_block over a whole (rows x cols) gradient, blocks shared out among
// threads.
template <bool kRelu, typename G, typename Op>
void column_pass(index_t rows, index_t cols, const float* act, G* g,
                 float* sums, Op op) {
  const index_t blocks = (cols + kColBlock - 1) / kColBlock;
#pragma omp parallel for schedule(static) if (rows * cols >= kParallelBiasElems)
  for (index_t cb = 0; cb < blocks; ++cb) {
    const index_t j0 = cb * kColBlock;
    if (cols - j0 >= kColBlock) {
      column_block<kRelu>(rows, cols, j0,
                          std::integral_constant<index_t, kColBlock>{}, act,
                          g, sums, op);
    } else {
      column_block<kRelu>(rows, cols, j0, cols - j0, act, g, sums, op);
    }
  }
}

// wt = w^T.
void transpose_into(const Matrix& w, Matrix& wt) {
  wt.resize_for_overwrite(w.cols(), w.rows());
  for (index_t i = 0; i < w.rows(); ++i) {
    const float* wrow = w.row(i);
    for (index_t j = 0; j < w.cols(); ++j) wt.data()[j * w.rows() + i] = wrow[j];
  }
}

}  // namespace

Mlp::Mlp(std::vector<index_t> layer_sizes, Prng& rng)
    : layer_sizes_(std::move(layer_sizes)) {
  ELREC_CHECK(layer_sizes_.size() >= 2, "MLP needs at least one layer");
  const auto n = layer_sizes_.size() - 1;
  weights_.resize(n);
  biases_.resize(n);
  preacts_.resize(n);
  for (std::size_t l = 0; l < n; ++l) {
    weights_[l].resize(layer_sizes_[l], layer_sizes_[l + 1]);
    weights_[l].fill_xavier(rng);
    biases_[l].assign(static_cast<std::size_t>(layer_sizes_[l + 1]), 0.0f);
  }
  set_optimizer(OptimizerConfig{});
}

void Mlp::set_optimizer(OptimizerConfig config) {
  const auto n = weights_.size();
  weight_opt_.resize(n);
  bias_opt_.resize(n);
  for (std::size_t l = 0; l < n; ++l) {
    weight_opt_[l].reset(config, static_cast<std::size_t>(weights_[l].size()));
    bias_opt_[l].reset(config, biases_[l].size());
  }
}

// Every output is its k-ordered sum from gemm(), plus the bias, then the
// ReLU: it depends on its own row only, so it is bitwise the same at any
// batch size, position in the batch and thread count.
void Mlp::forward_layer(int l, const Matrix& x, Matrix& z) const {
  const Matrix& w = weights_[static_cast<std::size_t>(l)];
  const float* bias = biases_[static_cast<std::size_t>(l)].data();
  const bool relu = l < num_layers() - 1;
  const index_t b = x.rows();
  const index_t k = w.rows();
  const index_t n = w.cols();
  z.resize_for_overwrite(b, n);
  auto block = [&](index_t i0) {
    const index_t mb = std::min(kRowBlock, b - i0);
    float* zb = z.data() + i0 * n;
    gemm(Trans::kNo, Trans::kNo, mb, n, k, 1.0f, x.data() + i0 * k, k,
         w.data(), n, 0.0f, zb, n);
    for (index_t i = 0; i < mb; ++i) {
      float* row = zb + i * n;
      if (relu) {
#pragma omp simd
        for (index_t j = 0; j < n; ++j) row[j] = std::max(row[j] + bias[j], 0.0f);
      } else {
#pragma omp simd
        for (index_t j = 0; j < n; ++j) row[j] += bias[j];
      }
    }
  };
  if (b < 2 * kRowBlock) {
    for (index_t i0 = 0; i0 < b; i0 += kRowBlock) block(i0);
    return;
  }
#pragma omp parallel for schedule(static)
  for (index_t i0 = 0; i0 < b; i0 += kRowBlock) block(i0);
}

void Mlp::forward(const Matrix& in, Matrix& out) {
  ELREC_CHECK(in.cols() == input_dim(), "MLP input dim mismatch");
  cached_batch_ = in.rows();
  input_ = in;
  const int n = num_layers();
  const Matrix* cur = &input_;
  for (int l = 0; l < n; ++l) {
    Matrix& z = (l == n - 1) ? out : preacts_[static_cast<std::size_t>(l)];
    forward_layer(l, *cur, z);
    cur = &z;
  }
}

void Mlp::forward_frozen(const Matrix& in, Matrix& out, Matrix& scratch_a,
                         Matrix& scratch_b) const {
  ELREC_CHECK(in.cols() == input_dim(), "MLP input dim mismatch");
  const int n = num_layers();
  const Matrix* cur = &in;
  for (int l = 0; l < n; ++l) {
    Matrix& z = (l == n - 1) ? out : (l % 2 == 0 ? scratch_a : scratch_b);
    forward_layer(l, *cur, z);
    cur = &z;
  }
}

void Mlp::backward_and_update(const Matrix& grad_out, Matrix& grad_in,
                              float lr) {
  backward(grad_out, &grad_in, lr);
}

void Mlp::backward_and_update(const Matrix& grad_out, float lr) {
  backward(grad_out, nullptr, lr);
}

// dX = grad * W^T runs as an NN product against W^T, packed before the
// layer's update: its sums run in a different order from the NT product
// grad * W, so dX agrees with it to float rounding, not bitwise. dW and the
// bias updates are bitwise those of the unfused row-order loops.
void Mlp::backward(const Matrix& grad_out, Matrix* grad_in, float lr) {
  const int n = num_layers();
  ELREC_CHECK(grad_out.rows() == cached_batch_ &&
                  grad_out.cols() == output_dim(),
              "grad_out shape mismatch");
  const index_t b = cached_batch_;
  update_bias<false>(n - 1, grad_out, lr);
  const Matrix* grad = &grad_out;
  for (int l = n - 1; l >= 0; --l) {
    const auto ul = static_cast<std::size_t>(l);
    const Matrix& w = weights_[ul];
    Matrix* dx = l > 0 ? &grad_bufs_[ul % 2] : grad_in;
    if (dx != nullptr) {
      transpose_into(w, wt_);
      dx->resize_for_overwrite(b, w.rows());
      gemm(Trans::kNo, Trans::kNo, b, w.rows(), w.cols(), 1.0f, grad->data(),
           w.cols(), wt_.data(), w.rows(), 0.0f, dx->data(), w.rows());
    }
    update_weights(l, l > 0 ? preacts_[ul - 1] : input_, *grad, lr);
    if (l > 0) {
      update_bias<true>(l - 1, *dx, lr);
      grad = dx;
    }
  }
}

void Mlp::update_weights(int l, const Matrix& x, const Matrix& grad,
                         float lr) {
  const auto ul = static_cast<std::size_t>(l);
  Matrix& w = weights_[ul];
  if (weight_opt_[ul].config().kind == OptimizerKind::kSgd) {
    // dW = x^T * grad; updated in place (SGD fused into the GEMM).
    gemm(Trans::kYes, Trans::kNo, w.rows(), w.cols(), grad.rows(), -lr,
         x.data(), x.cols(), grad.data(), grad.cols(), 1.0f, w.data(),
         w.cols());
    return;
  }
  // Stateful rules need the explicit gradient.
  grad_w_scratch_.resize_for_overwrite(w.rows(), w.cols());
  gemm(Trans::kYes, Trans::kNo, w.rows(), w.cols(), grad.rows(), 1.0f,
       x.data(), x.cols(), grad.data(), grad.cols(), 0.0f,
       grad_w_scratch_.data(), w.cols());
  weight_opt_[ul].update(
      {w.data(), static_cast<std::size_t>(w.size())},
      {grad_w_scratch_.data(), static_cast<std::size_t>(grad_w_scratch_.size())},
      lr);
}

template <bool kRelu, typename Grad>
void Mlp::update_bias(int l, Grad& grad, float lr) {
  const auto ul = static_cast<std::size_t>(l);
  auto& bias = biases_[ul];
  const float* act = kRelu ? preacts_[ul].data() : nullptr;
  if (bias_opt_[ul].config().kind == OptimizerKind::kSgd) {
    column_pass<kRelu>(grad.rows(), grad.cols(), act, grad.data(), bias.data(),
                       [lr](float b, float g) { return b - lr * g; });
    return;
  }
  grad_b_scratch_.assign(bias.size(), 0.0f);
  column_pass<kRelu>(grad.rows(), grad.cols(), act, grad.data(),
                     grad_b_scratch_.data(),
                     [](float sum, float g) { return sum + g; });
  bias_opt_[ul].update(bias, grad_b_scratch_, lr);
}

std::size_t Mlp::parameter_count() const {
  std::size_t total = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    total += static_cast<std::size_t>(weights_[l].size()) + biases_[l].size();
  }
  return total;
}

}  // namespace elrec
