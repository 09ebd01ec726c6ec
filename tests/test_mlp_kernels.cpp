// The dense MLP step against the kernels it replaced.
//
// ref:: below is the GEMM the MLP ran before it computed dX as an NN
// product on a packed W^T: the 4x16 NN/TN micro-kernels with their
// 64x128x256 blocking, the narrow-n NN path and the NT dot-product path,
// kept verbatim so the contract stays checkable:
//   * forward and dW are bitwise those of ref:: (same k order, same FMAs);
//   * dX = grad * W^T differs only in summation order from ref::'s NT
//     product: |dX - dX_nt| <= 2 * k * 2^-24 * sum_k |grad_ik * w_jk|
//     (twice the recursive-summation bound gamma_k for k terms);
//   * everything is bitwise the same at 1, 2 and 4 threads, and a row's
//     forward output does not depend on the batch around it;
//   * a steady-state step allocates no Matrix storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "dlrm/dlrm_model.hpp"
#include "dlrm/interaction.hpp"
#include "dlrm/mlp.hpp"
#include "embed/embedding_bag.hpp"
#include "tensor/gemm.hpp"

namespace elrec {
namespace {

namespace ref {

constexpr index_t kBlockM = 64;
constexpr index_t kBlockN = 128;
constexpr index_t kBlockK = 256;
constexpr index_t kMR = 4;
constexpr index_t kNR = 16;

#define REF_RESTRICT __restrict__

inline void kernel_nn_4x16(index_t kb, float alpha,
                           const float* REF_RESTRICT a, index_t lda,
                           const float* REF_RESTRICT b, index_t ldb,
                           float* REF_RESTRICT c, index_t ldc) {
  float acc0[kNR] = {}, acc1[kNR] = {}, acc2[kNR] = {}, acc3[kNR] = {};
  for (index_t kk = 0; kk < kb; ++kk) {
    const float* REF_RESTRICT brow = b + kk * ldb;
    const float a0 = a[kk];
    const float a1 = a[lda + kk];
    const float a2 = a[2 * lda + kk];
    const float a3 = a[3 * lda + kk];
#pragma omp simd
    for (index_t j = 0; j < kNR; ++j) {
      const float bj = brow[j];
      acc0[j] += a0 * bj;
      acc1[j] += a1 * bj;
      acc2[j] += a2 * bj;
      acc3[j] += a3 * bj;
    }
  }
#pragma omp simd
  for (index_t j = 0; j < kNR; ++j) {
    c[j] += alpha * acc0[j];
    c[ldc + j] += alpha * acc1[j];
    c[2 * ldc + j] += alpha * acc2[j];
    c[3 * ldc + j] += alpha * acc3[j];
  }
}

inline void kernel_nn_edge(index_t mr, index_t nr, index_t kb, float alpha,
                           const float* REF_RESTRICT a, index_t lda,
                           const float* REF_RESTRICT b, index_t ldb,
                           float* REF_RESTRICT c, index_t ldc) {
  float acc[kMR][kNR] = {};
  for (index_t kk = 0; kk < kb; ++kk) {
    const float* REF_RESTRICT brow = b + kk * ldb;
    for (index_t i = 0; i < mr; ++i) {
      const float aik = a[i * lda + kk];
#pragma omp simd
      for (index_t j = 0; j < nr; ++j) acc[i][j] += aik * brow[j];
    }
  }
  for (index_t i = 0; i < mr; ++i) {
#pragma omp simd
    for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += alpha * acc[i][j];
  }
}

inline void gemm_nn_tiny_n(index_t m, index_t n, index_t k, float alpha,
                           const float* REF_RESTRICT a, index_t lda,
                           const float* REF_RESTRICT b, index_t ldb,
                           float* REF_RESTRICT c, index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    const float* REF_RESTRICT arow = a + i * lda;
    float acc[4] = {};
    for (index_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* REF_RESTRICT bk = b + kk * ldb;
      for (index_t j = 0; j < n; ++j) acc[j] += aik * bk[j];
    }
    float* REF_RESTRICT crow = c + i * ldc;
    for (index_t j = 0; j < n; ++j) crow[j] += alpha * acc[j];
  }
}

void gemm_nn_block(index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb,
                   float* c, index_t ldc) {
  if (n <= 4) {
    gemm_nn_tiny_n(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }
  index_t i = 0;
  for (; i + kMR <= m; i += kMR) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    index_t j = 0;
    for (; j + kNR <= n; j += kNR) {
      kernel_nn_4x16(k, alpha, arow, lda, b + j, ldb, crow + j, ldc);
    }
    if (j < n) {
      kernel_nn_edge(kMR, n - j, k, alpha, arow, lda, b + j, ldb, crow + j,
                     ldc);
    }
  }
  if (i < m) {
    for (index_t j = 0; j < n; j += kNR) {
      kernel_nn_edge(m - i, std::min(kNR, n - j), k, alpha, a + i * lda, lda,
                     b + j, ldb, c + i * ldc + j, ldc);
    }
  }
}

inline void kernel_tn_4x16(index_t kb, float alpha,
                           const float* REF_RESTRICT a, index_t lda,
                           const float* REF_RESTRICT b, index_t ldb,
                           float* REF_RESTRICT c, index_t ldc) {
  float acc0[kNR] = {}, acc1[kNR] = {}, acc2[kNR] = {}, acc3[kNR] = {};
  for (index_t kk = 0; kk < kb; ++kk) {
    const float* REF_RESTRICT brow = b + kk * ldb;
    const float* REF_RESTRICT acol = a + kk * lda;
    const float a0 = acol[0];
    const float a1 = acol[1];
    const float a2 = acol[2];
    const float a3 = acol[3];
#pragma omp simd
    for (index_t j = 0; j < kNR; ++j) {
      const float bj = brow[j];
      acc0[j] += a0 * bj;
      acc1[j] += a1 * bj;
      acc2[j] += a2 * bj;
      acc3[j] += a3 * bj;
    }
  }
#pragma omp simd
  for (index_t j = 0; j < kNR; ++j) {
    c[j] += alpha * acc0[j];
    c[ldc + j] += alpha * acc1[j];
    c[2 * ldc + j] += alpha * acc2[j];
    c[3 * ldc + j] += alpha * acc3[j];
  }
}

inline void kernel_tn_edge(index_t mr, index_t nr, index_t kb, float alpha,
                           const float* REF_RESTRICT a, index_t lda,
                           const float* REF_RESTRICT b, index_t ldb,
                           float* REF_RESTRICT c, index_t ldc) {
  float acc[kMR][kNR] = {};
  for (index_t kk = 0; kk < kb; ++kk) {
    const float* REF_RESTRICT brow = b + kk * ldb;
    const float* REF_RESTRICT acol = a + kk * lda;
    for (index_t i = 0; i < mr; ++i) {
      const float aik = acol[i];
#pragma omp simd
      for (index_t j = 0; j < nr; ++j) acc[i][j] += aik * brow[j];
    }
  }
  for (index_t i = 0; i < mr; ++i) {
#pragma omp simd
    for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += alpha * acc[i][j];
  }
}

void gemm_tn_block(index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb,
                   float* c, index_t ldc) {
  index_t i = 0;
  for (; i + kMR <= m; i += kMR) {
    float* crow = c + i * ldc;
    index_t j = 0;
    for (; j + kNR <= n; j += kNR) {
      kernel_tn_4x16(k, alpha, a + i, lda, b + j, ldb, crow + j, ldc);
    }
    if (j < n) {
      kernel_tn_edge(kMR, n - j, k, alpha, a + i, lda, b + j, ldb, crow + j,
                     ldc);
    }
  }
  if (i < m) {
    for (index_t j = 0; j < n; j += kNR) {
      kernel_tn_edge(m - i, std::min(kNR, n - j), k, alpha, a + i, lda, b + j,
                     ldb, c + i * ldc + j, ldc);
    }
  }
}

void gemm_nt_row(index_t n, index_t k, float alpha,
                 const float* REF_RESTRICT arow, const float* REF_RESTRICT b,
                 index_t ldb, float* REF_RESTRICT crow) {
  index_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* REF_RESTRICT b0 = b + j * ldb;
    const float* REF_RESTRICT b1 = b + (j + 1) * ldb;
    const float* REF_RESTRICT b2 = b + (j + 2) * ldb;
    const float* REF_RESTRICT b3 = b + (j + 3) * ldb;
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
#pragma omp simd reduction(+ : s0, s1, s2, s3)
    for (index_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      s0 += av * b0[kk];
      s1 += av * b1[kk];
      s2 += av * b2[kk];
      s3 += av * b3[kk];
    }
    crow[j] += alpha * s0;
    crow[j + 1] += alpha * s1;
    crow[j + 2] += alpha * s2;
    crow[j + 3] += alpha * s3;
  }
  for (; j < n; ++j) {
    const float* REF_RESTRICT brow = b + j * ldb;
    float s = 0.0f;
#pragma omp simd reduction(+ : s)
    for (index_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
    crow[j] += alpha * s;
  }
}

#undef REF_RESTRICT

// C = alpha * op(A) * op(B) + beta * C for NN, TN and NT, serially.
void gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k, float alpha,
          const float* a, index_t lda, const float* b, index_t ldb,
          float beta, float* c, index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (beta == 0.0f) {
        c[i * ldc + j] = 0.0f;
      } else if (beta != 1.0f) {
        c[i * ldc + j] *= beta;
      }
    }
  }
  if (ta == Trans::kNo && tb == Trans::kYes) {
    for (index_t i = 0; i < m; ++i) {
      gemm_nt_row(n, k, alpha, a + i * lda, b, ldb, c + i * ldc);
    }
    return;
  }
  const bool tn = ta == Trans::kYes;
  for (index_t i0 = 0; i0 < m; i0 += kBlockM) {
    const index_t mb = std::min(kBlockM, m - i0);
    for (index_t k0 = 0; k0 < k; k0 += kBlockK) {
      const index_t kb = std::min(kBlockK, k - k0);
      for (index_t j0 = 0; j0 < n; j0 += kBlockN) {
        const index_t nb = std::min(kBlockN, n - j0);
        if (tn) {
          gemm_tn_block(mb, nb, kb, alpha, a + k0 * lda + i0, lda,
                        b + k0 * ldb + j0, ldb, c + i0 * ldc + j0, ldc);
        } else {
          gemm_nn_block(mb, nb, kb, alpha, a + i0 * lda + k0, lda,
                        b + k0 * ldb + j0, ldb, c + i0 * ldc + j0, ldc);
        }
      }
    }
  }
}

// The MLP step as it was: forward through matmul + bias + ReLU, backward
// with dX from the NT product (or, with nn_dx, from an NN product on W^T,
// which is what Mlp does now), relu_backward, then the row-order bias loops.
struct Mlp {
  std::vector<Matrix> w;
  std::vector<std::vector<float>> b;
  std::vector<OptimizerState> w_opt, b_opt;
  std::vector<Matrix> inputs;

  Mlp(elrec::Mlp& m, OptimizerConfig cfg) {
    for (int l = 0; l < m.num_layers(); ++l) {
      w.push_back(m.weight(l));
      b.push_back(m.bias(l));
      w_opt.emplace_back(cfg, static_cast<std::size_t>(w.back().size()));
      b_opt.emplace_back(cfg, b.back().size());
    }
  }

  void forward(const Matrix& in, Matrix& out) {
    const auto n = w.size();
    inputs.assign(n + 1, Matrix());
    inputs[0] = in;
    for (std::size_t l = 0; l < n; ++l) {
      Matrix& z = inputs[l + 1];
      z.resize(in.rows(), w[l].cols());
      ref::gemm(Trans::kNo, Trans::kNo, in.rows(), w[l].cols(), w[l].rows(), 1.0f,
           inputs[l].data(), inputs[l].cols(), w[l].data(), w[l].cols(), 0.0f,
           z.data(), z.cols());
      for (index_t i = 0; i < z.rows(); ++i) {
        float* row = z.row(i);
        for (std::size_t j = 0; j < b[l].size(); ++j) row[j] += b[l][j];
      }
      if (l + 1 < n) {
        for (index_t i = 0; i < z.size(); ++i) {
          z.data()[i] = std::max(z.data()[i], 0.0f);
        }
      }
    }
    out = inputs[n];
  }

  void backward(const Matrix& grad_out, Matrix& grad_in, float lr,
                bool nn_dx) {
    Matrix grad = grad_out;
    for (int l = static_cast<int>(w.size()) - 1; l >= 0; --l) {
      const auto ul = static_cast<std::size_t>(l);
      const Matrix& x = inputs[ul];
      Matrix& wl = w[ul];
      Matrix dx(grad.rows(), wl.rows());
      if (nn_dx) {
        Matrix wt(wl.cols(), wl.rows());
        for (index_t i = 0; i < wl.rows(); ++i) {
          for (index_t j = 0; j < wl.cols(); ++j) wt.at(j, i) = wl.at(i, j);
        }
        ref::gemm(Trans::kNo, Trans::kNo, grad.rows(), wl.rows(), wl.cols(), 1.0f,
             grad.data(), grad.cols(), wt.data(), wt.cols(), 0.0f, dx.data(),
             dx.cols());
      } else {
        ref::gemm(Trans::kNo, Trans::kYes, grad.rows(), wl.rows(), wl.cols(), 1.0f,
             grad.data(), grad.cols(), wl.data(), wl.cols(), 0.0f, dx.data(),
             dx.cols());
      }
      auto& bias = b[ul];
      if (w_opt[ul].config().kind == OptimizerKind::kSgd) {
        ref::gemm(Trans::kYes, Trans::kNo, wl.rows(), wl.cols(), grad.rows(), -lr,
             x.data(), x.cols(), grad.data(), grad.cols(), 1.0f, wl.data(),
             wl.cols());
        for (index_t i = 0; i < grad.rows(); ++i) {
          const float* g = grad.row(i);
          for (std::size_t j = 0; j < bias.size(); ++j) bias[j] -= lr * g[j];
        }
      } else {
        Matrix gw(wl.rows(), wl.cols());
        ref::gemm(Trans::kYes, Trans::kNo, wl.rows(), wl.cols(), grad.rows(), 1.0f,
             x.data(), x.cols(), grad.data(), grad.cols(), 0.0f, gw.data(),
             gw.cols());
        w_opt[ul].update({wl.data(), static_cast<std::size_t>(wl.size())},
                         {gw.data(), static_cast<std::size_t>(gw.size())}, lr);
        std::vector<float> gb(bias.size(), 0.0f);
        for (index_t i = 0; i < grad.rows(); ++i) {
          const float* g = grad.row(i);
          for (std::size_t j = 0; j < bias.size(); ++j) gb[j] += g[j];
        }
        b_opt[ul].update(bias, gb, lr);
      }
      if (l > 0) {
        const Matrix& act = inputs[ul];
        grad.resize(dx.rows(), dx.cols());
        for (index_t i = 0; i < dx.size(); ++i) {
          grad.data()[i] = act.data()[i] > 0.0f ? dx.data()[i] : 0.0f;
        }
      } else {
        grad_in = dx;
      }
    }
  }
};

}  // namespace ref

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

bool bitwise_equal(const float* a, const float* b, index_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         bitwise_equal(a.data(), b.data(), a.size());
}

Matrix random_matrix(index_t rows, index_t cols, Prng& rng) {
  Matrix m(rows, cols);
  m.fill_normal(rng);
  return m;
}

const index_t kMs[] = {1, 3, 5, 2048};
const index_t kNs[] = {1, 13, 17, 128};
const index_t kKs[] = {1, 13, 64, 300};

// Forward products (NN, beta 0) and weight-gradient products (TN, both the
// SGD-fused alpha = -lr, beta = 1 form and the explicit alpha = 1, beta = 0
// form) are bitwise ref::gemm's at 1, 2 and 4 threads.
TEST(MlpKernels, ForwardAndWeightGradientBitwiseAtRaggedShapes) {
  Prng rng(11);
  for (index_t m : kMs) {
    for (index_t n : kNs) {
      for (index_t k : kKs) {
        const Matrix a = random_matrix(m, k, rng);
        const Matrix b = random_matrix(k, n, rng);
        Matrix want(m, n);
        ref::gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k,
                  b.data(), n, 0.0f, want.data(), n);
        // TN: C (k x n) = A^T (k x m) * B' (m x n), with m the batch.
        const Matrix g = random_matrix(m, n, rng);
        const Matrix w0 = random_matrix(k, n, rng);
        Matrix want_sgd = w0;
        ref::gemm(Trans::kYes, Trans::kNo, k, n, m, -0.05f, a.data(), k,
                  g.data(), n, 1.0f, want_sgd.data(), n);
        Matrix want_grad(k, n);
        ref::gemm(Trans::kYes, Trans::kNo, k, n, m, 1.0f, a.data(), k,
                  g.data(), n, 0.0f, want_grad.data(), n);
        for (int threads : {1, 2, 4}) {
          set_threads(threads);
          SCOPED_TRACE(testing::Message() << "m=" << m << " n=" << n
                                          << " k=" << k << " t=" << threads);
          Matrix got;
          matmul(a, b, got);
          EXPECT_TRUE(bitwise_equal(got, want));
          Matrix sgd = w0;
          gemm(Trans::kYes, Trans::kNo, k, n, m, -0.05f, a.data(), k,
               g.data(), n, 1.0f, sgd.data(), n);
          EXPECT_TRUE(bitwise_equal(sgd, want_sgd));
          Matrix grad(k, n);
          gemm(Trans::kYes, Trans::kNo, k, n, m, 1.0f, a.data(), k, g.data(),
               n, 0.0f, grad.data(), n);
          EXPECT_TRUE(bitwise_equal(grad, want_grad));
        }
      }
    }
  }
  set_threads(4);
}

struct MlpCase {
  std::vector<index_t> sizes;
  index_t batch;
};

// The perfbench bottom and top MLPs, and ragged ones.
const MlpCase kMlpCases[] = {
    {{13, 64, 32, 32}, 2048}, {{42, 128, 64, 1}, 2048},
    {{13, 17, 1}, 5},         {{17, 13, 128, 1}, 3},
    {{5, 17, 13}, 1},         {{128, 1, 17}, 2048},
};

float dx_tolerance(const Matrix& grad, const Matrix& w, index_t i, index_t j) {
  double sum = 0.0;
  for (index_t kk = 0; kk < w.cols(); ++kk) {
    sum += std::fabs(static_cast<double>(grad.at(i, kk)) * w.at(j, kk));
  }
  return static_cast<float>(2.0 * static_cast<double>(w.cols()) *
                            std::ldexp(1.0, -24) * sum);
}

void run_step(elrec::Mlp& mlp, const Matrix& x, const Matrix& g, Matrix& out,
              Matrix& gin) {
  mlp.forward(x, out);
  mlp.backward_and_update(g, gin, 0.05f);
}

// One training step under each optimizer: the forward output, every
// updated weight and bias and grad_in are bitwise ref::Mlp's with NN dX at
// 1, 2 and 4 threads.
TEST(MlpKernels, StepMatchesReferenceUnderEachOptimizer) {
  for (OptimizerKind kind : {OptimizerKind::kSgd, OptimizerKind::kAdagrad,
                             OptimizerKind::kMomentum}) {
    for (const MlpCase& c : kMlpCases) {
      Prng rng(21);
      elrec::Mlp base(c.sizes, rng);
      OptimizerConfig cfg;
      cfg.kind = kind;
      base.set_optimizer(cfg);
      for (int l = 0; l < base.num_layers(); ++l) {
        for (float& v : base.bias(l)) v = static_cast<float>(rng.normal(0, 0.1));
      }
      const Matrix x = random_matrix(c.batch, c.sizes.front(), rng);
      const Matrix g = random_matrix(c.batch, c.sizes.back(), rng);

      ref::Mlp want(base, cfg);
      Matrix want_out, want_gin;
      want.forward(x, want_out);
      want.backward(g, want_gin, 0.05f, /*nn_dx=*/true);

      for (int threads : {1, 2, 4}) {
        set_threads(threads);
        SCOPED_TRACE(testing::Message()
                     << "kind=" << static_cast<int>(kind) << " in="
                     << c.sizes.front() << " batch=" << c.batch
                     << " t=" << threads);
        elrec::Mlp mlp = base;
        Matrix out, gin;
        run_step(mlp, x, g, out, gin);
        EXPECT_TRUE(bitwise_equal(out, want_out));
        EXPECT_TRUE(bitwise_equal(gin, want_gin));
        for (int l = 0; l < mlp.num_layers(); ++l) {
          const auto ul = static_cast<std::size_t>(l);
          EXPECT_TRUE(bitwise_equal(mlp.weight(l), want.w[ul])) << "layer " << l;
          EXPECT_TRUE(bitwise_equal(mlp.bias(l).data(), want.b[ul].data(),
                                    static_cast<index_t>(want.b[ul].size())))
              << "layer " << l;
        }
      }
    }
  }
  set_threads(4);
}

// dX alone, at every ragged shape: NN on W^T against the NT product.
TEST(MlpKernels, InputGradientWithinToleranceOfNtProduct) {
  Prng rng(31);
  for (index_t m : kMs) {
    for (index_t in : kNs) {
      for (index_t out : kKs) {
        const Matrix g = random_matrix(m, out, rng);
        const Matrix w = random_matrix(in, out, rng);
        Matrix nt(m, in);
        ref::gemm(Trans::kNo, Trans::kYes, m, in, out, 1.0f, g.data(), out,
                  w.data(), out, 0.0f, nt.data(), in);
        elrec::Mlp mlp({in, out}, rng);
        mlp.weight(0) = w;
        const Matrix x = random_matrix(m, in, rng);
        Matrix y, gin;
        mlp.forward(x, y);
        mlp.backward_and_update(g, gin, 0.0f);
        for (index_t i = 0; i < m; ++i) {
          for (index_t j = 0; j < in; ++j) {
            ASSERT_LE(std::fabs(gin.at(i, j) - nt.at(i, j)),
                      dx_tolerance(g, w, i, j))
                << "m=" << m << " in=" << in << " out=" << out;
          }
        }
      }
    }
  }
}

// A row's forward output is the same alone and inside a batch of 3, in
// training and frozen forward alike.
TEST(MlpKernels, RowOutputIndependentOfBatch) {
  for (const MlpCase& c : kMlpCases) {
    Prng rng(41);
    elrec::Mlp mlp(c.sizes, rng);
    const Matrix batch = random_matrix(3, c.sizes.front(), rng);
    Matrix out3, sa, sb;
    mlp.forward(batch, out3);
    for (index_t r = 0; r < 3; ++r) {
      Matrix one(1, batch.cols());
      std::copy(batch.row(r), batch.row(r) + batch.cols(), one.data());
      Matrix out1, frozen1;
      mlp.forward(one, out1);
      mlp.forward_frozen(one, frozen1, sa, sb);
      EXPECT_TRUE(bitwise_equal(out1.data(), out3.row(r), out3.cols()));
      EXPECT_TRUE(bitwise_equal(frozen1, out1));
    }
  }
}

// The bottom MLP's overload without grad_in makes the same updates.
TEST(MlpKernels, BackwardWithoutInputGradientUpdatesIdentically) {
  Prng rng(51);
  elrec::Mlp a({13, 64, 32, 32}, rng);
  elrec::Mlp b = a;
  const Matrix x = random_matrix(2048, 13, rng);
  const Matrix g = random_matrix(2048, 32, rng);
  Matrix ya, yb, gin;
  a.forward(x, ya);
  a.backward_and_update(g, gin, 0.05f);
  b.forward(x, yb);
  b.backward_and_update(g, 0.05f);
  for (int l = 0; l < a.num_layers(); ++l) {
    EXPECT_TRUE(bitwise_equal(a.weight(l), b.weight(l)));
    EXPECT_TRUE(bitwise_equal(a.bias(l).data(), b.bias(l).data(),
                              static_cast<index_t>(a.bias(l).size())));
  }
}

// FeatureInteraction::backward runs in parallel over samples and is
// bitwise the same at 1, 2 and 4 threads.
TEST(MlpKernels, InteractionBackwardBitwiseAcrossThreadCounts) {
  Prng rng(61);
  const index_t b = 2048, f = 5, d = 32;
  std::vector<Matrix> feats;
  for (index_t i = 0; i < f; ++i) feats.push_back(random_matrix(b, d, rng));
  std::vector<const Matrix*> ptrs;
  for (const Matrix& m : feats) ptrs.push_back(&m);
  FeatureInteraction inter(f, d);
  Matrix out;
  inter.forward(ptrs, out);
  const Matrix g = random_matrix(b, inter.output_dim(), rng);
  std::vector<Matrix> want;
  set_threads(1);
  inter.backward(g, want);
  for (int threads : {2, 4}) {
    set_threads(threads);
    std::vector<Matrix> got;
    inter.backward(g, got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(got[i], want[i])) << "feature " << i;
    }
  }
  set_threads(4);
}

// After a warm-up step, steps at a fixed batch allocate no Matrix storage:
// activations, gradients, packed W^T and the model's logits and gradients
// all keep their buffers.
TEST(MlpKernels, SteadyStateStepAllocatesNothing) {
  Prng rng(71);
  elrec::Mlp mlp({42, 128, 64, 1}, rng);
  const Matrix x = random_matrix(512, 42, rng);
  const Matrix g = random_matrix(512, 1, rng);
  Matrix out, gin;
  run_step(mlp, x, g, out, gin);
  const float* out_ptr = out.data();
  const float* gin_ptr = gin.data();
  const std::size_t before = aligned_allocations_on_this_thread();
  for (int step = 0; step < 3; ++step) run_step(mlp, x, g, out, gin);
  EXPECT_EQ(aligned_allocations_on_this_thread(), before);
  EXPECT_EQ(out.data(), out_ptr);
  EXPECT_EQ(gin.data(), gin_ptr);

  DlrmConfig cfg;
  cfg.embedding_dim = 16;
  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  for (int t = 0; t < 3; ++t) {
    tables.push_back(std::make_unique<EmbeddingBag>(100, 16, rng));
  }
  DlrmModel model(cfg, std::move(tables), rng);
  MiniBatch batch;
  batch.dense = random_matrix(256, cfg.num_dense, rng);
  for (int t = 0; t < 3; ++t) {
    std::vector<std::vector<index_t>> bags(256);
    for (auto& bag : bags) bag.push_back(static_cast<index_t>(rng.uniform_index(100)));
    batch.sparse.push_back(IndexBatch::from_bags(bags));
  }
  for (index_t i = 0; i < 256; ++i) batch.labels.push_back(i % 3 == 0 ? 1.0f : 0.0f);
  model.train_step(batch, 0.05f);
  const std::size_t model_before = aligned_allocations_on_this_thread();
  for (int step = 0; step < 3; ++step) model.train_step(batch, 0.05f);
  EXPECT_EQ(aligned_allocations_on_this_thread(), model_before);
}

}  // namespace
}  // namespace elrec
