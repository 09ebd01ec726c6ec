// Tests for the shape-specialized d = 3 TT kernels (src/tt/tt_kernels): each
// product against gemm() on the same operands — bitwise for the forward and
// the two TN products, within a rounding bound for the two NT products —,
// the fused chain against its parts, the generic fallback for shapes without
// kernels, and thread-count invariance of the Eff-TT backward that uses them.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/eff_tt_table.hpp"
#include "tensor/gemm.hpp"
#include "tt/tt_kernels.hpp"
#include "tt/tt_table.hpp"

namespace elrec {
namespace {

struct KernelShape {
  index_t n0, n1, n2, rank;
};

// Every specialized shape.
const std::vector<KernelShape> kShapes = {
    {2, 2, 4, 8},  {2, 2, 4, 16}, {2, 2, 4, 32}, {4, 2, 4, 8},  {4, 2, 4, 16},
    {4, 2, 4, 32}, {4, 4, 4, 8},  {4, 4, 4, 16}, {4, 4, 4, 32},
};

TTShape tt_shape(const KernelShape& s) {
  return TTShape({3, 4, 5}, {s.n0, s.n1, s.n2}, {1, s.rank, s.rank, 1});
}

std::vector<float> random_vec(index_t n, Prng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void expect_bitwise(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << " differs from gemm()";
}

// The NT kernels sum k in ascending order where gemm() uses a SIMD tree
// reduction. Two orders of the same K-term float sum differ by at most
// 2 K eps sum|terms| (plus one rounding of the final add into c): this is
// the documented tolerance of grad_p12 and grad_c0.
void expect_nt_close(const std::vector<float>& kernel,
                     const std::vector<float>& ref, const float* a,
                     index_t lda, const float* b, index_t ldb, index_t m,
                     index_t n, index_t k, const char* what) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double abs_sum = 0.0;
      for (index_t t = 0; t < k; ++t) {
        abs_sum += std::fabs(static_cast<double>(a[i * lda + t]) *
                             b[j * ldb + t]);
      }
      const float r = ref[static_cast<std::size_t>(i * n + j)];
      const double tol = 2.0 * static_cast<double>(k) * FLT_EPSILON * abs_sum +
                         FLT_EPSILON * std::fabs(r);
      EXPECT_LE(std::fabs(kernel[static_cast<std::size_t>(i * n + j)] - r),
                tol)
          << what << " (" << i << ", " << j << ")";
    }
  }
}

TEST(TTKernels, EverySpecializedShapeHasKernels) {
  for (const KernelShape& s : kShapes) {
    EXPECT_NE(find_tt3_kernels(tt_shape(s)), nullptr)
        << s.n0 << "x" << s.n1 << "x" << s.n2 << " rank " << s.rank;
  }
}

TEST(TTKernels, ProductsMatchGemm) {
  for (const KernelShape& s : kShapes) {
    SCOPED_TRACE(::testing::Message() << s.n0 << "x" << s.n1 << "x" << s.n2
                                      << " rank " << s.rank);
    const TTShape shape = tt_shape(s);
    const TT3Kernels* kern = find_tt3_kernels(shape);
    ASSERT_NE(kern, nullptr);
    Prng rng(static_cast<std::uint64_t>(s.n0 * 1000 + s.n1 * 100 + s.rank));
    TTCores cores(shape);
    cores.init_normal(rng, 1.0f);
    SliceTransposes c1t, c2t;
    c1t.pack(cores, 1);
    c2t.pack(cores, 2);

    const index_t r = s.rank;
    const index_t n12 = s.n0 * s.n1;
    const index_t n1r = s.n1 * r;
    const float* c0 = cores.slice(0, 2);
    const float* c1 = cores.slice(1, 3);
    const float* c2 = cores.slice(2, 4);
    const std::vector<float> p12 = random_vec(n12 * r, rng);
    const std::vector<float> g = random_vec(n12 * s.n2, rng);
    const std::vector<float> dp12 = random_vec(n12 * r, rng);

    // Forward: stored outputs, bitwise.
    std::vector<float> want(static_cast<std::size_t>(s.n0 * n1r));
    std::vector<float> got(want.size());
    gemm(Trans::kNo, Trans::kNo, s.n0, n1r, r, 1.0f, c0, r, c1, n1r, 0.0f,
         want.data(), n1r);
    kern->prefix(c0, c1, got.data());
    expect_bitwise(got, want, "prefix");

    want.assign(static_cast<std::size_t>(n12 * s.n2), 0.0f);
    got.assign(want.size(), 0.0f);
    gemm(Trans::kNo, Trans::kNo, n12, s.n2, r, 1.0f, p12.data(), r, c2, s.n2,
         0.0f, want.data(), s.n2);
    kern->expand(p12.data(), c2, got.data());
    expect_bitwise(got, want, "expand");

    // TN products accumulate into existing gradients, bitwise.
    want = random_vec(r * s.n2, rng);
    got = want;
    gemm(Trans::kYes, Trans::kNo, r, s.n2, n12, 1.0f, p12.data(), r, g.data(),
         s.n2, 1.0f, want.data(), s.n2);
    kern->grad_c2(p12.data(), g.data(), got.data());
    expect_bitwise(got, want, "grad_c2");

    want = random_vec(r * n1r, rng);
    got = want;
    gemm(Trans::kYes, Trans::kNo, r, n1r, s.n0, 1.0f, c0, r, dp12.data(), n1r,
         1.0f, want.data(), n1r);
    kern->grad_c1(c0, dp12.data(), got.data());
    expect_bitwise(got, want, "grad_c1");

    // NT products read the packed transposes, within the rounding bound.
    want.assign(static_cast<std::size_t>(n12 * r), 0.0f);
    got.assign(want.size(), 0.0f);
    gemm(Trans::kNo, Trans::kYes, n12, r, s.n2, 1.0f, g.data(), s.n2, c2,
         s.n2, 0.0f, want.data(), r);
    kern->grad_p12(g.data(), c2t.slice(4), got.data());
    expect_nt_close(got, want, g.data(), s.n2, c2, s.n2, n12, r, s.n2,
                    "grad_p12");

    want = random_vec(s.n0 * r, rng);
    got = want;
    gemm(Trans::kNo, Trans::kYes, s.n0, r, n1r, 1.0f, dp12.data(), n1r, c1,
         n1r, 1.0f, want.data(), r);
    kern->grad_c0(dp12.data(), c1t.slice(3), got.data());
    expect_nt_close(got, want, dp12.data(), n1r, c1, n1r, s.n0, r, n1r,
                    "grad_c0");
  }
}

TEST(TTKernels, FusedBackwardEqualsItsParts) {
  const KernelShape s{4, 2, 4, 16};
  const TTShape shape = tt_shape(s);
  const TT3Kernels* kern = find_tt3_kernels(shape);
  ASSERT_NE(kern, nullptr);
  Prng rng(3);
  TTCores cores(shape);
  cores.init_normal(rng, 1.0f);
  SliceTransposes c1t, c2t;
  c1t.pack(cores, 1);
  c2t.pack(cores, 2);
  const std::vector<float> p12 = random_vec(s.n0 * s.n1 * s.rank, rng);
  const std::vector<float> g = random_vec(s.n0 * s.n1 * s.n2, rng);

  std::vector<float> dc0 = random_vec(s.n0 * s.rank, rng);
  std::vector<float> dc1 = random_vec(s.rank * s.n1 * s.rank, rng);
  std::vector<float> dc2 = random_vec(s.rank * s.n2, rng);
  std::vector<float> e0 = dc0, e1 = dc1, e2 = dc2;
  std::vector<float> dp12(p12.size());

  kern->backward(cores.slice(0, 1), c1t.slice(2), c2t.slice(3), p12.data(),
                 g.data(), dc0.data(), dc1.data(), dc2.data());
  kern->grad_c2(p12.data(), g.data(), e2.data());
  kern->grad_p12(g.data(), c2t.slice(3), dp12.data());
  kern->grad_c1(cores.slice(0, 1), dp12.data(), e1.data());
  kern->grad_c0(dp12.data(), c1t.slice(2), e0.data());
  expect_bitwise(dc0, e0, "fused dc0");
  expect_bitwise(dc1, e1, "fused dc1");
  expect_bitwise(dc2, e2, "fused dc2");
}

TEST(TTKernels, SliceTransposesPackEverySlice) {
  Prng rng(4);
  TTCores cores(tt_shape({4, 2, 4, 8}));
  cores.init_normal(rng, 1.0f);
  SliceTransposes t;
  t.pack(cores, 1);
  const index_t rows = cores.slice_rows(1);
  const index_t cols = cores.slice_cols(1);
  for (index_t i = 0; i < cores.shape().row_factor(1); ++i) {
    for (index_t r = 0; r < rows; ++r) {
      for (index_t c = 0; c < cols; ++c) {
        ASSERT_EQ(t.slice(i)[c * rows + r], cores.slice(1, i)[r * cols + c]);
      }
    }
  }
}

// Both tables run the same kernels, and the forward keeps gemm()'s k order,
// so a row read through either table equals the generic materialization.
TEST(TTKernels, TablesShareBitwiseForward) {
  Prng rng(5);
  TTCores cores(tt_shape({4, 2, 4, 16}));
  cores.init_normal(rng, 0.2f);
  EffTTTable eff(60, cores);
  TTTable base(60, cores);
  const Matrix dense = cores.materialize(60);
  std::vector<index_t> idx;
  for (index_t i = 0; i < 60; ++i) idx.push_back((i * 7) % 60);
  const IndexBatch batch = IndexBatch::one_per_sample(idx);
  Matrix out_eff, out_base, out_lookup;
  eff.forward(batch, out_eff);
  base.forward(batch, out_base);
  auto ctx = eff.make_lookup_context();
  eff.lookup(batch, out_lookup, ctx.get());
  for (index_t s = 0; s < batch.batch_size(); ++s) {
    const float* want = dense.row(idx[static_cast<std::size_t>(s)]);
    const std::size_t bytes = static_cast<std::size_t>(dense.cols()) *
                              sizeof(float);
    EXPECT_EQ(std::memcmp(out_eff.row(s), want, bytes), 0) << "row " << s;
    EXPECT_EQ(std::memcmp(out_base.row(s), want, bytes), 0) << "row " << s;
    EXPECT_EQ(std::memcmp(out_lookup.row(s), want, bytes), 0) << "row " << s;
  }
}

TEST(TTKernels, UnspecializedShapesKeepTheGenericPath) {
  // Rank 12, unequal ranks, an unlisted n and four cores have no kernels.
  EXPECT_EQ(find_tt3_kernels(TTShape({3, 4, 5}, {4, 2, 4}, {1, 12, 12, 1})),
            nullptr);
  EXPECT_EQ(find_tt3_kernels(TTShape({3, 4, 5}, {4, 2, 4}, {1, 16, 8, 1})),
            nullptr);
  EXPECT_EQ(find_tt3_kernels(TTShape({3, 4, 5}, {2, 4, 4}, {1, 16, 16, 1})),
            nullptr);
  EXPECT_EQ(find_tt3_kernels(
                TTShape({2, 3, 4, 5}, {2, 2, 2, 4}, {1, 8, 8, 8, 1})),
            nullptr);
}

TEST(TTKernels, GenericRank12TableStaysCorrect) {
  Prng rng(6);
  TTCores init(TTShape({3, 4, 5}, {4, 2, 4}, {1, 12, 12, 1}));
  init.init_normal(rng, 0.2f);
  ASSERT_EQ(find_tt3_kernels(init.shape()), nullptr);
  EffTTTable eff(60, init);
  TTTable base(60, init);
  const Matrix dense = init.materialize(60);
  const IndexBatch batch =
      IndexBatch::from_bags({{1, 9, 9}, {9}, {20, 1}, {44, 44, 59}});
  Matrix out_eff, out_base;
  eff.forward(batch, out_eff);
  base.forward(batch, out_base);
  for (index_t j = 0; j < 32; ++j) {
    EXPECT_NEAR(out_eff.at(1, j), dense.at(9, j), 1e-5f);
    EXPECT_NEAR(out_eff.at(2, j), dense.at(20, j) + dense.at(1, j), 1e-5f);
  }
  EXPECT_LT(Matrix::max_abs_diff(out_eff, out_base), 1e-5f);

  Matrix grad(4, 32);
  grad.fill_normal(rng);
  eff.backward_and_update(batch, grad, 0.05f);
  base.backward_and_update(batch, grad, 0.05f);
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(Matrix::max_abs_diff(eff.cores().core(k), base.cores().core(k)),
              1e-4f)
        << "core " << k;
  }
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

// Trains a (4,2,4) rank-16 table — the kernel path — under `threads`
// OpenMP threads; batches large enough that the parallel shard loop and the
// parallel batched launches engage.
EffTTTable train_kernel_table(int threads, EffTTConfig config) {
  set_threads(threads);
  Prng rng(21);
  EffTTTable table(4000, TTShape::balanced(4000, 32, 3, 16), rng, config);
  Prng data(22);
  Matrix out;
  for (int step = 0; step < 3; ++step) {
    std::vector<index_t> idx;
    for (int i = 0; i < 512; ++i) {
      idx.push_back(data.uniform() < 0.5
                        ? static_cast<index_t>(data.uniform_index(64))
                        : static_cast<index_t>(data.uniform_index(4000)));
    }
    const IndexBatch batch = IndexBatch::one_per_sample(idx);
    Matrix grad(batch.batch_size(), 32);
    grad.fill_normal(data, 0.0f, 0.1f);
    table.forward(batch, out);
    table.backward_and_update(batch, grad, 0.05f);
  }
  set_threads(1);
  return table;
}

TEST(TTKernels, KernelBackwardBitwiseAcrossThreadCounts) {
  ASSERT_NE(find_tt3_kernels(TTShape::balanced(4000, 32, 3, 16)), nullptr);
  for (const EffTTConfig config :
       {EffTTConfig{}, EffTTConfig{true, false, true},
        EffTTConfig{false, true, false}}) {
    EffTTTable t1 = train_kernel_table(1, config);
    EffTTTable t2 = train_kernel_table(2, config);
    EffTTTable t4 = train_kernel_table(4, config);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(Matrix::max_abs_diff(t1.cores().core(k), t2.cores().core(k)),
                0.0f)
          << "core " << k;
      EXPECT_EQ(Matrix::max_abs_diff(t1.cores().core(k), t4.cores().core(k)),
                0.0f)
          << "core " << k;
    }
  }
}

}  // namespace
}  // namespace elrec
