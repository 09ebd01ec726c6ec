#include "tt/tt_kernels.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace elrec {
namespace {

// c (M x N) = op(a) * b, or c += op(a) * b when kAdd. op(a) is M x K: a is
// stored M x K, or K x M when kTransA. b is K x N. All strides are the
// logical widths. Each output is summed over k in ascending order starting
// from zero and then stored or added once — the order gemm()'s NN and TN
// paths use, so results match them bitwise. Output rows are split into
// vectors of kW lanes and taken in blocks of at most 16 vectors, which the
// compiler keeps in registers across the whole k loop.
template <index_t M, index_t N, index_t K, bool kTransA, bool kAdd>
inline void product(const float* a, const float* b, float* c) {
  constexpr index_t kW = N % 8 == 0 ? 8 : N;
  constexpr index_t kV = N / kW;
  constexpr index_t kRows = std::min<index_t>(M, std::max<index_t>(1, 16 / kV));
  static_assert(N % kW == 0 && M % kRows == 0, "vectors must tile the output");
  typedef float Vec __attribute__((vector_size(kW * sizeof(float))));
  for (index_t i0 = 0; i0 < M; i0 += kRows) {
    Vec acc[kRows][kV] = {};
    for (index_t k = 0; k < K; ++k) {
#pragma GCC unroll 16
      for (index_t i = 0; i < kRows; ++i) {
        const float aik = kTransA ? a[k * M + i0 + i] : a[(i0 + i) * K + k];
#pragma GCC unroll 16
        for (index_t v = 0; v < kV; ++v) {
          Vec bkv;
          std::memcpy(&bkv, b + k * N + v * kW, sizeof(Vec));
          acc[i][v] += aik * bkv;
        }
      }
    }
#pragma GCC unroll 16
    for (index_t i = 0; i < kRows; ++i) {
#pragma GCC unroll 16
      for (index_t v = 0; v < kV; ++v) {
        float* out = c + (i0 + i) * N + v * kW;
        Vec sum = acc[i][v];
        if constexpr (kAdd) {
          Vec old;
          std::memcpy(&old, out, sizeof(Vec));
          sum = old + sum;
        }
        std::memcpy(out, &sum, sizeof(Vec));
      }
    }
  }
}

template <index_t N0, index_t N1, index_t N2, index_t R>
struct Kernels3 {
  static void prefix(const float* c0, const float* c1, float* p12) {
    product<N0, N1 * R, R, false, false>(c0, c1, p12);
  }
  static void expand(const float* p12, const float* c2, float* row) {
    product<N0 * N1, N2, R, false, false>(p12, c2, row);
  }
  static void grad_c2(const float* p12, const float* g, float* dc2) {
    product<R, N2, N0 * N1, true, true>(p12, g, dc2);
  }
  static void grad_p12(const float* g, const float* c2t, float* dp12) {
    product<N0 * N1, R, N2, false, false>(g, c2t, dp12);
  }
  static void grad_c1(const float* c0, const float* dp12, float* dc1) {
    product<R, N1 * R, N0, true, true>(c0, dp12, dc1);
  }
  static void grad_c0(const float* dp12, const float* c1t, float* dc0) {
    product<N0, R, N1 * R, false, true>(dp12, c1t, dc0);
  }
  static void backward(const float* c0, const float* c1t, const float* c2t,
                       const float* p12, const float* g, float* dc0,
                       float* dc1, float* dc2) {
    float dp12[N0 * N1 * R];
    grad_c2(p12, g, dc2);
    grad_p12(g, c2t, dp12);
    grad_c1(c0, dp12, dc1);
    grad_c0(dp12, c1t, dc0);
  }
  static constexpr TT3Kernels kTable{&prefix,  &expand,   &grad_c2, &grad_p12,
                                     &grad_c1, &grad_c0, &backward};
};

struct Entry {
  index_t n0, n1, n2, rank;
  const TT3Kernels* kernels;
};

// dim 16 / 32 / 64 factorize to (2,2,4) / (4,2,4) / (4,4,4) under
// TTShape::exact_factorize; ranks 8-32 are the ones the benches and
// examples train.
constexpr std::array<Entry, 9> kEntries{{
    {2, 2, 4, 8, &Kernels3<2, 2, 4, 8>::kTable},
    {2, 2, 4, 16, &Kernels3<2, 2, 4, 16>::kTable},
    {2, 2, 4, 32, &Kernels3<2, 2, 4, 32>::kTable},
    {4, 2, 4, 8, &Kernels3<4, 2, 4, 8>::kTable},
    {4, 2, 4, 16, &Kernels3<4, 2, 4, 16>::kTable},
    {4, 2, 4, 32, &Kernels3<4, 2, 4, 32>::kTable},
    {4, 4, 4, 8, &Kernels3<4, 4, 4, 8>::kTable},
    {4, 4, 4, 16, &Kernels3<4, 4, 4, 16>::kTable},
    {4, 4, 4, 32, &Kernels3<4, 4, 4, 32>::kTable},
}};

}  // namespace

const TT3Kernels* find_tt3_kernels(const TTShape& shape) {
  if (shape.num_cores() != 3 || shape.rank(1) != shape.rank(2)) return nullptr;
  for (const Entry& e : kEntries) {
    if (e.n0 == shape.col_factor(0) && e.n1 == shape.col_factor(1) &&
        e.n2 == shape.col_factor(2) && e.rank == shape.rank(1)) {
      return e.kernels;
    }
  }
  return nullptr;
}

void SliceTransposes::pack(const TTCores& cores, int k) {
  const index_t rows = cores.slice_rows(k);
  const index_t cols = cores.slice_cols(k);
  const index_t slices = cores.shape().row_factor(k);
  slice_floats_ = rows * cols;
  data_.resize(static_cast<std::size_t>(slices * slice_floats_));
  for (index_t s = 0; s < slices; ++s) {
    const float* src = cores.slice(k, s);
    float* dst = data_.data() + s * slice_floats_;
    for (index_t r = 0; r < rows; ++r) {
      for (index_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
    }
  }
}

}  // namespace elrec
