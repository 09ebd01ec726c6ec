// Shape-specialized row kernels for 3-core TT tables.
//
// A TT row is the chain C0[i0] * C1[i1] * C2[i2] of three small slices, and
// its backward is four more products of the same slices. Through gemm()
// each of those products pays the runtime dispatch, the beta fill and edge
// tiles on shapes as small as 16x4x8. For the shapes the tables use
// (d = 3, n in {(2,2,4), (4,2,4), (4,4,4)}, uniform rank in {8, 16, 32}) this
// file compiles every product with its extents as constants; a table picks
// its kernels once, at construction, and any other shape keeps the generic
// gemm() path. Eff-TT (src/core) and the TT-Rec baseline (TTTable) use the
// same kernels, so the speedups measured between them come from the
// algorithm, not from the kernels.
//
// Numerical contract, per product against gemm() on the same operands:
//  * prefix, expand, grad_c2 and grad_c1 sum each output over k in gemm()'s
//    order (ascending, from zero, then stored or added once) — bitwise equal;
//  * grad_p12 and grad_c0 read packed slice transposes and sum k in
//    ascending order, whereas gemm()'s NT path uses a SIMD tree reduction —
//    equal within float rounding: |diff| <= 2 K eps sum_k |a_ik b_kj|.
// Every kernel is a pure function of its inputs, so results never depend on
// the thread that runs it.
#pragma once

#include <vector>

#include "tt/tt_cores.hpp"

namespace elrec {

/// The kernels of one specialized shape (n0, n1, n2) with ranks (1, R, R, 1).
/// Operands are slices in their stored layout: C0[i0] viewed n0 x R, C1[i1]
/// R x n1 R, C2[i2] R x n2; p12 = C0[i0] * C1[i1] is n0 x n1 R, i.e.
/// (n0 n1) x R; a row and its gradient g are (n0 n1) x n2.
struct TT3Kernels {
  // p12 = c0 * c1.
  void (*prefix)(const float* c0, const float* c1, float* p12);
  // row = p12 * c2.
  void (*expand)(const float* p12, const float* c2, float* row);
  // dc2 (R x n2) += p12^T * g.
  void (*grad_c2)(const float* p12, const float* g, float* dc2);
  // dp12 ((n0 n1) x R) = g * c2^T, from c2t = C2[i2]^T (n2 x R).
  void (*grad_p12)(const float* g, const float* c2t, float* dp12);
  // dc1 (R x n1 R) += c0^T * dp12, dp12 viewed n0 x n1 R.
  void (*grad_c1)(const float* c0, const float* dp12, float* dc1);
  // dc0 (n0 x R) += dp12 * c1^T, from c1t = C1[i1]^T (n1 R x R).
  void (*grad_c0)(const float* dp12, const float* c1t, float* dc0);
  // The fused per-row chain: grad_c2, grad_p12, grad_c1 and grad_c0, with
  // dp12 held on the stack.
  void (*backward)(const float* c0, const float* c1t, const float* c2t,
                   const float* p12, const float* g, float* dc0, float* dc1,
                   float* dc2);
};

/// The kernels for `shape`, or nullptr when it is not a specialized shape.
const TT3Kernels* find_tt3_kernels(const TTShape& shape);

/// The transposes C_k[i]^T ((n_k R_{k+1}) x R_k) of every slice of one core.
/// A backward packs C1 and C2 once per call; grad_p12 and grad_c0 read them.
class SliceTransposes {
 public:
  void pack(const TTCores& cores, int k);
  const float* slice(index_t i) const {
    return data_.data() + i * slice_floats_;
  }

 private:
  std::vector<float> data_;
  index_t slice_floats_ = 0;
};

}  // namespace elrec
