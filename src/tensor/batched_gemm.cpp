#include "tensor/batched_gemm.hpp"

#include "obs/trace.hpp"

namespace elrec {

BatchedGemmStats& batched_gemm_stats() {
  auto& reg = obs::MetricsRegistry::global();
  static BatchedGemmStats stats{reg.counter("tensor.batched_gemm.launches"),
                                reg.counter("tensor.batched_gemm.products"),
                                reg.counter("tensor.batched_gemm.skipped"),
                                reg.counter("tensor.batched_gemm.flops")};
  return stats;
}

namespace {

template <class Product>
void launch(const BatchedGemmShape& shape, std::span<const float* const> a,
            std::span<const float* const> b, std::span<float* const> c,
            const Product& product) {
  ELREC_CHECK(a.size() == b.size() && b.size() == c.size(),
              "batched_gemm pointer lists must have equal length");
  std::size_t executed = 0;
// `executed` is an integral count — order-free; the float work is
// per-product, never reduced across threads, so run-to-run bitwise
// output is unaffected.
// NOLINTNEXTLINE(elrec-nondeterministic-reduction): integral count only
#pragma omp parallel for schedule(static) reduction(+ : executed) \
    if (a.size() >= 64)
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (c[i] == nullptr) continue;
    product(a[i], b[i], c[i]);
    ++executed;
  }
  // One relaxed add per counter per launch; exact totals, no per-product
  // contention.
  auto& stats = batched_gemm_stats();
  stats.launches.add(1);
  stats.products.add(executed);
  stats.skipped.add(a.size() - executed);
  stats.flops.add(executed * 2ULL * static_cast<std::size_t>(shape.m) *
                  static_cast<std::size_t>(shape.n) *
                  static_cast<std::size_t>(shape.k));
}

}  // namespace

void batched_gemm(const BatchedGemmShape& shape,
                  std::span<const float* const> a,
                  std::span<const float* const> b, std::span<float* const> c) {
  TRACE_SPAN("tensor.batched_gemm");
  launch(shape, a, b, c, [&shape](const float* ai, const float* bi, float* ci) {
    gemm(shape.trans_a, shape.trans_b, shape.m, shape.n, shape.k, shape.alpha,
         ai, shape.lda, bi, shape.ldb, shape.beta, ci, shape.ldc);
  });
}

void batched_gemm(const BatchedGemmShape& shape,
                  std::span<const float* const> a,
                  std::span<const float* const> b, std::span<float* const> c,
                  GemmKernel kernel) {
  TRACE_SPAN("tensor.batched_gemm");
  launch(shape, a, b, c, kernel);
}

}  // namespace elrec
