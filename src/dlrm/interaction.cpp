#include "dlrm/interaction.hpp"

#include "common/error.hpp"
#include "tensor/vector_ops.hpp"

namespace elrec {

FeatureInteraction::FeatureInteraction(index_t num_features, index_t dim)
    : num_features_(num_features), dim_(dim) {
  ELREC_CHECK(num_features >= 2, "interaction needs at least two features");
  ELREC_CHECK(dim > 0, "feature dim must be positive");
}

void FeatureInteraction::forward(const std::vector<const Matrix*>& features,
                                 Matrix& out) {
  cached_batch_ = features.empty() ? 0 : features[0]->rows();
  forward_frozen(features, out, stacked_);
}

void FeatureInteraction::forward_frozen(
    const std::vector<const Matrix*>& features, Matrix& out,
    Matrix& stacked_scratch) const {
  ELREC_CHECK(static_cast<index_t>(features.size()) == num_features_,
              "wrong number of interaction features");
  const index_t b = features[0]->rows();
  for (const Matrix* f : features) {
    ELREC_CHECK(f->rows() == b && f->cols() == dim_,
                "interaction feature shape mismatch");
  }

  // Stack features sample-major: stacked row (s * F + f) = features[f][s].
  stacked_scratch.resize(b * num_features_, dim_);
  for (index_t f = 0; f < num_features_; ++f) {
    const Matrix& src = *features[static_cast<std::size_t>(f)];
    for (index_t s = 0; s < b; ++s) {
      copy({src.row(s), static_cast<std::size_t>(dim_)},
           {stacked_scratch.row(s * num_features_ + f),
            static_cast<std::size_t>(dim_)});
    }
  }

  out.resize(b, output_dim());
#pragma omp parallel for schedule(static) if (b >= 256)
  for (index_t s = 0; s < b; ++s) {
    float* dst = out.row(s);
    // Dense passthrough.
    const float* dense = stacked_scratch.row(s * num_features_ + 0);
    for (index_t j = 0; j < dim_; ++j) dst[j] = dense[j];
    // Upper-triangular pairwise dots.
    index_t pos = dim_;
    for (index_t i = 0; i < num_features_; ++i) {
      const float* fi = stacked_scratch.row(s * num_features_ + i);
      for (index_t j = i + 1; j < num_features_; ++j) {
        const float* fj = stacked_scratch.row(s * num_features_ + j);
        dst[pos++] = dot({fi, static_cast<std::size_t>(dim_)},
                         {fj, static_cast<std::size_t>(dim_)});
      }
    }
  }
}

void FeatureInteraction::backward(const Matrix& grad_out,
                                  std::vector<Matrix>& grads) const {
  ELREC_CHECK(grad_out.rows() == cached_batch_ &&
                  grad_out.cols() == output_dim(),
              "grad_out shape mismatch");
  const index_t b = cached_batch_;
  grads.resize(static_cast<std::size_t>(num_features_));
  for (auto& g : grads) g.resize(b, dim_);  // zero-filled

  // A sample writes only its own row of each gradient, in a fixed order, so
  // the result is the same at any thread count.
#pragma omp parallel for schedule(static) if (b >= 256)
  for (index_t s = 0; s < b; ++s) {
    const float* gout = grad_out.row(s);
    // Dense passthrough gradient.
    float* g0 = grads[0].row(s);
    for (index_t j = 0; j < dim_; ++j) g0[j] += gout[j];
    // d<fi, fj>/dfi = fj and vice versa.
    index_t pos = dim_;
    for (index_t i = 0; i < num_features_; ++i) {
      const float* fi = stacked_.row(s * num_features_ + i);
      float* gi = grads[static_cast<std::size_t>(i)].row(s);
      for (index_t j = i + 1; j < num_features_; ++j) {
        const float* fj = stacked_.row(s * num_features_ + j);
        float* gj = grads[static_cast<std::size_t>(j)].row(s);
        const float gp = gout[pos++];
        if (gp == 0.0f) continue;
        for (index_t kk = 0; kk < dim_; ++kk) {
          gi[kk] += gp * fj[kk];
          gj[kk] += gp * fi[kk];
        }
      }
    }
  }
}

}  // namespace elrec
