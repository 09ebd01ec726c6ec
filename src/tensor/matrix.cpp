#include "tensor/matrix.hpp"

#include <cmath>

namespace elrec {

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> rows) {
  const index_t r = static_cast<index_t>(rows.size());
  ELREC_CHECK(r > 0, "initializer list must be non-empty");
  const index_t c = static_cast<index_t>(rows.begin()->size());
  resize(r, c);
  index_t i = 0;
  for (const auto& row_values : rows) {
    ELREC_CHECK(static_cast<index_t>(row_values.size()) == c,
                "ragged initializer list");
    index_t j = 0;
    for (float v : row_values) at(i, j++) = v;
    ++i;
  }
}

void Matrix::resize(index_t rows, index_t cols) {
  ELREC_CHECK(rows >= 0 && cols >= 0, "negative matrix shape");
  rows_ = rows;
  cols_ = cols;
  buf_.resize(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
}

void Matrix::resize_for_overwrite(index_t rows, index_t cols) {
  ELREC_CHECK(rows >= 0 && cols >= 0, "negative matrix shape");
  rows_ = rows;
  cols_ = cols;
  buf_.resize_for_overwrite(static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(cols));
}

void Matrix::fill_normal(Prng& rng, float mean, float stddev) {
  for (index_t i = 0; i < size(); ++i) {
    buf_[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.normal(mean, stddev));
  }
}

void Matrix::fill_uniform(Prng& rng, float lo, float hi) {
  for (index_t i = 0; i < size(); ++i) {
    buf_[static_cast<std::size_t>(i)] = static_cast<float>(rng.uniform(lo, hi));
  }
}

void Matrix::fill_xavier(Prng& rng) {
  const double bound = std::sqrt(6.0 / (rows_ + cols_));
  fill_uniform(rng, static_cast<float>(-bound), static_cast<float>(bound));
}

float Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  ELREC_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              "shape mismatch in max_abs_diff");
  float m = 0.0f;
  for (index_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

float Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (index_t i = 0; i < size(); ++i) {
    acc += static_cast<double>(data()[i]) * data()[i];
  }
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace elrec
