#include "embed/index_batch.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>

#include "common/error.hpp"

namespace elrec {

IndexBatch IndexBatch::one_per_sample(std::vector<index_t> indices) {
  IndexBatch batch;
  batch.offsets.resize(indices.size() + 1);
  for (std::size_t i = 0; i <= indices.size(); ++i) {
    batch.offsets[i] = static_cast<index_t>(i);
  }
  batch.indices = std::move(indices);
  return batch;
}

IndexBatch IndexBatch::from_bags(const std::vector<std::vector<index_t>>& bags) {
  IndexBatch batch;
  batch.offsets.reserve(bags.size() + 1);
  batch.offsets.push_back(0);
  for (const auto& bag : bags) {
    batch.indices.insert(batch.indices.end(), bag.begin(), bag.end());
    batch.offsets.push_back(static_cast<index_t>(batch.indices.size()));
  }
  return batch;
}

void IndexBatch::validate(index_t num_rows) const {
  ELREC_CHECK(!offsets.empty() && offsets.front() == 0,
              "offsets must start at 0");
  ELREC_CHECK(offsets.back() == static_cast<index_t>(indices.size()),
              "offsets must end at indices.size()");
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    ELREC_CHECK(offsets[i] >= offsets[i - 1], "offsets must be nondecreasing");
  }
  for (index_t idx : indices) {
    ELREC_CHECK(idx >= 0 && idx < num_rows, "embedding index out of range");
  }
}

UniqueIndexMap build_unique_index_map(const std::vector<index_t>& indices) {
  UniqueIndexMap map;
  const std::size_t n = indices.size();
  map.occurrence.resize(n);
  if (n == 0) return map;
  // Positions ordered by index through an LSD radix sort over the bytes of
  // (index - min): linear in n, where a comparison sort plus one binary
  // search per position was the largest part of an Eff-TT forward. The sort
  // is stable, and the walk below assigns ranks in ascending index order, so
  // the result is the same as sorting the indices.
  const auto [lo, hi] = std::minmax_element(indices.begin(), indices.end());
  const auto base = static_cast<std::uint64_t>(*lo);
  const std::uint64_t range = static_cast<std::uint64_t>(*hi) - base;
  std::vector<index_t> order(n);
  std::vector<index_t> sorted(n);
  std::iota(order.begin(), order.end(), index_t{0});
  for (int shift = 0; shift < 64 && (range >> shift) != 0; shift += 8) {
    const auto digit = [&](index_t pos) {
      return static_cast<std::size_t>(
          ((static_cast<std::uint64_t>(indices[static_cast<std::size_t>(pos)]) -
            base) >>
           shift) &
          0xff);
    };
    std::array<std::size_t, 257> start{};
    for (index_t pos : order) ++start[digit(pos) + 1];
    for (std::size_t d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (index_t pos : order) sorted[start[digit(pos)]++] = pos;
    order.swap(sorted);
  }
  map.unique.reserve(n);
  for (index_t pos : order) {
    const index_t v = indices[static_cast<std::size_t>(pos)];
    if (map.unique.empty() || map.unique.back() != v) map.unique.push_back(v);
    map.occurrence[static_cast<std::size_t>(pos)] =
        static_cast<index_t>(map.unique.size()) - 1;
  }
  return map;
}

}  // namespace elrec
