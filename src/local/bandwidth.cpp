#include "local/bandwidth.hpp"

#include <algorithm>

namespace chordal::local {

namespace {

std::int64_t ceil_log2(std::int64_t n) {
  std::int64_t bits = 0;
  while ((std::int64_t{1} << bits) < n) ++bits;
  return bits;
}

}  // namespace

std::int64_t resolve_capacity_words(const BandwidthConfig& bw, int num_nodes) {
  if (bw.capacity_words > 0) return bw.capacity_words;
  return std::max<std::int64_t>(1, ceil_log2(std::max(num_nodes, 2)));
}

std::int64_t fragment_rounds(std::int64_t words, std::int64_t capacity) {
  if (words <= 0) return 1;
  return (words + capacity - 1) / capacity;
}

std::int64_t transfer_rounds(std::int64_t words, const BandwidthConfig& bw,
                             int num_nodes) {
  if (bw.model == NetworkModel::kLocal) return 0;
  return fragment_rounds(words, resolve_capacity_words(bw, num_nodes));
}

std::int64_t ball_collection_rounds(std::int64_t radius,
                                    std::int64_t volume_words,
                                    std::int64_t degree,
                                    const BandwidthConfig& bw, int num_nodes) {
  if (bw.model == NetworkModel::kLocal) return radius;
  std::int64_t lanes =
      std::max<std::int64_t>(1, degree) * resolve_capacity_words(bw, num_nodes);
  std::int64_t drain = (std::max<std::int64_t>(volume_words, 1) + lanes - 1) /
                       lanes;
  return std::max(radius, drain);
}

}  // namespace chordal::local
