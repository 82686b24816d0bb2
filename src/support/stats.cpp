#include "support/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace chordal {

void StatAccumulator::add(double x) {
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double StatAccumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

namespace {

/// Shared interpolation kernel; `sorted` must be ascending and non-empty.
double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (q <= 0) return sorted.front();
  if (q >= 1) return sorted.back();
  double pos = q * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1 - frac) + sorted[lo + 1] * frac;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: empty sample");
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

void Samples::add(double x) {
  sorted_ = data_.empty() || (sorted_ && x >= data_.back());
  data_.push_back(x);
  sum_ += x;
}

double Samples::min() const {
  if (data_.empty()) throw std::invalid_argument("Samples::min: empty");
  return percentile(0.0);
}

double Samples::max() const {
  if (data_.empty()) throw std::invalid_argument("Samples::max: empty");
  return percentile(1.0);
}

double Samples::mean() const {
  if (data_.empty()) throw std::invalid_argument("Samples::mean: empty");
  return sum_ / static_cast<double>(data_.size());
}

double Samples::percentile(double q) const {
  if (data_.empty()) {
    throw std::invalid_argument("Samples::percentile: empty sample");
  }
  if (!sorted_) {
    std::sort(data_.begin(), data_.end());
    sorted_ = true;
  }
  return percentile_sorted(data_, q);
}

}  // namespace chordal
