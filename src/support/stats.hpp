// Small statistics helpers used by the benchmark harnesses.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace chordal {

/// Streaming accumulator for min/max/mean/variance (Welford's algorithm).
class StatAccumulator {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample set (linear interpolation); q in [0, 1].
double percentile(std::vector<double> samples, double q);

/// Sample store with percentile queries (p50/p95/...), the backing type of
/// the telemetry histograms. Keeps every sample; sorting is deferred to the
/// first quantile query after an insertion, so add() stays O(1) amortized
/// and interleaved add/query workloads only re-sort when dirty.
class Samples {
 public:
  void add(double x);

  std::size_t count() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  double min() const;
  double max() const;
  double mean() const;
  double sum() const { return sum_; }

  /// Linear-interpolation percentile; q in [0, 1]. Throws on empty sets.
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }

 private:
  mutable std::vector<double> data_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

}  // namespace chordal
