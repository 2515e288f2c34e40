/// \file stats.h
/// \brief One-pass running statistics (count, mean, min, max, variance).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace qserv::util {

/// Accumulates count/mean/min/max/variance in one pass (Welford).
class RunningStats {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }
  /// Sample variance (n-1 denominator); 0 when count < 2.
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

  std::string toString() const;

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace qserv::util
