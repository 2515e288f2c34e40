#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/strings.h"

namespace qserv::util {

void RunningStats::add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::string RunningStats::toString() const {
  return format("n=%lld mean=%.4g min=%.4g max=%.4g sd=%.4g",
                static_cast<long long>(count_), mean_, min_, max_, stddev());
}

// Box-Muller; lives here to keep <cmath> out of the rng header.
double Rng::normal(double mean, double stddev) {
  double u1 = uniform();
  double u2 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

}  // namespace qserv::util
