#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace qserv::util {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, EmptyIsSane) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

}  // namespace
}  // namespace qserv::util
