#include "histogram/equi_depth.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "histogram/empirical_cdf.h"

namespace dcv {
namespace {

TEST(EquiDepthTest, BuildValidation) {
  EXPECT_FALSE(EquiDepthHistogram::Build({}, 10, 4).ok());
  EXPECT_FALSE(EquiDepthHistogram::Build({1}, 10, 0).ok());
  EXPECT_FALSE(EquiDepthHistogram::Build({1}, -1, 4).ok());
  EXPECT_TRUE(EquiDepthHistogram::Build({1, 2, 3}, 10, 2).ok());
}

TEST(EquiDepthTest, TotalWeightMatchesSampleSize) {
  auto h = EquiDepthHistogram::Build({5, 1, 9, 3, 7}, 10, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->total_weight(), 5.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(10), 5.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(9), 5.0);
}

TEST(EquiDepthTest, ZeroBelowMinimumObservation) {
  auto h = EquiDepthHistogram::Build({10, 20, 30}, 100, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->CumulativeAt(9), 0.0);
  EXPECT_GT(h->CumulativeAt(10), 0.0);
}

TEST(EquiDepthTest, ExactAtBucketBoundaries) {
  // 12 observations, 4 buckets of 3: boundaries at sorted positions 3,6,9,12.
  std::vector<int64_t> data{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  auto h = EquiDepthHistogram::Build(data, 20, 4);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_buckets(), 4);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(3), 3.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(6), 6.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(9), 9.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(12), 12.0);
}

TEST(EquiDepthTest, DuplicateHeavyDataCollapsesBuckets) {
  std::vector<int64_t> data(100, 5);
  data.push_back(9);
  auto h = EquiDepthHistogram::Build(data, 10, 10);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->CumulativeAt(4), 0.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(5), 100.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(9), 101.0);
}

TEST(EquiDepthTest, CdfIsMonotone) {
  Rng rng(12);
  std::vector<int64_t> data;
  for (int i = 0; i < 3000; ++i) {
    data.push_back(static_cast<int64_t>(rng.LogNormal(5.0, 1.5)));
  }
  auto h = EquiDepthHistogram::Build(data, 1'000'000, 100);
  ASSERT_TRUE(h.ok());
  double prev = -1;
  for (int64_t v = 0; v <= 1'000'000; v += 9973) {
    double c = h->CumulativeAt(v);
    EXPECT_GE(c, prev - 1e-9);
    prev = c;
  }
}

TEST(EquiDepthTest, ApproximatesEmpiricalCdfOnSkewedData) {
  Rng rng(13);
  std::vector<int64_t> data;
  for (int i = 0; i < 5000; ++i) {
    data.push_back(static_cast<int64_t>(rng.LogNormal(6.0, 1.0)));
  }
  auto h = EquiDepthHistogram::Build(data, 1'000'000, 100);
  ASSERT_TRUE(h.ok());
  EmpiricalCdf exact(data, 1'000'000);
  // Equi-depth with k buckets: error within a bucket is at most its depth.
  double max_err = 0;
  for (int64_t v = 0; v <= 100000; v += 503) {
    max_err = std::max(max_err,
                       std::abs(h->CumulativeAt(v) - exact.CumulativeAt(v)));
  }
  EXPECT_LE(max_err, 5000.0 / 100.0 + 1.0);
}

TEST(EquiDepthTest, FromBoundariesValidation) {
  EXPECT_FALSE(EquiDepthHistogram::FromBoundaries({}, {}, 10).ok());
  EXPECT_FALSE(EquiDepthHistogram::FromBoundaries({1, 2}, {1.0}, 10).ok());
  EXPECT_FALSE(EquiDepthHistogram::FromBoundaries({2, 1}, {1.0, 1.0}, 10).ok());
  EXPECT_FALSE(
      EquiDepthHistogram::FromBoundaries({1, 11}, {1.0, 1.0}, 10).ok());
  EXPECT_FALSE(
      EquiDepthHistogram::FromBoundaries({1, 2}, {1.0, -1.0}, 10).ok());
  EXPECT_TRUE(EquiDepthHistogram::FromBoundaries({1, 5}, {2.0, 3.0}, 10).ok());
}

TEST(EquiDepthTest, FromBoundariesCdf) {
  auto h = EquiDepthHistogram::FromBoundaries({4, 8}, {4.0, 4.0}, 10);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->total_weight(), 8.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(4), 4.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(6), 6.0);  // Interpolated in (4, 8].
  EXPECT_DOUBLE_EQ(h->CumulativeAt(8), 8.0);
  EXPECT_DOUBLE_EQ(h->CumulativeAt(10), 8.0);
}

TEST(EquiDepthTest, InverseLookupConsistency) {
  Rng rng(14);
  std::vector<int64_t> data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(rng.UniformInt(100, 900));
  }
  auto h = EquiDepthHistogram::Build(data, 1000, 25);
  ASSERT_TRUE(h.ok());
  for (double target = 1; target < 1000; target += 111) {
    int64_t v = h->MinValueWithCumAtLeast(target);
    ASSERT_LE(v, 1000);
    EXPECT_GE(h->CumulativeAt(v), target - 1e-9);
    if (v > 0) {
      EXPECT_LT(h->CumulativeAt(v - 1), target);
    }
  }
}

// The bucket-inverting lookup must return exactly what the base class's
// binary search over CumulativeAt returns, for every kind of target.
void ExpectInverseMatchesBinarySearch(const EquiDepthHistogram& h, Rng& rng) {
  const DistributionModel& base = h;
  std::vector<double> targets = {-1.0, 0.0, 1e-300, h.total_weight(),
                                 h.total_weight() * 1.5};
  for (int64_t v = -1; v <= h.domain_max() + 1;
       v += std::max<int64_t>(1, h.domain_max() / 200)) {
    const double c = h.CumulativeAt(v);
    targets.push_back(c);
    targets.push_back(std::nextafter(c, 0.0));
    targets.push_back(std::nextafter(c, 1e300));
  }
  for (int k = 0; k < 200; ++k) {
    targets.push_back(rng.UniformDouble(0.0, h.total_weight()));
    // The FPTAS's level targets: total * alpha^-s.
    targets.push_back(h.total_weight() * std::exp(-0.01 * k));
  }
  for (double t : targets) {
    EXPECT_EQ(h.MinValueWithCumAtLeast(t),
              base.DistributionModel::MinValueWithCumAtLeast(t))
        << "target " << t;
  }
}

TEST(EquiDepthTest, InverseMatchesBinarySearchOnBuiltHistograms) {
  Rng rng(15);
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t m = rng.UniformInt(0, trial % 3 == 0 ? 20 : 5'000'000);
    std::vector<int64_t> data;
    const int count = static_cast<int>(rng.UniformInt(1, 2000));
    const int64_t spread = rng.UniformInt(1, m + 1);
    for (int k = 0; k < count; ++k) {
      // Lognormal bulk plus duplicates and values clamped at the domain max.
      data.push_back(trial % 4 == 0
                         ? rng.UniformInt(0, 3) * spread / 3
                         : static_cast<int64_t>(rng.LogNormal(
                               std::log(static_cast<double>(spread)), 1.0)));
    }
    auto h = EquiDepthHistogram::Build(
        data, m, static_cast<int>(rng.UniformInt(1, 120)));
    ASSERT_TRUE(h.ok());
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectInverseMatchesBinarySearch(*h, rng);
  }
}

TEST(EquiDepthTest, InverseMatchesBinarySearchOnBoundaryHistograms) {
  // Fractional counts, empty buckets and repeated boundaries, as sketch
  // conversions produce them.
  Rng rng(16);
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t m = rng.UniformInt(1, 100'000);
    const int buckets = static_cast<int>(rng.UniformInt(1, 40));
    std::vector<int64_t> upper;
    std::vector<double> counts;
    for (int b = 0; b < buckets; ++b) {
      upper.push_back(rng.UniformInt(0, m));
      counts.push_back(rng.UniformInt(0, 3) == 0
                           ? 0.0
                           : rng.UniformDouble(0.1, 50.0));
    }
    std::sort(upper.begin(), upper.end());
    counts[0] += 1.0;  // Nonzero total.
    auto h = EquiDepthHistogram::FromBoundaries(upper, counts, m);
    ASSERT_TRUE(h.ok());
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectInverseMatchesBinarySearch(*h, rng);
  }
}

class EquiDepthBucketSweep : public testing::TestWithParam<int> {};

TEST_P(EquiDepthBucketSweep, MoreBucketsNeverHurtAccuracy) {
  const int buckets = GetParam();
  Rng rng(15);
  std::vector<int64_t> data;
  for (int i = 0; i < 2000; ++i) {
    data.push_back(static_cast<int64_t>(rng.LogNormal(5.0, 1.0)));
  }
  auto h = EquiDepthHistogram::Build(data, 100000, buckets);
  ASSERT_TRUE(h.ok());
  EmpiricalCdf exact(data, 100000);
  double max_err = 0;
  for (int64_t v = 0; v <= 5000; v += 91) {
    max_err = std::max(max_err,
                       std::abs(h->CumulativeAt(v) - exact.CumulativeAt(v)));
  }
  // Interpolation error is bounded by one bucket's depth.
  EXPECT_LE(max_err, 2000.0 / buckets + 1.0) << "buckets=" << buckets;
}

INSTANTIATE_TEST_SUITE_P(BucketCounts, EquiDepthBucketSweep,
                         testing::Values(10, 25, 50, 100, 200));

}  // namespace
}  // namespace dcv
