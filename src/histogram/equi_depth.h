#ifndef DCV_HISTOGRAM_EQUI_DEPTH_H_
#define DCV_HISTOGRAM_EQUI_DEPTH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "histogram/distribution.h"

namespace dcv {

/// An equi-depth (equi-height) histogram: bucket boundaries are placed at
/// sample quantiles so that every bucket holds (approximately) the same
/// number of observations. This is the model the paper's experiments use
/// (100 buckets over one training week of data, §6.4); it spends resolution
/// where the data actually lives, which matters for the heavy-tailed traffic
/// distributions the FPTAS exploits.
///
/// F(v) is linearly interpolated within a bucket.
class EquiDepthHistogram : public DistributionModel {
 public:
  /// Builds from a batch of observations (clamped into [0, domain_max]).
  /// Fails if num_buckets < 1, domain_max < 0, or observations is empty.
  static Result<EquiDepthHistogram> Build(std::vector<int64_t> observations,
                                          int64_t domain_max, int num_buckets);

  /// Builds from precomputed bucket upper boundaries: bucket i covers
  /// (upper[i-1], upper[i]] and holds counts[i] observations. Used by the
  /// GK-sketch conversion. Boundaries must be non-decreasing and within
  /// [0, domain_max].
  static Result<EquiDepthHistogram> FromBoundaries(
      std::vector<int64_t> upper_bounds, std::vector<double> counts,
      int64_t domain_max);

  int num_buckets() const { return static_cast<int>(counts_.size()); }

  /// Upper (inclusive) boundary of bucket i.
  int64_t bucket_upper(int i) const { return upper_[static_cast<size_t>(i)]; }

  int64_t domain_max() const override { return domain_max_; }
  double total_weight() const override { return total_; }
  double CumulativeAt(int64_t v) const override;

  /// Same result as the base class's binary search: inverts the
  /// interpolation of the first bucket reaching `target`, then settles on
  /// the smallest v with CumulativeAt(v) >= target by probing its
  /// neighbours. O(log buckets) instead of O(log M) CumulativeAt calls.
  int64_t MinValueWithCumAtLeast(double target) const override;

 private:
  EquiDepthHistogram(std::vector<int64_t> upper, std::vector<double> counts,
                     std::vector<double> cum, int64_t domain_max,
                     double total);

  // upper_[i] is the largest value in bucket i; bucket i covers
  // (upper_[i-1], upper_[i]] with upper_[-1] defined as min_value_ - 1.
  std::vector<int64_t> upper_;
  std::vector<double> counts_;
  std::vector<double> cum_;  // cum_[i] = counts_[0] + ... + counts_[i].
  int64_t min_value_ = 0;    // Smallest observed value; F(v) = 0 below it.
  int64_t domain_max_;
  double total_;
};

}  // namespace dcv

#endif  // DCV_HISTOGRAM_EQUI_DEPTH_H_
