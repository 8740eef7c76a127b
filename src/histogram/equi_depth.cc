#include "histogram/equi_depth.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace dcv {

Result<EquiDepthHistogram> EquiDepthHistogram::Build(
    std::vector<int64_t> observations, int64_t domain_max, int num_buckets) {
  if (num_buckets < 1) {
    return InvalidArgumentError("equi-depth histogram needs >= 1 bucket");
  }
  if (domain_max < 0) {
    return InvalidArgumentError("domain_max must be non-negative");
  }
  if (observations.empty()) {
    return InvalidArgumentError("equi-depth histogram needs >= 1 observation");
  }
  for (auto& v : observations) {
    v = Clamp<int64_t>(v, 0, domain_max);
  }
  std::sort(observations.begin(), observations.end());
  const size_t n = observations.size();
  const size_t k = std::min<size_t>(static_cast<size_t>(num_buckets), n);

  // Candidate boundaries at the k quantile positions; duplicates collapse.
  std::vector<int64_t> upper;
  upper.reserve(k);
  for (size_t i = 1; i <= k; ++i) {
    size_t pos = (i * n) / k;  // 1..n
    int64_t boundary = observations[pos - 1];
    if (upper.empty() || boundary > upper.back()) {
      upper.push_back(boundary);
    }
  }
  // The last boundary must cover the max observation.
  if (upper.back() < observations.back()) {
    upper.push_back(observations.back());
  }

  // Exact counts per bucket from the sorted sample.
  std::vector<double> counts(upper.size(), 0.0);
  std::vector<double> cum(upper.size(), 0.0);
  size_t prev = 0;
  for (size_t i = 0; i < upper.size(); ++i) {
    auto it = std::upper_bound(observations.begin(), observations.end(),
                               upper[i]);
    size_t pos = static_cast<size_t>(it - observations.begin());
    counts[i] = static_cast<double>(pos - prev);
    cum[i] = static_cast<double>(pos);
    prev = pos;
  }

  EquiDepthHistogram h(std::move(upper), std::move(counts), std::move(cum),
                       domain_max, static_cast<double>(n));
  h.min_value_ = observations.front();
  return h;
}

Result<EquiDepthHistogram> EquiDepthHistogram::FromBoundaries(
    std::vector<int64_t> upper_bounds, std::vector<double> counts,
    int64_t domain_max) {
  if (upper_bounds.empty() || upper_bounds.size() != counts.size()) {
    return InvalidArgumentError(
        "FromBoundaries needs matching, nonempty boundary/count vectors");
  }
  double total = 0.0;
  std::vector<double> cum(counts.size(), 0.0);
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] < 0) {
      return InvalidArgumentError("negative bucket count");
    }
    if (i > 0 && upper_bounds[i] < upper_bounds[i - 1]) {
      return InvalidArgumentError("bucket boundaries must be non-decreasing");
    }
    if (upper_bounds[i] < 0 || upper_bounds[i] > domain_max) {
      return InvalidArgumentError("bucket boundary outside [0, domain_max]");
    }
    total += counts[i];
    cum[i] = total;
  }
  EquiDepthHistogram h(std::move(upper_bounds), std::move(counts),
                       std::move(cum), domain_max, total);
  h.min_value_ = h.upper_.front();  // Conservative: no mass below 1st bound.
  return h;
}

EquiDepthHistogram::EquiDepthHistogram(std::vector<int64_t> upper,
                                       std::vector<double> counts,
                                       std::vector<double> cum,
                                       int64_t domain_max, double total)
    : upper_(std::move(upper)),
      counts_(std::move(counts)),
      cum_(std::move(cum)),
      domain_max_(domain_max),
      total_(total) {}

double EquiDepthHistogram::CumulativeAt(int64_t v) const {
  if (v < min_value_) {
    return 0.0;
  }
  if (v >= upper_.back()) {
    return total_;
  }
  // First bucket whose upper bound is >= v.
  auto it = std::lower_bound(upper_.begin(), upper_.end(), v);
  size_t b = static_cast<size_t>(it - upper_.begin());
  int64_t lower = (b == 0) ? min_value_ - 1 : upper_[b - 1];
  double cum_before = (b == 0) ? 0.0 : cum_[b - 1];
  if (upper_[b] == lower) {
    // Degenerate point-mass bucket (can only happen with FromBoundaries).
    return cum_[b];
  }
  double frac = static_cast<double>(v - lower) /
                static_cast<double>(upper_[b] - lower);
  return cum_before + counts_[b] * frac;
}

int64_t EquiDepthHistogram::MinValueWithCumAtLeast(double target) const {
  // CumulativeAt is monotone, so the smallest v with F(v) >= target is
  // unique and any search that finds it agrees with the base class.
  auto it = std::lower_bound(cum_.begin(), cum_.end(), target);
  if (!(target > 0.0) || it == cum_.end()) {
    return DistributionModel::MinValueWithCumAtLeast(target);
  }
  const size_t b = static_cast<size_t>(it - cum_.begin());
  const int64_t lower = (b == 0) ? min_value_ - 1 : upper_[b - 1];
  const double cum_before = (b == 0) ? 0.0 : cum_[b - 1];
  int64_t v = upper_[b];
  if (upper_[b] > lower && counts_[b] > 0.0) {
    const double frac = (target - cum_before) / counts_[b];
    v = lower + static_cast<int64_t>(
                    std::ceil(frac * static_cast<double>(upper_[b] - lower)));
    v = Clamp<int64_t>(v, std::max<int64_t>(lower, 0), upper_[b]);
  }
  // The guess is off by at most a rounding step; settle exactly.
  for (int step = 0; step < 4; ++step) {
    if (CumulativeAt(v) < target) {
      ++v;
    } else if (v > 0 && CumulativeAt(v - 1) >= target) {
      --v;
    } else {
      return v;
    }
  }
  return DistributionModel::MinValueWithCumAtLeast(target);
}

}  // namespace dcv
