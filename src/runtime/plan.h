#ifndef DCV_RUNTIME_PLAN_H_
#define DCV_RUNTIME_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "threshold/solver.h"
#include "trace/trace.h"

namespace dcv {

/// The static deployment plan the runtime coordinator and sites are
/// provisioned with: per-site local thresholds T_i plus the per-site
/// pessimistic poll fallbacks M_i (declared domain maxima).
struct LocalPlan {
  std::vector<int64_t> thresholds;
  std::vector<int64_t> domain_max;
};

/// Computes the plan exactly the way LocalThresholdScheme::Initialize does
/// for its default options — per-site equi-depth histograms over the
/// training trace, domain maxima with `domain_headroom` over the observed
/// maxima, and one solver run against the full budget — so a runtime
/// provisioned from this plan enforces the same thresholds as the lockstep
/// scheme (the conformance tests assert the vectors are equal).
Result<LocalPlan> BuildLocalPlan(const Trace& training,
                                 const std::vector<int64_t>& weights,
                                 int64_t global_threshold,
                                 const ThresholdSolver& solver,
                                 int histogram_buckets = 100,
                                 double domain_headroom = 4.0);

}  // namespace dcv

#endif  // DCV_RUNTIME_PLAN_H_
