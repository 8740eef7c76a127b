#include "runtime/plan.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "histogram/equi_depth.h"

namespace dcv {

Result<LocalPlan> BuildLocalPlan(const Trace& training,
                                 const std::vector<int64_t>& weights,
                                 int64_t global_threshold,
                                 const ThresholdSolver& solver,
                                 int histogram_buckets,
                                 double domain_headroom) {
  const int n = training.num_sites();
  if (n < 1 || training.num_epochs() == 0) {
    return InvalidArgumentError("BuildLocalPlan needs a nonempty training trace");
  }
  if (static_cast<int>(weights.size()) != n) {
    return InvalidArgumentError("weights size mismatch");
  }

  LocalPlan plan;
  plan.domain_max.reserve(static_cast<size_t>(n));
  std::vector<std::unique_ptr<EquiDepthHistogram>> models;
  models.reserve(static_cast<size_t>(n));
  ThresholdProblem problem;
  problem.budget = global_threshold;
  for (int i = 0; i < n; ++i) {
    std::vector<int64_t> series = training.SiteSeries(i);
    int64_t observed_max = *std::max_element(series.begin(), series.end());
    int64_t m = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(
               domain_headroom *
               static_cast<double>(std::max<int64_t>(observed_max, 1)))));
    plan.domain_max.push_back(m);
    DCV_ASSIGN_OR_RETURN(
        EquiDepthHistogram h,
        EquiDepthHistogram::Build(series, m, histogram_buckets));
    models.push_back(std::make_unique<EquiDepthHistogram>(std::move(h)));
  }
  for (int i = 0; i < n; ++i) {
    problem.vars.push_back(
        ProblemVar{i, weights[static_cast<size_t>(i)],
                   CdfView(models[static_cast<size_t>(i)].get(),
                           /*mirrored=*/false)});
  }
  DCV_ASSIGN_OR_RETURN(ThresholdSolution solution, solver.Solve(problem));
  plan.thresholds = std::move(solution.thresholds);
  return plan;
}

}  // namespace dcv
