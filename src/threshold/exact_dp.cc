#include "threshold/exact_dp.h"

#include <algorithm>
#include <vector>

#include "common/math_util.h"

namespace dcv {

Result<ThresholdSolution> ExactDpSolver::Solve(
    const ThresholdProblem& problem) const {
  obs::ScopedTimer timer(
      metrics_ != nullptr ? metrics_->histogram("solver/exact_dp/solve_us")
                          : nullptr);
  DCV_RETURN_IF_ERROR(ValidateProblem(problem));
  const size_t n = problem.vars.size();
  if (n == 0) {
    return ThresholdSolution{};
  }
  const int64_t budget = problem.budget;
  const int64_t width = budget + 1;
  if (static_cast<int64_t>(n) * width > options_.max_table_cells) {
    return ResourceExhaustedError(
        "exact DP table would need " +
        std::to_string(static_cast<int64_t>(n) * width) +
        " cells; budget too large for the pseudo-polynomial algorithm");
  }
  if (metrics_ != nullptr) {
    metrics_->counter("solver/exact_dp/solves")->Increment();
    metrics_->counter("solver/exact_dp/table_cells")
        ->Increment(static_cast<int64_t>(n) * width);
  }

  // prev[S] = best log product over the first i variables using weight <= S.
  std::vector<double> prev(static_cast<size_t>(width), 0.0);
  std::vector<double> cur(static_cast<size_t>(width), kNegInf);
  // choice[i][S] = threshold T_{i+1} picked at state (i+1, S).
  std::vector<std::vector<int64_t>> choice(
      n, std::vector<int64_t>(static_cast<size_t>(width), 0));

  // log_prob[j] = ln G_i(j)/G_i(M) for every threshold j the budget admits.
  std::vector<double> log_prob;
  for (size_t i = 0; i < n; ++i) {
    const ProblemVar& v = problem.vars[i];
    const int64_t m = v.cdf.domain_max();
    const double total = v.cdf.total();
    const int64_t j_top = std::min(m, budget / v.weight);
    log_prob.resize(static_cast<size_t>(j_top + 1));
    for (int64_t j = 0; j <= j_top; ++j) {
      log_prob[static_cast<size_t>(j)] = SafeLog(v.cdf.Cum(j) / total);
    }
    for (int64_t s = 0; s <= budget; ++s) {
      double best = kNegInf;
      int64_t best_j = 0;
      const int64_t j_max = std::min(m, s / v.weight);
      for (int64_t j = 0; j <= j_max; ++j) {
        double lp = log_prob[static_cast<size_t>(j)] +
                    prev[static_cast<size_t>(s - v.weight * j)];
        if (lp > best) {
          best = lp;
          best_j = j;
        }
      }
      cur[static_cast<size_t>(s)] = best;
      choice[i][static_cast<size_t>(s)] = best_j;
    }
    std::swap(prev, cur);
  }

  ThresholdSolution solution;
  solution.thresholds.assign(n, 0);
  int64_t s = budget;
  for (size_t i = n; i-- > 0;) {
    int64_t j = choice[i][static_cast<size_t>(s)];
    solution.thresholds[i] = j;
    s -= problem.vars[i].weight * j;
  }
  if (options_.redistribute_slack) {
    RedistributeSlack(problem, &solution.thresholds);
  }
  solution.log_probability = LogProbability(problem, solution.thresholds);
  if (solution.log_probability == kNegInf) {
    // Even the best assignment has zero estimated probability; keep the
    // covering thresholds but flag it.
    solution.degenerate = true;
  }
  return solution;
}

}  // namespace dcv
