#ifndef DCV_THRESHOLD_FPTAS_H_
#define DCV_THRESHOLD_FPTAS_H_

#include "threshold/solver.h"

namespace dcv {

/// The paper's FPTAS (§4.1, Theorem 2) for local-threshold selection:
/// rounds the per-variable cumulative frequencies to powers of
/// alpha = 1 + eps/2n and solves the resulting knapsack-style DP, giving a
/// (1+eps)-approximation of max prod_i G_i(T_i) s.t. sum A_i T_i <= budget
/// in time polynomial in the input size and 1/eps.
///
/// Implementation note: the paper indexes levels upward from frequency 1
/// (r_i with F_i = alpha^{r_i}); we use the equivalent *deficit* form over
/// normalized probabilities P_i = G_i/G_i(M): level s corresponds to
/// P_i >= alpha^{-s}, I_i(s) = min t with P_i(t) >= alpha^{-s}, and the DP
///
///   D(i, p) = min{ sum_{k<=i} A_k I_k(s_k) : sum_{k<=i} s_k <= p }
///
/// is filled for p = 0..L; the answer is the smallest p with
/// D(n, p) <= budget. Levels with identical I are deduplicated (keeping the
/// smallest deficit), which preserves optimality and bounds the transition
/// fan-out by the number of distinct threshold values. The standard rounding
/// argument gives prod P_i(T_i) >= OPT / alpha^n >= OPT / (1+eps).
///
/// Each cell D(i+1, p) = min_k c_k + D(i, p - s_k) scans the levels k of
/// variable i in order but stops early. D(i, .) never increases with p, and
/// the level costs c_k = A_i I_i(s_k) strictly decrease with k
/// (deduplicated levels have strictly smaller thresholds). So every level
/// k' >= k costs at least c_K + D(i, p - s_k), with K the last (cheapest)
/// level, and once that bound reaches the best value found so far no later
/// level can beat it. Likewise, when c_{K-1} + D(i, p) already exceeds
/// level K's value, every level k < K costs more than K, and the scan is
/// skipped (this is the common case once D(i, .) has gone flat, e.g. on
/// budgets no column can meet). The scan keeps the earliest level on ties,
/// so both exits yield the argmin, table, p* and thresholds of the full
/// scan.
///
/// Before the fill, every level threshold is at least its variable's floor
/// t_floor_i (the smallest t with P_i(t) >= prob_floor), so D(n, p) >=
/// sum_i A_i t_floor_i for every p. When that sum exceeds the budget no
/// column is filled (Stats::dp_cells == 0) and the solver returns what the
/// full fill would: the degenerate fallback, or ResourceExhausted when the
/// cell cap would have truncated the fill.
class FptasSolver : public ThresholdSolver {
 public:
  struct Options {
    /// Approximation parameter; the result is within (1+eps) of optimal.
    double eps = 0.05;

    /// Threshold values whose per-variable probability is below this floor
    /// are never selected (they would be useless in practice and would blow
    /// up the level count). The approximation guarantee is relative to the
    /// best solution using only probabilities >= prob_floor.
    double prob_floor = 1e-12;

    /// Hard cap on deficit levels per variable.
    int64_t max_levels_per_var = 1'000'000;

    /// Hard cap on DP cells n * (explored columns); the solver never
    /// explores more, and returns ResourceExhausted when no feasible
    /// column fits under it.
    int64_t max_dp_cells = 400'000'000;

    /// Spend leftover budget by raising thresholds toward the domain maxima
    /// (never decreases the objective; see RedistributeSlack). Disable for
    /// the strict textbook algorithm.
    bool redistribute_slack = true;
  };

  /// Per-run diagnostics (sizes the complexity analysis talks about).
  struct Stats {
    /// Largest deficit column the DP explored before stopping (== deficit
    /// when a solution was found; the worst case is L = log_alpha(P-bar);
    /// -1 when max_dp_cells < n leaves room for no column).
    int64_t total_levels = 0;
    int64_t useful_levels = 0;  ///< Deduplicated (s, I) pairs across vars.
    int64_t dp_cells = 0;       ///< n * (explored columns).
    int64_t scanned_levels = 0; ///< Levels the min-plus scans evaluated,
                                ///< summed over cells (pruning shows as
                                ///< scanned_levels / dp_cells).
    int64_t deficit = 0;        ///< p*: total deficit of the returned
                                ///< solution (-1 when degenerate).
  };

  explicit FptasSolver(Options options) : options_(options) {}
  FptasSolver() : FptasSolver(Options()) {}

  /// Convenience constructor matching the paper's "FPTAS with eps".
  explicit FptasSolver(double eps) : options_(Options{.eps = eps}) {}

  std::string_view name() const override { return "fptas"; }

  Result<ThresholdSolution> Solve(
      const ThresholdProblem& problem) const override {
    Stats stats;
    return SolveWithStats(problem, &stats);
  }

  /// Solve and report diagnostics.
  Result<ThresholdSolution> SolveWithStats(const ThresholdProblem& problem,
                                           Stats* stats) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dcv

#endif  // DCV_THRESHOLD_FPTAS_H_
