#include "threshold/fptas.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "histogram/empirical_cdf.h"
#include "histogram/equi_depth.h"
#include "runtime/plan.h"
#include "threshold/exact_dp.h"
#include "trace/snmp_synth.h"
#include "trace/stats.h"

namespace dcv {
namespace {

struct RandomInstance {
  std::vector<std::unique_ptr<EmpiricalCdf>> models;
  ThresholdProblem problem;
};

RandomInstance MakeRandomInstance(Rng& rng, int max_vars, int64_t max_domain,
                                  int64_t max_budget) {
  RandomInstance inst;
  const int n = static_cast<int>(rng.UniformInt(1, max_vars));
  inst.problem.budget = rng.UniformInt(0, max_budget);
  for (int i = 0; i < n; ++i) {
    const int64_t m = rng.UniformInt(2, max_domain);
    std::vector<int64_t> data;
    const int count = static_cast<int>(rng.UniformInt(4, 20));
    for (int k = 0; k < count; ++k) {
      data.push_back(rng.UniformInt(0, m));
    }
    inst.models.push_back(std::make_unique<EmpiricalCdf>(data, m));
    inst.problem.vars.push_back(ProblemVar{
        i, rng.UniformInt(1, 3), CdfView(inst.models.back().get(), false)});
  }
  return inst;
}

TEST(FptasTest, EmptyProblem) {
  FptasSolver solver;
  auto sol = solver.Solve(ThresholdProblem{});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->thresholds.empty());
}

TEST(FptasTest, RejectsNonPositiveEps) {
  FptasSolver solver(0.0);
  EmpiricalCdf model({1, 2}, 3);
  ThresholdProblem p;
  p.budget = 3;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, false)});
  EXPECT_FALSE(solver.Solve(p).ok());
}

TEST(FptasTest, SingleVariableIsExact) {
  EmpiricalCdf model({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 9);
  ThresholdProblem p;
  p.budget = 6;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, false)});
  FptasSolver solver(0.05);
  auto sol = solver.Solve(p);
  ASSERT_TRUE(sol.ok());
  // With one variable the level search finds the largest affordable
  // threshold's probability class; the chosen threshold must be within an
  // alpha factor of the best P = 0.7.
  EXPECT_TRUE(SatisfiesBudget(p, sol->thresholds));
  EXPECT_GE(std::exp(sol->log_probability), 0.7 / 1.05 - 1e-9);
}

TEST(FptasTest, AlwaysSatisfiesBudget) {
  Rng rng(123);
  FptasSolver solver(0.1);
  for (int trial = 0; trial < 50; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 6, 30, 60);
    auto sol = solver.Solve(inst.problem);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_TRUE(SatisfiesBudget(inst.problem, sol->thresholds))
        << "trial " << trial;
  }
}

class FptasApproximationSweep : public testing::TestWithParam<double> {};

TEST_P(FptasApproximationSweep, WithinOnePlusEpsOfExactDp) {
  const double eps = GetParam();
  Rng rng(static_cast<uint64_t>(eps * 1e6) + 7);
  FptasSolver fptas(eps);
  ExactDpSolver exact;
  int nontrivial = 0;
  for (int trial = 0; trial < 40; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 4, 12, 30);
    auto approx = fptas.Solve(inst.problem);
    auto opt = exact.Solve(inst.problem);
    ASSERT_TRUE(approx.ok());
    ASSERT_TRUE(opt.ok());
    if (opt->log_probability == kNegInf) {
      continue;  // Degenerate instance: nothing to compare.
    }
    ++nontrivial;
    // prod_approx >= prod_opt / (1 + eps)  <=>
    // log_approx >= log_opt - log(1 + eps).
    EXPECT_GE(approx->log_probability,
              opt->log_probability - std::log1p(eps) - 1e-9)
        << "trial " << trial << " eps " << eps;
    // And the approximation can never beat the optimum.
    EXPECT_LE(approx->log_probability, opt->log_probability + 1e-9);
  }
  EXPECT_GT(nontrivial, 10);
}

INSTANTIATE_TEST_SUITE_P(EpsValues, FptasApproximationSweep,
                         testing::Values(0.5, 0.2, 0.05, 0.01));

TEST(FptasTest, MatchesExactDpOnSkewedHistograms) {
  // Equi-depth histograms from lognormal data, as in the paper's setup.
  Rng rng(321);
  std::vector<std::unique_ptr<EquiDepthHistogram>> models;
  ThresholdProblem p;
  const int n = 3;
  for (int i = 0; i < n; ++i) {
    std::vector<int64_t> data;
    for (int k = 0; k < 500; ++k) {
      data.push_back(static_cast<int64_t>(rng.LogNormal(2.0 + i, 0.8)));
    }
    auto h = EquiDepthHistogram::Build(data, 500, 50);
    ASSERT_TRUE(h.ok());
    models.push_back(std::make_unique<EquiDepthHistogram>(std::move(*h)));
    p.vars.push_back(ProblemVar{i, 1, CdfView(models.back().get(), false)});
  }
  p.budget = 120;
  FptasSolver fptas(0.05);
  ExactDpSolver exact;
  auto approx = fptas.Solve(p);
  auto opt = exact.Solve(p);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(opt.ok());
  ASSERT_GT(opt->log_probability, kNegInf);
  EXPECT_GE(approx->log_probability,
            opt->log_probability - std::log1p(0.05) - 1e-9);
}

TEST(FptasTest, DegenerateFallbackWhenBudgetTooTight) {
  // All observations at 10; budget cannot reach threshold 10.
  EmpiricalCdf model(std::vector<int64_t>(5, 10), 10);
  ThresholdProblem p;
  p.budget = 4;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, false)});
  FptasSolver solver(0.05);
  auto sol = solver.Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->degenerate);
  EXPECT_TRUE(SatisfiesBudget(p, sol->thresholds));
  EXPECT_EQ(sol->log_probability, kNegInf);
}

TEST(FptasTest, StatsReportPlausibleSizes) {
  Rng rng(55);
  RandomInstance inst = MakeRandomInstance(rng, 5, 50, 100);
  FptasSolver solver(0.1);
  FptasSolver::Stats stats;
  auto sol = solver.SolveWithStats(inst.problem, &stats);
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(stats.useful_levels, 0);
  EXPECT_GE(stats.total_levels, 0);
  EXPECT_EQ(stats.dp_cells,
            static_cast<int64_t>(inst.problem.vars.size()) *
                (stats.total_levels + 1));
  if (!sol->degenerate) {
    EXPECT_GE(stats.deficit, 0);
  }
}

TEST(FptasTest, DpCellGuard) {
  // A tight budget forces a deep deficit search; a tiny cell cap must
  // surface as ResourceExhausted rather than a silent fallback.
  EmpiricalCdf model({10, 20, 30, 40, 50}, 50);
  ThresholdProblem p;
  // Only the smallest observation is affordable, and only just: the floor
  // sum 10 + 10 meets the budget, so the solver must search for it.
  p.budget = 20;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, false)});
  p.vars.push_back(ProblemVar{1, 1, CdfView(&model, false)});
  FptasSolver::Options options;
  options.eps = 0.001;
  options.max_dp_cells = 8;
  FptasSolver solver(options);
  FptasSolver::Stats stats;
  EXPECT_EQ(solver.SolveWithStats(p, &stats).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_LE(stats.dp_cells, options.max_dp_cells);
  EXPECT_EQ(stats.dp_cells, 8);
}

TEST(FptasTest, MetricsCountScannedLevels) {
  Rng rng(31);
  RandomInstance inst = MakeRandomInstance(rng, 5, 50, 100);
  obs::MetricsRegistry registry;
  FptasSolver solver(0.05);
  solver.set_metrics(&registry);
  FptasSolver::Stats stats;
  ASSERT_TRUE(solver.SolveWithStats(inst.problem, &stats).ok());
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(stats.scanned_levels, 0);
  EXPECT_EQ(snap.counters.at("solver/fptas/scanned_levels"),
            stats.scanned_levels);
  EXPECT_EQ(snap.counters.at("solver/fptas/dp_cells"), stats.dp_cells);
}

TEST(FptasTest, SmallerEpsNeverWorse) {
  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 4, 20, 40);
    FptasSolver coarse(0.5);
    FptasSolver fine(0.01);
    auto a = coarse.Solve(inst.problem);
    auto b = fine.Solve(inst.problem);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Finer eps has a strictly tighter guarantee; allow the rounding noise
    // of the coarse grid.
    EXPECT_GE(b->log_probability, a->log_probability - 1e-9);
  }
}

TEST(FptasTest, MirroredProblemRespectsBudget) {
  EmpiricalCdf model({6, 7, 8, 9, 10}, 10);
  ThresholdProblem p;
  p.budget = 9;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, true)});
  p.vars.push_back(ProblemVar{1, 1, CdfView(&model, true)});
  FptasSolver solver(0.05);
  auto sol = solver.Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(SatisfiesBudget(p, sol->thresholds));
  EXPECT_GT(sol->log_probability, kNegInf);
}

// The FPTAS table fill with the full min-plus scan: every cell evaluates
// every level with deficit <= p. FptasSolver must return exactly what this
// returns (its scan stops early on a bound that cannot change the argmin).
// Stats::scanned_levels here counts every level of every cell.
Result<ThresholdSolution> ReferenceSolve(const FptasSolver::Options& options,
                                         const ThresholdProblem& problem,
                                         FptasSolver::Stats* stats) {
  struct Level {
    int64_t deficit = 0;
    int64_t threshold = 0;
  };
  struct Generator {
    const CdfView* cdf = nullptr;
    int64_t max_levels = 0;
    int64_t t_floor = 0;
    int64_t next_s = 0;
    bool exhausted = false;
    std::vector<Level> levels;
  };
  *stats = FptasSolver::Stats{};
  const size_t n = problem.vars.size();
  if (n == 0) {
    return ThresholdSolution{};
  }
  const double ln_alpha =
      std::log1p(options.eps / (2.0 * static_cast<double>(n)));
  const int64_t max_deficit = static_cast<int64_t>(
      std::ceil(-std::log(options.prob_floor) / ln_alpha));
  const int64_t per_var_cap = std::min(options.max_levels_per_var, max_deficit);
  const int64_t natural_columns = static_cast<int64_t>(n) * per_var_cap + 1;
  const int64_t cell_columns =
      options.max_dp_cells / static_cast<int64_t>(n);
  std::vector<Generator> gens;
  for (const ProblemVar& v : problem.vars) {
    int64_t t_floor = v.cdf.MinValueWithProbAtLeast(options.prob_floor);
    Generator g;
    g.cdf = &v.cdf;
    g.max_levels = per_var_cap;
    g.t_floor = std::min(t_floor, v.cdf.domain_max());
    gens.push_back(g);
  }
  auto extend_to = [&](Generator& g, int64_t p) {
    while (!g.exhausted && g.next_s <= std::min(p, g.max_levels)) {
      double target = std::exp(-static_cast<double>(g.next_s) * ln_alpha);
      int64_t t = g.cdf->MinValueWithProbAtLeast(target);
      if (t <= g.cdf->domain_max() &&
          (g.levels.empty() || t < g.levels.back().threshold)) {
        if (t <= g.t_floor) {
          t = g.t_floor;
          g.exhausted = true;
        }
        if (g.levels.empty() || t < g.levels.back().threshold) {
          g.levels.push_back(Level{g.next_s, t});
        }
      }
      ++g.next_s;
    }
    if (g.next_s > g.max_levels) {
      g.exhausted = true;
    }
  };

  std::vector<std::vector<int64_t>> dp(n + 1);
  std::vector<std::vector<int32_t>> choice(n);
  int64_t p_star = -1;
  for (int64_t p = 0; p < std::min(natural_columns, cell_columns); ++p) {
    dp[0].push_back(0);
    for (size_t i = 0; i < n; ++i) {
      extend_to(gens[i], p);
      const std::vector<Level>& lv = gens[i].levels;
      int64_t best = std::numeric_limits<int64_t>::max();
      int32_t best_level = 0;
      for (size_t k = 0; k < lv.size(); ++k) {
        if (lv[k].deficit > p) {
          break;
        }
        ++stats->scanned_levels;
        int64_t w = problem.vars[i].weight * lv[k].threshold +
                    dp[i][static_cast<size_t>(p - lv[k].deficit)];
        if (w < best) {
          best = w;
          best_level = static_cast<int32_t>(k);
        }
      }
      dp[i + 1].push_back(best);
      choice[i].push_back(best_level);
    }
    if (dp[n].back() <= problem.budget) {
      p_star = p;
      break;
    }
  }
  stats->deficit = p_star;
  for (const Generator& g : gens) {
    stats->useful_levels += static_cast<int64_t>(g.levels.size());
  }
  stats->total_levels = static_cast<int64_t>(dp[1].size()) - 1;
  stats->dp_cells =
      static_cast<int64_t>(n) * static_cast<int64_t>(dp[1].size());
  if (p_star < 0) {
    if (cell_columns < natural_columns) {
      return ResourceExhaustedError("cell cap");
    }
    return DegenerateFallback(problem);
  }
  ThresholdSolution solution;
  solution.thresholds.assign(n, 0);
  int64_t p = p_star;
  for (size_t i = n; i-- > 0;) {
    const Level& lv =
        gens[i].levels[static_cast<size_t>(choice[i][static_cast<size_t>(p)])];
    solution.thresholds[i] = lv.threshold;
    p -= lv.deficit;
  }
  if (options.redistribute_slack) {
    RedistributeSlack(problem, &solution.thresholds);
  }
  solution.log_probability = LogProbability(problem, solution.thresholds);
  return solution;
}

// True when sum A_i * t_floor_i exceeds the budget: every level threshold
// is at least its variable's floor, so no DP column can meet the budget.
bool ProvablyInfeasible(const FptasSolver::Options& options,
                        const ThresholdProblem& problem) {
  int64_t floor_cost = 0;
  for (const ProblemVar& v : problem.vars) {
    floor_cost += v.weight * std::min(v.cdf.MinValueWithProbAtLeast(
                                          options.prob_floor),
                                      v.cdf.domain_max());
  }
  return floor_cost > problem.budget;
}

// Solves with FptasSolver, expects every output to equal the reference's
// (the pruned scan may only evaluate fewer levels), and returns
// FptasSolver's result. On provably infeasible instances FptasSolver fills
// no column at all and only the outcome is compared.
Result<ThresholdSolution> SolveAndCompare(const FptasSolver::Options& options,
                                          const ThresholdProblem& problem,
                                          FptasSolver::Stats* stats) {
  FptasSolver::Stats want_stats;
  auto got = FptasSolver(options).SolveWithStats(problem, stats);
  auto want = ReferenceSolve(options, problem, &want_stats);
  EXPECT_EQ(got.status().code(), want.status().code());
  EXPECT_EQ(stats->deficit, want_stats.deficit);
  if (ProvablyInfeasible(options, problem)) {
    EXPECT_EQ(stats->dp_cells, 0);
    EXPECT_EQ(stats->scanned_levels, 0);
  } else {
    EXPECT_EQ(stats->total_levels, want_stats.total_levels);
    EXPECT_EQ(stats->useful_levels, want_stats.useful_levels);
    EXPECT_EQ(stats->dp_cells, want_stats.dp_cells);
    EXPECT_LE(stats->scanned_levels, want_stats.scanned_levels);
  }
  EXPECT_LE(stats->dp_cells, options.max_dp_cells);
  if (got.ok() && want.ok()) {
    EXPECT_EQ(got->thresholds, want->thresholds);
    EXPECT_EQ(got->log_probability, want->log_probability);
    EXPECT_EQ(got->degenerate, want->degenerate);
  }
  return got;
}

TEST(FptasEquivalenceTest, MatchesFullScanOnRandomInstances) {
  Rng rng(2024);
  const double eps_values[] = {0.5, 0.2, 0.05, 0.01};
  int solved = 0;
  int degenerate = 0;
  int exhausted = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 300; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 6, 40, 80);
    for (ProblemVar& v : inst.problem.vars) {
      v.cdf = CdfView(v.cdf.model(), rng.UniformInt(0, 1) == 1);
    }
    FptasSolver::Options options;
    options.eps = eps_values[rng.UniformInt(0, 3)];
    options.redistribute_slack = rng.UniformInt(0, 1) == 1;
    if (rng.UniformInt(0, 4) == 0) {
      options.max_levels_per_var = rng.UniformInt(1, 50);
    }
    if (rng.UniformInt(0, 4) == 0) {
      options.max_dp_cells = rng.UniformInt(1, 400);
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    if (ProvablyInfeasible(options, inst.problem)) {
      ++infeasible;
    }
    FptasSolver::Stats stats;
    auto sol = SolveAndCompare(options, inst.problem, &stats);
    if (!sol.ok()) {
      ++exhausted;
    } else if (sol->degenerate) {
      ++degenerate;
    } else {
      ++solved;
    }
  }
  // The mix must reach every exit of the solver.
  EXPECT_GT(solved, 100);
  EXPECT_GT(degenerate, 0);
  EXPECT_GT(exhausted, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(FptasEquivalenceTest, MatchesFullScanOnTieHeavyData) {
  // Few distinct values, repeated variables and equal weights make many
  // levels cost the same, so ties decide the argmin.
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const int64_t m = rng.UniformInt(2, 12);
    std::vector<std::unique_ptr<EmpiricalCdf>> models;
    const int distinct = static_cast<int>(rng.UniformInt(1, 3));
    for (int d = 0; d < distinct; ++d) {
      std::vector<int64_t> data;
      const int64_t a = rng.UniformInt(0, m);
      const int64_t b = rng.UniformInt(0, m);
      for (int k = 0; k < 12; ++k) {
        data.push_back(k % 3 == 0 ? b : a);
      }
      models.push_back(std::make_unique<EmpiricalCdf>(data, m));
    }
    ThresholdProblem p;
    const int n = static_cast<int>(rng.UniformInt(2, 8));
    const int64_t weight = rng.UniformInt(1, 3);
    for (int i = 0; i < n; ++i) {
      p.vars.push_back(ProblemVar{
          i, weight,
          CdfView(models[static_cast<size_t>(i % distinct)].get(),
                  trial % 2 == 1)});
    }
    p.budget = rng.UniformInt(0, weight * m * n);
    FptasSolver::Options options;
    options.eps = trial % 3 == 0 ? 0.5 : 0.05;
    // Slack redistribution can hide which of two tied levels was kept.
    options.redistribute_slack = trial % 4 < 2;
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    FptasSolver::Stats stats;
    SolveAndCompare(options, p, &stats);
  }
}

// Checks FptasSolver against the reference on whatever problem
// BuildLocalPlan hands it, and plans with FptasSolver's result.
class ComparingSolver : public ThresholdSolver {
 public:
  std::string_view name() const override { return "fptas"; }
  Result<ThresholdSolution> Solve(
      const ThresholdProblem& problem) const override {
    return SolveAndCompare(options_, problem, &last_stats_);
  }
  const FptasSolver::Stats& last_stats() const { return last_stats_; }

 private:
  FptasSolver::Options options_;
  mutable FptasSolver::Stats last_stats_;
};

TEST(FptasEquivalenceTest, MatchesFullScanOnSnmpPlan) {
  // The plan of perfbench's plan_replay workload at seed 1: 32 SNMP-like
  // sites, one training week, a global threshold that 1% of the 12
  // evaluation weeks exceed.
  SnmpTraceOptions gen;
  gen.num_sites = 32;
  gen.num_weeks = 13;
  gen.seed = 1;
  gen.shape_spread = 0.3;
  gen.site_scale_sigma = 0.5;
  gen.bimodal_fraction = 0.0;
  auto trace = GenerateSnmpTrace(gen);
  ASSERT_TRUE(trace.ok());
  const int64_t train = EpochsPerWeek(gen);
  auto training = trace->Slice(0, train);
  auto eval = trace->Slice(train, trace->num_epochs());
  ASSERT_TRUE(training.ok() && eval.ok());
  auto budget = ThresholdForOverflowFraction(*eval, {}, 0.01);
  ASSERT_TRUE(budget.ok());
  ComparingSolver solver;
  auto plan = BuildLocalPlan(*training, std::vector<int64_t>(32, 1), *budget,
                             solver);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(solver.last_stats().dp_cells, 119296);
  // The bound skips most of the full scan's ~222M level evaluations.
  EXPECT_LT(solver.last_stats().scanned_levels, 100'000'000);
}

TEST(FptasTest, MirroredSnmpPlanIsRejectedBeforeTheTableFill) {
  // A plan_replay-style plan over 16 SNMP-like sites where every fifth
  // site's view is mirrored: the mirrored floors alone exceed the budget,
  // so the answer is the degenerate fallback and no DP cell is filled
  // (the full fill spends millions of cells reaching the same fallback).
  SnmpTraceOptions gen;
  gen.num_sites = 16;
  gen.num_weeks = 13;
  gen.seed = 1;
  gen.shape_spread = 0.3;
  gen.site_scale_sigma = 0.5;
  gen.bimodal_fraction = 0.0;
  auto trace = GenerateSnmpTrace(gen);
  ASSERT_TRUE(trace.ok());
  const int64_t train = EpochsPerWeek(gen);
  auto training = trace->Slice(0, train);
  auto eval = trace->Slice(train, trace->num_epochs());
  ASSERT_TRUE(training.ok() && eval.ok());
  auto budget = ThresholdForOverflowFraction(*eval, {}, 0.01);
  ASSERT_TRUE(budget.ok());
  std::vector<std::unique_ptr<EquiDepthHistogram>> models;
  ThresholdProblem problem;
  problem.budget = *budget;
  for (int i = 0; i < gen.num_sites; ++i) {
    std::vector<int64_t> series = training->SiteSeries(i);
    const int64_t m =
        4 * std::max<int64_t>(1, *std::max_element(series.begin(),
                                                   series.end()));
    auto h = EquiDepthHistogram::Build(series, m, 100);
    ASSERT_TRUE(h.ok());
    models.push_back(std::make_unique<EquiDepthHistogram>(std::move(*h)));
    problem.vars.push_back(ProblemVar{
        i, 1, CdfView(models.back().get(), /*mirrored=*/i % 5 == 0)});
  }
  FptasSolver::Options options;
  ASSERT_TRUE(ProvablyInfeasible(options, problem));
  FptasSolver::Stats stats;
  auto sol = FptasSolver(options).SolveWithStats(problem, &stats);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_TRUE(sol->degenerate);
  EXPECT_EQ(stats.dp_cells, 0);
  EXPECT_EQ(stats.scanned_levels, 0);
}

}  // namespace
}  // namespace dcv
