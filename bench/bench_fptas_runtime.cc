// Microbenchmarks for the threshold-selection algorithms (google-benchmark):
// FPTAS runtime scaling in n and 1/eps (Theorem 2's complexity), the FPTAS
// on the plan the repository benchmark's plan_replay workload solves, the
// exact DP's pseudo-polynomial blow-up in the budget T (the reason the FPTAS
// exists), and the heuristics for context.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "histogram/equi_depth.h"
#include "threshold/exact_dp.h"
#include "threshold/fptas.h"
#include "threshold/heuristics.h"
#include "trace/snmp_synth.h"
#include "trace/stats.h"

namespace dcv {
namespace {

struct Instance {
  std::vector<std::unique_ptr<EquiDepthHistogram>> models;
  ThresholdProblem problem;
};

// A paper-like instance: n sites, lognormal traffic, 100-bucket histograms,
// budget at roughly the 98th percentile of the sum.
Instance MakeInstance(int n, int64_t scale, uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  int64_t budget = 0;
  for (int i = 0; i < n; ++i) {
    const int64_t m = scale * 8;
    std::vector<int64_t> data;
    for (int k = 0; k < 1435; ++k) {
      double v = rng.LogNormal(std::log(static_cast<double>(scale)), 0.8);
      data.push_back(Clamp<int64_t>(static_cast<int64_t>(v), 0, m));
    }
    auto h = EquiDepthHistogram::Build(data, m, 100);
    DCV_CHECK(h.ok());
    inst.models.push_back(std::make_unique<EquiDepthHistogram>(std::move(*h)));
    inst.problem.vars.push_back(
        ProblemVar{i, 1, CdfView(inst.models.back().get(), false)});
    budget += static_cast<int64_t>(2.2 * static_cast<double>(scale));
  }
  inst.problem.budget = budget;
  return inst;
}

void BM_FptasVsSites(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Instance inst = MakeInstance(n, 100000, 42);
  FptasSolver solver(0.05);
  for (auto _ : state) {
    auto sol = solver.Solve(inst.problem);
    DCV_CHECK(sol.ok());
    benchmark::DoNotOptimize(sol->log_probability);
  }
}
BENCHMARK(BM_FptasVsSites)->Arg(2)->Arg(5)->Arg(10)->Arg(20)->Arg(30);

// The problem perfbench's plan_replay workload plans: 32 SNMP-like sites
// (one training week, 12 evaluation weeks), per-site 100-bucket equi-depth
// histograms over 4x the observed maximum, unit weights, and the global
// threshold that 1% of the evaluation epochs exceed (BuildLocalPlan's
// problem for that input).
Instance MakePlanReplayInstance(uint64_t seed) {
  SnmpTraceOptions gen;
  gen.num_sites = 32;
  gen.num_weeks = 13;
  gen.seed = seed;
  gen.shape_spread = 0.3;
  gen.site_scale_sigma = 0.5;
  gen.bimodal_fraction = 0.0;
  auto trace = GenerateSnmpTrace(gen);
  DCV_CHECK(trace.ok());
  const int64_t train = EpochsPerWeek(gen);
  auto training = trace->Slice(0, train);
  auto eval = trace->Slice(train, trace->num_epochs());
  DCV_CHECK(training.ok() && eval.ok());
  auto budget = ThresholdForOverflowFraction(*eval, {}, 0.01);
  DCV_CHECK(budget.ok());
  Instance inst;
  inst.problem.budget = *budget;
  for (int i = 0; i < gen.num_sites; ++i) {
    std::vector<int64_t> series = training->SiteSeries(i);
    const int64_t observed = *std::max_element(series.begin(), series.end());
    const int64_t m = std::max<int64_t>(
        1, std::llround(4.0 * static_cast<double>(
                                  std::max<int64_t>(observed, 1))));
    auto h = EquiDepthHistogram::Build(series, m, 100);
    DCV_CHECK(h.ok());
    inst.models.push_back(std::make_unique<EquiDepthHistogram>(std::move(*h)));
    inst.problem.vars.push_back(
        ProblemVar{i, 1, CdfView(inst.models.back().get(), false)});
  }
  return inst;
}

void BM_FptasPlanReplay(benchmark::State& state) {
  Instance inst = MakePlanReplayInstance(static_cast<uint64_t>(state.range(0)));
  FptasSolver solver(0.05);
  FptasSolver::Stats stats;
  for (auto _ : state) {
    auto sol = solver.SolveWithStats(inst.problem, &stats);
    DCV_CHECK(sol.ok());
    benchmark::DoNotOptimize(sol->log_probability);
  }
  state.counters["dp_cells"] = static_cast<double>(stats.dp_cells);
  state.counters["scanned_levels"] = static_cast<double>(stats.scanned_levels);
}
BENCHMARK(BM_FptasPlanReplay)->Arg(1)->Arg(1009)->Unit(benchmark::kMillisecond);

void BM_FptasVsEps(benchmark::State& state) {
  const double eps = 1.0 / static_cast<double>(state.range(0));
  Instance inst = MakeInstance(10, 100000, 43);
  FptasSolver solver(eps);
  for (auto _ : state) {
    auto sol = solver.Solve(inst.problem);
    DCV_CHECK(sol.ok());
    benchmark::DoNotOptimize(sol->log_probability);
  }
}
BENCHMARK(BM_FptasVsEps)->Arg(2)->Arg(10)->Arg(20)->Arg(100);

void BM_FptasVsDomain(benchmark::State& state) {
  // Theorem 2: only log(M-bar) dependence on the domain size.
  const int64_t scale = state.range(0);
  Instance inst = MakeInstance(10, scale, 44);
  FptasSolver solver(0.05);
  for (auto _ : state) {
    auto sol = solver.Solve(inst.problem);
    DCV_CHECK(sol.ok());
    benchmark::DoNotOptimize(sol->log_probability);
  }
}
BENCHMARK(BM_FptasVsDomain)
    ->Arg(1000)
    ->Arg(100000)
    ->Arg(10000000)
    ->Arg(100000000);

void BM_ExactDpVsBudget(benchmark::State& state) {
  // The O(n T^2) exact algorithm: quadratic blow-up in the budget.
  const int64_t scale = state.range(0);
  Instance inst = MakeInstance(4, scale, 45);
  ExactDpSolver solver;
  for (auto _ : state) {
    auto sol = solver.Solve(inst.problem);
    DCV_CHECK(sol.ok());
    benchmark::DoNotOptimize(sol->log_probability);
  }
}
BENCHMARK(BM_ExactDpVsBudget)->Arg(50)->Arg(200)->Arg(800);

void BM_EqualValue(benchmark::State& state) {
  Instance inst = MakeInstance(10, 100000, 46);
  EqualValueSolver solver;
  for (auto _ : state) {
    auto sol = solver.Solve(inst.problem);
    DCV_CHECK(sol.ok());
    benchmark::DoNotOptimize(sol->log_probability);
  }
}
BENCHMARK(BM_EqualValue);

void BM_EqualTail(benchmark::State& state) {
  Instance inst = MakeInstance(10, 100000, 47);
  EqualTailSolver solver;
  for (auto _ : state) {
    auto sol = solver.Solve(inst.problem);
    DCV_CHECK(sol.ok());
    benchmark::DoNotOptimize(sol->log_probability);
  }
}
BENCHMARK(BM_EqualTail);

}  // namespace
}  // namespace dcv

BENCHMARK_MAIN();
