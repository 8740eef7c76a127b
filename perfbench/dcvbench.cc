// dcvbench: runs one workload of the repository benchmark for a wall-clock
// budget and prints one JSON document on stdout. perfbench/run.py builds
// this binary, runs it and turns the document into the benchmark's result
// line; README.md in this directory describes the workloads and metrics.
//
// Usage: dcvbench --workload alarm_storm|quiet_sweep|socket_burst|plan_replay
//                 --seed N --seconds S --scratch DIR
//                 [--trace 0|1] [--spans PATH] [--small 0|1]
//
// A run repeats the workload's unit (one call into the runtime on the same
// seeded input) until --seconds have passed, checks every unit's output,
// and aggregates the units after the first two, which warm the heap. With
// --trace 1 the measured units alternate untraced and traced; traced units
// record a span around every call the benchmark makes into a library layer,
// and the spans go to --spans when the run ends.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <system_error>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "runtime/plan.h"
#include "runtime/runtime.h"
#include "runtime/site_worker.h"
#include "sim/local_scheme.h"
#include "sim/runner.h"
#include "threshold/fptas.h"
#include "trace/snmp_synth.h"
#include "trace/stats.h"
#include "trace/trace_bin.h"

namespace dcv {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans: one record per call the benchmark makes into a layer.

struct Span {
  std::string name;
  std::string layer;
  int unit = 0;     ///< Workload unit the span belongs to.
  int parent = -1;  ///< Index of the enclosing span; -1 for a unit root.
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span store for the benchmark's own (main) thread. Recording is
/// switched on per unit; when off, Open/Close cost one branch.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void BeginUnit(int unit, bool enabled) {
    unit_ = unit;
    enabled_ = enabled;
  }

  int Open(std::string name, std::string layer, Clock::time_point start) {
    if (!enabled_) {
      return -1;
    }
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.unit = unit_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_s = SecondsBetween(origin_, start);
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void Close(int id, Clock::time_point end) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_s = SecondsBetween(origin_, end);
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time: each span's duration minus the time its direct
  /// children cover (children never overlap: one thread, strictly nested).
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return self;
  }

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  int unit_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call. The duration is always measured (metrics need it);
/// a span is recorded only when the log is enabled for the current unit.
class Timed {
 public:
  Timed(SpanLog* log, std::string name, std::string layer)
      : log_(log), start_(Clock::now()) {
    id_ = log_->Open(std::move(name), std::move(layer), start_);
  }
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double Stop() {
    if (!stopped_) {
      end_ = Clock::now();
      log_->Close(id_, end_);
      stopped_ = true;
    }
    return SecondsBetween(start_, end_);
  }

 private:
  SpanLog* log_;
  Clock::time_point start_;
  Clock::time_point end_;
  int id_ = -1;
  bool stopped_ = false;
};

/// FPTAS behind the ThresholdSolver interface, timed and with its DP size
/// kept, so BuildLocalPlan's solve shows as a threshold-layer child span.
class TimedFptas : public ThresholdSolver {
 public:
  TimedFptas(double eps, SpanLog* log) : fptas_(eps), log_(log) {}

  std::string_view name() const override { return "fptas"; }

  Result<ThresholdSolution> Solve(
      const ThresholdProblem& problem) const override {
    Timed t(log_, "FptasSolver::Solve", "threshold");
    FptasSolver::Stats stats;
    Result<ThresholdSolution> solution = fptas_.SolveWithStats(problem, &stats);
    seconds_ += t.Stop();
    dp_cells_ += stats.dp_cells;
    return solution;
  }

  /// Returns and clears the time and DP cells accumulated since last call.
  std::pair<double, int64_t> Take() const {
    std::pair<double, int64_t> out{seconds_, dp_cells_};
    seconds_ = 0.0;
    dp_cells_ = 0;
    return out;
  }

 private:
  FptasSolver fptas_;
  SpanLog* log_;
  mutable double seconds_ = 0.0;
  mutable int64_t dp_cells_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  int sites = 0;
  int64_t updates_per_site = 0;  ///< Synthetic workloads.
  double alarm_fraction = 0.0;   ///< Share of updates breaching T_i.
  int workers = 3;               ///< Site worker threads / connections.
  bool socket = false;
  bool virtual_time = false;  ///< Synthetic workloads; plan_replay always is.
  bool one_core = false;      ///< Pin each unit's threads to one core.
  int eval_weeks = 0;  ///< plan_replay: weeks replayed after the training week.
};

constexpr int64_t kSyntheticMax = 1'000'000;
constexpr double kEps = 0.05;
constexpr double kOverflowFraction = 0.01;

Result<Workload> FindWorkload(const std::string& name, bool small) {
  Workload w;
  w.name = name;
  if (name == "alarm_storm") {
    w.sites = small ? 2'000 : 100'000;
    w.updates_per_site = 50;
    w.alarm_fraction = 0.02;
    // Virtual time: every epoch raises ~2% alarms and runs one full poll
    // round, so each unit does the same alarm-path work. Free-running, the
    // poll-round count per update is emergent: ten seeds ranged 4.0-6.6M
    // updates/s, and a busy loop on one core made it ~60% faster.
    w.virtual_time = true;
    // One worker on one core per unit, like plan_replay. With 2 workers
    // spread over cores every epoch waits for the slowest core, so when the
    // host slowed one, every unit slowed: one ten-seed set fell 40% for
    // minutes. On one core at a time only that core's units slow, and the
    // median over units does not move. It was also faster: 3.8-4.1M
    // updates/s against 3.4-3.8M in alternating runs on seed 1.
    w.workers = 1;
    w.one_core = true;
  } else if (name == "quiet_sweep") {
    w.sites = small ? 20'000 : 1'000'000;
    w.updates_per_site = 25;
  } else if (name == "socket_burst") {
    w.sites = small ? 256 : 4096;
    w.updates_per_site = small ? 2'000 : 20'000;
    w.alarm_fraction = 0.02;
    w.workers = 2;
    w.socket = true;
  } else if (name == "plan_replay") {
    w.sites = small ? 16 : 32;
    w.eval_weeks = small ? 1 : 12;
    // Epochs of 32 sites take ~15 us, so the barrier's hand-offs set the
    // pace: spread over cores, whole runs slowed up to fivefold while the
    // host was busy. On one core they stay local, and with one worker there
    // are fewest of them (2 workers: 1.27-1.93M updates/s on seed 1; 1
    // worker: 2.16-2.26M).
    w.workers = 1;
    w.one_core = true;
  } else {
    return InvalidArgumentError("unknown workload '" + name + "'");
  }
  return w;
}

/// The seeded input of plan_replay, generated once per run.
struct ReplayInput {
  Trace trace{0};
  int64_t train_epochs = 0;
  int64_t global_threshold = 0;
  /// Lockstep oracle over the same input: per-epoch detections, messages,
  /// the thresholds its own scheme planned, and its time outside the plan.
  std::vector<EpochDetection> oracle_epochs;
  SimResult oracle;
  std::vector<int64_t> oracle_thresholds;
  double oracle_s = 0.0;
  double gen_s = 0.0;
};

/// What one unit measured. Sums over units are taken by the aggregation.
struct UnitResult {
  bool warmup = false;  ///< Warms the heap; not in any metric.
  bool traced = false;
  int64_t attempted = 0;  ///< Site updates the unit asked the runtime for.
  int64_t consumed = 0;   ///< Site updates the runtime reports consuming.
  int64_t failed = 0;
  double unit_s = 0.0;     ///< Whole unit, benchmark work included.
  double peak_rss_mb = 0.0;  ///< Process peak RSS during the unit.
  double elapsed_s = 0.0;  ///< RuntimeResult::elapsed_seconds.
  double runtime_setup_s = 0.0;  ///< Runtime call wall minus elapsed_s.
  double setup_s = 0.0;          ///< End-to-end set-up (see README).
  int64_t site_alarms = 0;
  int64_t coordinator_alarms = 0;
  int64_t poll_rounds = 0;
  MessageCounter messages;
  obs::MetricsSnapshot metrics;
  SocketStats socket;              ///< Coordinator side.
  int64_t worker_decode_errors = 0;
  int64_t worker_replayed_frames = 0;
  // plan_replay only.
  double write_s = 0.0;
  double read_s = 0.0;
  double plan_s = 0.0;
  double solve_s = 0.0;
  int64_t dp_cells = 0;
  int64_t file_bytes = 0;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Checks {
 public:
  /// Records the outcome; the first failure of each check keeps its detail.
  bool Expect(const std::string& name, bool ok, const std::string& detail) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = checks_.size();
      checks_.push_back(Check{name, ok, ok ? "" : detail});
    } else if (!ok && checks_[it->second].ok) {
      checks_[it->second].ok = false;
      checks_[it->second].detail = detail;
    }
    return ok;
  }
  const std::vector<Check>& all() const { return checks_; }
  bool all_ok() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check& c) { return c.ok; });
  }

 private:
  std::vector<Check> checks_;
  std::map<std::string, size_t> index_;
};

int64_t CounterOr0(const obs::MetricsSnapshot& m, const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

std::string Str(int64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Units.

/// Synthetic unit (alarm_storm, quiet_sweep, socket_burst).
Status RunSyntheticUnit(const Workload& w, uint64_t seed, SpanLog* log,
                        UnitResult* u) {
  obs::MetricsRegistry registry;
  RuntimeOptions options;
  options.virtual_time = w.virtual_time;
  options.num_workers = w.workers;
  options.num_shards = 1;
  options.seed = seed;
  options.synthetic_max = kSyntheticMax;
  // Polls never flag: the workload measures the alarm path, not violations.
  options.global_threshold = static_cast<int64_t>(w.sites) * kSyntheticMax;
  options.thresholds.assign(
      static_cast<size_t>(w.sites),
      static_cast<int64_t>(static_cast<double>(kSyntheticMax) *
                           (1.0 - w.alarm_fraction)));
  options.domain_max.assign(static_cast<size_t>(w.sites), kSyntheticMax);
  options.metrics = &registry;

  // Socket workers run in-process, one thread per connection, each with the
  // registry a separate worker process would have.
  std::vector<std::thread> workers;
  std::vector<obs::MetricsRegistry> worker_metrics(
      static_cast<size_t>(w.socket ? w.workers : 0));
  std::vector<Result<SiteWorkerReport>> reports(
      worker_metrics.size(), Result<SiteWorkerReport>(InternalError("not run")));
  if (w.socket) {
    options.transport = TransportKind::kSocket;
    options.listen_port = 0;
    options.on_listening = [&](int port) {
      for (int k = 0; k < w.workers; ++k) {
        workers.emplace_back([&, k, port] {
          SiteWorkerOptions wo;
          wo.port = port;
          wo.worker = k;
          wo.num_workers = w.workers;
          wo.num_sites = w.sites;
          wo.synthetic_updates = w.updates_per_site;
          wo.seed = seed;
          wo.synthetic_max = kSyntheticMax;
          wo.metrics = &worker_metrics[static_cast<size_t>(k)];
          // Only the final telemetry push: periodic pushes would add
          // timing-dependent frames to the measured stream.
          wo.telemetry_interval_ms = 0;
          reports[static_cast<size_t>(k)] = RunSiteWorker(nullptr, wo);
        });
      }
    };
  }
  u->attempted = static_cast<int64_t>(w.sites) * w.updates_per_site;
  Timed call(log, "RunSyntheticRuntime", "runtime");
  Result<RuntimeResult> result =
      RunSyntheticRuntime(w.sites, w.updates_per_site, options);
  const double call_s = call.Stop();
  for (std::thread& t : workers) {
    t.join();
  }
  if (!result.ok()) {
    return result.status();
  }
  for (const Result<SiteWorkerReport>& r : reports) {
    if (!r.ok()) {
      return r.status();
    }
    u->worker_decode_errors += r.value().socket.decode_errors;
    u->worker_replayed_frames += r.value().socket.replayed_frames;
  }
  const RuntimeResult& rt = result.value();
  u->consumed = rt.total_updates;
  u->elapsed_s = rt.elapsed_seconds;
  u->runtime_setup_s = call_s - rt.elapsed_seconds;
  u->setup_s = u->runtime_setup_s;
  u->site_alarms = CounterOr0(rt.metrics, "runtime/site/alarms");
  u->coordinator_alarms = rt.messages.of(MessageType::kAlarm);
  u->poll_rounds = CounterOr0(rt.metrics, "runtime/coordinator/polls");
  u->messages = rt.messages;
  u->metrics = rt.metrics;
  u->socket = rt.socket;
  return OkStatus();
}

/// Builds the seeded plan_replay input and runs the lockstep oracle on it.
Result<ReplayInput> MakeReplayInput(const Workload& w, uint64_t seed,
                                    SpanLog* log) {
  ReplayInput in;
  SnmpTraceOptions gen;
  gen.num_sites = w.sites;
  gen.num_weeks = 1 + w.eval_weeks;
  gen.seed = seed;
  // Moderate per-site heterogeneity and no bimodal sites. With the
  // generator's defaults the share of polled epochs ranged 0.37-0.82 across
  // seeds at 48 sites, and replay throughput tracks that share. With the
  // default scale spread a few large sites set the plan's deficit, and the
  // FPTAS table's size ranged threefold across seeds.
  gen.shape_spread = 0.3;
  gen.site_scale_sigma = 0.5;
  gen.bimodal_fraction = 0.0;
  {
    Timed t(log, "GenerateSnmpTrace", "trace");
    DCV_ASSIGN_OR_RETURN(in.trace, GenerateSnmpTrace(gen));
    in.train_epochs = EpochsPerWeek(gen);
    DCV_ASSIGN_OR_RETURN(Trace eval,
                         in.trace.Slice(in.train_epochs, in.trace.num_epochs()));
    DCV_ASSIGN_OR_RETURN(
        in.global_threshold,
        ThresholdForOverflowFraction(eval, {}, kOverflowFraction));
    in.gen_s = t.Stop();
  }
  DCV_ASSIGN_OR_RETURN(Trace training, in.trace.Slice(0, in.train_epochs));
  DCV_ASSIGN_OR_RETURN(Trace eval,
                       in.trace.Slice(in.train_epochs, in.trace.num_epochs()));
  // The oracle plans with its own solver, so the plan check below compares
  // two independent FPTAS runs rather than one plan with itself.
  TimedFptas oracle_solver(kEps, log);
  LocalThresholdScheme::Options so;
  so.solver = &oracle_solver;
  LocalThresholdScheme scheme(so);
  SimOptions sim;
  sim.global_threshold = in.global_threshold;
  sim.on_epoch = [&in](int64_t epoch, const EpochResult& r) {
    in.oracle_epochs.push_back(EpochDetection{epoch, r.num_alarms, r.polled,
                                              r.violation_reported});
  };
  Timed t(log, "RunSimulation", "sim");
  DCV_ASSIGN_OR_RETURN(in.oracle, RunSimulation(&scheme, sim, training, eval));
  // The simulator's own time, without the plan its scheme solved.
  in.oracle_s = t.Stop() - oracle_solver.Take().first;
  in.oracle_thresholds = scheme.thresholds();
  return in;
}

/// plan_replay unit: persist the trace, load it back, plan on the loaded
/// training week, replay the evaluation weeks in virtual time and compare
/// every epoch with the oracle.
Status RunReplayUnit(const Workload& w, const ReplayInput& in,
                     const std::string& scratch, SpanLog* log,
                     const TimedFptas& solver, Checks* checks, UnitResult* u) {
  const std::string path = scratch + "/plan_replay.dcvb";
  {
    Timed t(log, "WriteTraceBin", "io");
    DCV_RETURN_IF_ERROR(WriteTraceBin(in.trace, path));
    u->write_s = t.Stop();
  }
  std::error_code size_error;
  u->file_bytes =
      static_cast<int64_t>(std::filesystem::file_size(path, size_error));
  if (size_error) {
    return InternalError("cannot stat " + path + ": " + size_error.message());
  }
  Trace loaded(0);
  {
    Timed t(log, "LoadTrace", "io");
    DCV_ASSIGN_OR_RETURN(loaded, LoadTrace(path));
    u->read_s = t.Stop();
  }
  bool same = loaded.num_sites() == in.trace.num_sites() &&
              loaded.num_epochs() == in.trace.num_epochs();
  for (int64_t e = 0; same && e < loaded.num_epochs(); ++e) {
    same = loaded.epoch(e) == in.trace.epoch(e);
  }
  checks->Expect("io.roundtrip", same,
                 "LoadTrace returned different values than were written");
  DCV_ASSIGN_OR_RETURN(Trace training, loaded.Slice(0, in.train_epochs));
  DCV_ASSIGN_OR_RETURN(Trace eval,
                       loaded.Slice(in.train_epochs, loaded.num_epochs()));

  LocalPlan plan;
  {
    Timed t(log, "BuildLocalPlan", "histogram");
    DCV_ASSIGN_OR_RETURN(
        plan, BuildLocalPlan(training,
                             std::vector<int64_t>(
                                 static_cast<size_t>(training.num_sites()), 1),
                             in.global_threshold, solver));
    u->plan_s = t.Stop();
  }
  std::tie(u->solve_s, u->dp_cells) = solver.Take();
  checks->Expect("plan.matches_oracle", plan.thresholds == in.oracle_thresholds,
                 "BuildLocalPlan thresholds differ from the simulator's");

  obs::MetricsRegistry registry;
  RuntimeOptions options;
  options.virtual_time = true;
  options.num_workers = w.workers;
  options.num_shards = 1;
  options.global_threshold = in.global_threshold;
  options.thresholds = plan.thresholds;
  options.domain_max = plan.domain_max;
  options.metrics = &registry;
  u->attempted = static_cast<int64_t>(eval.num_sites()) * eval.num_epochs();
  Timed call(log, "RunMonitorRuntime", "runtime");
  DCV_ASSIGN_OR_RETURN(RuntimeResult rt,
                       RunMonitorRuntime(training, eval, options));
  const double call_s = call.Stop();

  u->consumed = rt.total_updates;
  u->elapsed_s = rt.elapsed_seconds;
  u->runtime_setup_s = call_s - rt.elapsed_seconds;
  u->setup_s = u->runtime_setup_s + u->write_s + u->read_s + u->plan_s;
  u->site_alarms = CounterOr0(rt.metrics, "runtime/site/alarms");
  u->coordinator_alarms = rt.messages.of(MessageType::kAlarm);
  u->poll_rounds = CounterOr0(rt.metrics, "runtime/coordinator/polls");
  u->messages = rt.messages;
  u->metrics = rt.metrics;

  const size_t n = in.oracle_epochs.size();
  int64_t mismatched = std::abs(static_cast<int64_t>(rt.detections.size()) -
                                static_cast<int64_t>(n));
  std::string first;
  for (size_t e = 0; e < std::min(n, rt.detections.size()); ++e) {
    if (!(rt.detections[e] == in.oracle_epochs[e])) {
      if (mismatched == 0 && first.empty()) {
        first = "first differing epoch " + Str(static_cast<int64_t>(e));
      }
      ++mismatched;
    }
  }
  checks->Expect("replay.epochs_match_oracle", mismatched == 0,
                 Str(mismatched) + " epochs differ; " + first);
  bool msgs_equal = true;
  for (int m = 0; m < kNumMessageTypes; ++m) {
    msgs_equal = msgs_equal && rt.messages.of(static_cast<MessageType>(m)) ==
                                   in.oracle.messages.of(static_cast<MessageType>(m));
  }
  checks->Expect("replay.messages_match_oracle", msgs_equal,
                 "runtime " + rt.messages.ToString() + " vs oracle " +
                     in.oracle.messages.ToString());
  const bool covered = rt.missed_violations == 0 &&
                       in.oracle.missed_violations == 0 &&
                       rt.detected_violations == in.oracle.true_violations;
  checks->Expect("replay.no_missed_violations", covered,
                 "runtime missed " + Str(rt.missed_violations) + " of " +
                     Str(rt.true_violations) + " violations");
  // An update fails if it falls in an epoch the runtime got wrong; a
  // message-count or covering failure fails the whole unit.
  if (!msgs_equal || !covered) {
    u->failed = u->attempted;
  } else {
    u->failed = std::min(u->attempted, mismatched * eval.num_sites());
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Aggregation.

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <typename F>
double MedianOf(const std::vector<const UnitResult*>& units, F f) {
  std::vector<double> v;
  for (const UnitResult* u : units) {
    v.push_back(static_cast<double>(f(*u)));
  }
  return Median(std::move(v));
}

template <typename F>
double SumOf(const std::vector<const UnitResult*>& units, F f) {
  double s = 0.0;
  for (const UnitResult* u : units) {
    s += static_cast<double>(f(*u));
  }
  return s;
}

/// Merges one histogram across units; count 0 when no unit recorded it.
obs::HistogramSnapshot MergedHistogram(
    const std::vector<const UnitResult*>& units, const std::string& name) {
  obs::HistogramSnapshot merged;
  bool first = true;
  for (const UnitResult* u : units) {
    auto it = u->metrics.histograms.find(name);
    if (it == u->metrics.histograms.end()) {
      continue;
    }
    if (first) {
      merged = it->second;
      first = false;
    } else {
      merged.MergeFrom(it->second);
    }
  }
  return merged;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Restarts the kernel's peak-RSS (VmHWM) tracking for this process, so
/// each unit's peak is its own rather than the largest unit's so far.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last ResetPeakRss, in MiB; falls back to
/// the process-lifetime peak where /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// A flat name -> {value, unit} table, in insertion order.
class MetricTable {
 public:
  void Add(std::string name, double value, std::string unit) {
    rows_.push_back(Row{std::move(name), value, std::move(unit)});
  }

  void Write(obs::JsonWriter* json) const {
    json->BeginObject();
    for (const Row& r : rows_) {
      json->Key(r.name).BeginObject();
      json->Key("value").Value(r.value);
      json->Key("unit").Value(r.unit);
      json->EndObject();
    }
    json->EndObject();
  }

 private:
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Row> rows_;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string spans_path;
  std::string scratch;
};

Status WriteSpans(const RunArgs& args, const SpanLog& log,
                  const std::string& run_id) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("run_id").Value(run_id);
  json.Key("workload").Value(args.workload);
  json.Key("seed").Value(static_cast<int64_t>(args.seed));
  json.Key("self_s").BeginObject();
  for (const auto& [layer, seconds] : log.SelfSeconds()) {
    json.Key(layer).Value(seconds);
  }
  json.EndObject();
  json.Key("spans").BeginArray();
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    json.BeginObject();
    json.Key("id").Value(static_cast<int64_t>(i));
    json.Key("parent").Value(static_cast<int64_t>(s.parent));
    json.Key("run_id").Value(run_id);
    json.Key("unit").Value(static_cast<int64_t>(s.unit));
    json.Key("layer").Value(s.layer);
    json.Key("name").Value(s.name);
    json.Key("start_s").Value(s.start_s);
    json.Key("end_s").Value(s.end_s);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::FILE* f = std::fopen(args.spans_path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot write spans to " + args.spans_path);
  }
  const std::string text = json.str() + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    return InternalError("short write of spans to " + args.spans_path);
  }
  return OkStatus();
}

Result<RunArgs> ParseArgs(int argc, char** argv) {
  FlagSet flags;
  flags.Value("workload").Value("seed").Value("seconds").Value("trace")
      .Value("small").Value("spans").Value("scratch");
  DCV_ASSIGN_OR_RETURN(ParsedFlags parsed, flags.Parse(argc, argv, 1));
  RunArgs a;
  a.workload = parsed.GetString("workload", "");
  DCV_ASSIGN_OR_RETURN(int64_t seed, parsed.GetInt("seed", 1));
  a.seed = static_cast<uint64_t>(seed);
  DCV_ASSIGN_OR_RETURN(a.seconds, parsed.GetDouble("seconds", a.seconds));
  DCV_ASSIGN_OR_RETURN(int64_t trace, parsed.GetInt("trace", 0));
  DCV_ASSIGN_OR_RETURN(int64_t small, parsed.GetInt("small", 0));
  a.trace = trace != 0;
  a.small = small != 0;
  a.spans_path = parsed.GetString("spans", "");
  a.scratch = parsed.GetString("scratch", "");
  if (!(a.seconds > 0.0) || a.seconds > 600.0) {
    return InvalidArgumentError("--seconds must be in (0, 600]");
  }
  if (a.scratch.empty()) {
    return InvalidArgumentError("--scratch DIR is required");
  }
  if (a.trace && a.spans_path.empty()) {
    return InvalidArgumentError("--trace 1 needs --spans PATH");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  Result<RunArgs> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "dcvbench: %s\n", parsed.status().message().c_str());
    return 2;
  }
  const RunArgs args = parsed.value();
  Result<Workload> found = FindWorkload(args.workload, args.small);
  if (!found.ok()) {
    std::fprintf(stderr, "dcvbench: %s\n", found.status().message().c_str());
    return 2;
  }
  const Workload w = found.value();
  std::vector<int> cores;  // The cores this process may run on.
  if (w.one_core) {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &cpus)) {
          cores.push_back(c);
        }
      }
    }
  }
  const std::string run_id = w.name + "-seed" + std::to_string(args.seed) +
                             (args.trace ? "-traced" : "");
  SpanLog log(origin);
  Checks checks;
  // Input generation is traced like every other layer call when tracing.
  log.BeginUnit(-1, args.trace);
  ReplayInput replay;
  const bool is_replay = w.name == "plan_replay";
  if (is_replay) {
    Result<ReplayInput> in = MakeReplayInput(w, args.seed, &log);
    if (!in.ok()) {
      std::fprintf(stderr, "dcvbench: %s\n", in.status().message().c_str());
      return 1;
    }
    replay = std::move(in.value());
  }
  TimedFptas solver(kEps, &log);

  // Two warm-up units first. The heap they free is kept, so later units
  // reuse mapped pages: set-up then measures the program's own work, not
  // the kernel's page faults, whose cost (two thirds of the cold 1M-site
  // set-up) moved ten-seed medians from 0.20 s to 0.16 s between sets an
  // hour apart. Warm-up units are checked like every unit but enter no
  // metric.
  // Then at least three measured units so set-up is taken as a median, at
  // least one of each kind in a traced run, then until the budget is spent.
  const int warmup_units = 2;
  const int min_units = warmup_units + (args.small ? (args.trace ? 2 : 1) : 3);
  std::vector<UnitResult> units;
  Status failure = OkStatus();
  const Clock::time_point measure_start = Clock::now();
  while (static_cast<int>(units.size()) < min_units ||
         SecondsBetween(measure_start, Clock::now()) < args.seconds) {
    const int index = static_cast<int>(units.size());
    UnitResult u;
    u.warmup = index < warmup_units;
    u.traced = args.trace && !u.warmup && (index - warmup_units) % 2 == 1;
    log.BeginUnit(index, u.traced);
    if (!cores.empty()) {
      // Threads inherit the mask, so the unit's runtime threads share the
      // core. Units take the cores in turn: a pinned core's speed moved by
      // up to a third from run to run, and a run that visits every core
      // sees their average. Four alternating 10 s runs on plan_replay seed
      // 1 gave 2.02-2.85M updates/s and 0.46-0.64 s set-up on one fixed
      // core, 2.12-2.36M and 0.56-0.58 s with the cores in turn. A traced
      // run turns once per pair, so both kinds of unit visit every core.
      const size_t turn = static_cast<size_t>(args.trace ? index / 2 : index);
      const int core = cores[turn % cores.size()];
      cpu_set_t cpus;
      CPU_ZERO(&cpus);
      CPU_SET(core, &cpus);
      if (sched_setaffinity(0, sizeof(cpus), &cpus) != 0) {
        std::fprintf(stderr, "dcvbench: cannot pin to core %d\n", core);
        return 1;
      }
    }
    ResetPeakRss();
    Timed unit(&log, "unit", "bench");
    const Status s =
        is_replay ? RunReplayUnit(w, replay, args.scratch, &log, solver,
                                  &checks, &u)
                  : RunSyntheticUnit(w, args.seed, &log, &u);
    u.unit_s = unit.Stop();
    u.peak_rss_mb = PeakRssMb();
    if (!s.ok()) {
      checks.Expect("runtime.call_ok", false, s.message());
      u.failed = u.attempted;
      units.push_back(std::move(u));
      failure = s;
      break;
    }
    // Every update asked for is consumed, and the alarm stream repeats
    // exactly: the same seeded input gives the same alarms every unit.
    const bool all_consumed = u.consumed == u.attempted;
    checks.Expect("runtime.consumed_all_updates", all_consumed,
                  "consumed " + Str(u.consumed) + " of " + Str(u.attempted));
    bool unit_ok = all_consumed;
    const int64_t first_alarms =
        units.empty() ? u.site_alarms : units.front().site_alarms;
    unit_ok &= checks.Expect(
        "site.alarms_repeat", u.site_alarms == first_alarms,
        "unit " + Str(index) + " raised " + Str(u.site_alarms) +
            " alarms, unit 0 raised " + Str(first_alarms));
    unit_ok &= checks.Expect(
        "coordinator.received_all_alarms",
        u.coordinator_alarms == u.site_alarms,
        "sites raised " + Str(u.site_alarms) + ", coordinator saw " +
            Str(u.coordinator_alarms));
    const int64_t decode_errors =
        u.socket.decode_errors + u.worker_decode_errors;
    unit_ok &= checks.Expect("socket.no_decode_errors", decode_errors == 0,
                             Str(decode_errors) + " decode errors");
    if (!unit_ok) {
      u.failed = u.attempted;
    } else if (!is_replay) {
      u.failed = std::max<int64_t>(0, u.attempted - u.consumed);
    }
    units.push_back(std::move(u));
  }

  std::vector<const UnitResult*> plain;
  std::vector<const UnitResult*> traced;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const UnitResult& u : units) {
    if (!u.warmup) {
      (u.traced ? traced : plain).push_back(&u);
    }
    attempted += u.attempted;
    failed += u.failed;
  }
  if (attempted < 1) {
    attempted = 1;
    failed = 1;
  }

  // End-to-end, from the untraced units.
  MetricTable e2e;
  const double consumed = SumOf(plain, [](const UnitResult& u) { return u.consumed; });
  // Medians over units: a transient stall of the machine moves one unit,
  // not the run.
  e2e.Add("updates_per_s", MedianOf(plain, [](const UnitResult& u) {
            return Ratio(static_cast<double>(u.consumed), u.elapsed_s);
          }),
          "updates/s");
  e2e.Add("setup_s", MedianOf(plain, [](const UnitResult& u) { return u.setup_s; }),
          "s");
  e2e.Add("peak_rss_mb",
          MedianOf(plain, [](const UnitResult& u) { return u.peak_rss_mb; }),
          "MB");

  // Reported beside the end-to-end metrics; the poll and lag figures only
  // where the workload has poll rounds.
  MetricTable report;
  const double rounds = SumOf(plain, [](const UnitResult& u) { return u.poll_rounds; });
  const obs::HistogramSnapshot poll_us =
      MergedHistogram(plain, "runtime/coordinator/poll_round_us");
  if (poll_us.count > 0) {
    report.Add("poll_ms_p50", poll_us.Quantile(0.5) / 1000.0, "ms");
    report.Add("poll_ms_p90", poll_us.Quantile(0.9) / 1000.0, "ms");
    report.Add("poll_ms_samples", static_cast<double>(poll_us.count), "count");
  }
  const obs::HistogramSnapshot lag =
      MergedHistogram(plain, "runtime/detection_lag_epochs");
  if (lag.count > 0) {
    report.Add("lag_epochs_p90", lag.Quantile(0.9), "epochs");
  }
  report.Add("msgs_per_update",
             Ratio(SumOf(plain, [](const UnitResult& u) {
                     return u.messages.total();
                   }),
                   consumed),
             "msgs/update");
  report.Add("failed_frac",
             static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio");
  report.Add("coordinator.poll_rounds",
             MedianOf(plain, [](const UnitResult& u) { return u.poll_rounds; }),
             "count");
  if (rounds > 0) {
    report.Add("coordinator.alarms_per_round",
               SumOf(plain, [](const UnitResult& u) {
                 return u.coordinator_alarms;
               }) / rounds,
               "alarms/round");
  }
  report.Add("units", static_cast<double>(plain.size()), "count");

  // Per layer, from the traced units.
  MetricTable layers;
  if (args.trace) {
    const auto& t = traced;
    auto med = [&t](auto f) { return MedianOf(t, f); };
    auto sum = [&t](auto f) { return SumOf(t, f); };
    const double t_updates = sum([](const UnitResult& u) { return u.consumed; });
    const double t_elapsed = sum([](const UnitResult& u) { return u.elapsed_s; });
    const double t_rounds = sum([](const UnitResult& u) { return u.poll_rounds; });
    layers.Add("runtime.run_s", med([](const UnitResult& u) { return u.elapsed_s; }), "s");
    layers.Add("runtime.setup_s",
               med([](const UnitResult& u) { return u.runtime_setup_s; }), "s");
    layers.Add("site.updates", med([](const UnitResult& u) { return u.consumed; }),
               "count");
    layers.Add("site.alarms", med([](const UnitResult& u) { return u.site_alarms; }),
               "count");
    layers.Add("site.alarm_frac",
               Ratio(sum([](const UnitResult& u) { return u.site_alarms; }), t_updates),
               "ratio");
    layers.Add("coordinator.poll_rounds",
               med([](const UnitResult& u) { return u.poll_rounds; }), "count");
    layers.Add("coordinator.alarms_per_round",
               Ratio(sum([](const UnitResult& u) { return u.coordinator_alarms; }),
                     t_rounds),
               "alarms/round");
    layers.Add("coordinator.poll_busy_frac",
               Ratio(MergedHistogram(t, "runtime/coordinator/poll_round_us").sum /
                         1e6,
                     t_elapsed),
               "ratio");
    layers.Add("coordinator.epoch_us_p50",
               MergedHistogram(t, "runtime/coordinator/epoch_us").Quantile(0.5),
               "us");
    layers.Add("channel.poll_us_p50",
               MergedHistogram(t, "channel/poll_us").Quantile(0.5), "us");
    layers.Add("channel.alarm_msgs", med([](const UnitResult& u) {
                 return u.messages.of(MessageType::kAlarm);
               }),
               "count");
    layers.Add("channel.poll_request_msgs", med([](const UnitResult& u) {
                 return u.messages.of(MessageType::kPollRequest);
               }),
               "count");
    layers.Add("channel.poll_response_msgs", med([](const UnitResult& u) {
                 return u.messages.of(MessageType::kPollResponse);
               }),
               "count");
    layers.Add("sim.run_s", replay.oracle_s, "s");
    layers.Add("sim.msgs", static_cast<double>(replay.oracle.messages.total()),
               "count");
    layers.Add("socket.frames_tx",
               med([](const UnitResult& u) { return u.socket.frames_sent; }), "count");
    layers.Add("socket.frames_rx",
               med([](const UnitResult& u) { return u.socket.frames_received; }),
               "count");
    const double frames = sum([](const UnitResult& u) {
      return u.socket.frames_sent + u.socket.frames_received;
    });
    layers.Add("socket.bytes_per_update",
               Ratio(sum([](const UnitResult& u) {
                       return u.socket.bytes_sent + u.socket.bytes_received;
                     }),
                     t_updates),
               "bytes/update");
    layers.Add("socket.msgs_per_frame",
               Ratio(sum([](const UnitResult& u) { return u.messages.total(); }),
                     frames),
               "msgs/frame");
    layers.Add("socket.decode_errors", sum([](const UnitResult& u) {
                 return u.socket.decode_errors + u.worker_decode_errors;
               }),
               "count");
    layers.Add("socket.replayed_frames", sum([](const UnitResult& u) {
                 return u.socket.replayed_frames + u.worker_replayed_frames;
               }),
               "count");
    layers.Add("threshold.solve_s", med([](const UnitResult& u) { return u.solve_s; }),
               "s");
    layers.Add("threshold.dp_cells", med([](const UnitResult& u) { return u.dp_cells; }),
               "count");
    layers.Add("histogram.build_s",
               med([](const UnitResult& u) { return u.plan_s - u.solve_s; }), "s");
    layers.Add("io.write_s", med([](const UnitResult& u) { return u.write_s; }), "s");
    layers.Add("io.read_s", med([](const UnitResult& u) { return u.read_s; }), "s");
    layers.Add("io.bytes_per_value",
               Ratio(med([](const UnitResult& u) { return u.file_bytes; }),
                     static_cast<double>(replay.trace.num_sites()) *
                         static_cast<double>(replay.trace.num_epochs())),
               "bytes/value");
    layers.Add("trace.gen_s", replay.gen_s, "s");
    layers.Add("obs.traced_overhead_frac",
               Ratio(med([](const UnitResult& u) { return u.unit_s; }),
                     MedianOf(plain, [](const UnitResult& u) { return u.unit_s; })) -
                   1.0,
               "ratio");
    const Status s = WriteSpans(args, log, run_id);
    if (!s.ok()) {
      checks.Expect("spans.written", false, s.message());
    }
  }

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("run_id").Value(run_id);
  json.Key("workload").Value(w.name);
  json.Key("seed").Value(static_cast<int64_t>(args.seed));
  json.Key("small").Value(args.small);
  json.Key("units").Value(static_cast<int64_t>(plain.size()));
  json.Key("traced_units").Value(static_cast<int64_t>(traced.size()));
  json.Key("env").BeginObject();
  json.Key("compiler").Value(DCVBENCH_COMPILER);
  json.Key("build_type").Value(DCVBENCH_BUILD_TYPE);
  json.Key("lz4").Value(DCVBENCH_LZ4);
  json.Key("sites").Value(static_cast<int64_t>(w.sites));
  json.Key("site_worker_threads").Value(static_cast<int64_t>(w.workers));
  json.Key("coordinator_threads").Value(int64_t{1});
  json.Key("shards").Value(int64_t{1});
  json.Key("socket_connections").Value(int64_t{w.socket ? w.workers : 0});
  json.Key("transport").Value(w.socket ? "socket" : "thread");
  json.Key("engine").Value("multiplexed");
  json.Key("mode").Value(is_replay || w.virtual_time ? "virtual-time"
                                                     : "free-running");
  json.Key("pinned_to_one_core").Value(w.one_core);
  json.EndObject();
  json.Key("attempted").Value(attempted);
  json.Key("failed").Value(failed);
  json.Key("correct").Value(failed == 0 && checks.all_ok() && failure.ok());
  json.Key("checks").BeginArray();
  for (const Check& c : checks.all()) {
    json.BeginObject();
    json.Key("name").Value(c.name);
    json.Key("ok").Value(c.ok);
    json.Key("detail").Value(c.detail);
    json.EndObject();
  }
  json.EndArray();
  json.Key("end_to_end");
  e2e.Write(&json);
  json.Key("report");
  report.Write(&json);
  json.Key("per_layer");
  layers.Write(&json);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace dcv

int main(int argc, char** argv) { return dcv::Main(argc, argv); }
