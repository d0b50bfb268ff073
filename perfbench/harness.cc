// perfbench_harness — one benchmark run of one workload on one trace seed.
//
//   perfbench_harness --workload=paper-406 --trace-seed=8 --traced=0
//                     --artifacts=DIR [--profile-inside=1]
//
// The run goes through the library's public entry points only, the way
// rubick_simulate does: the trace is generated, written as CSV and read
// back (as --trace-in would), the fault plan is generated, the models are
// profiled, and Simulator::run replays the trace under a factory-made
// policy. Every layer is timed from outside, around its public call:
//
//   setup   TraceGenerator::generate (+ CSV write), read_trace_csv_file,
//           FaultPlan::generate, PerfModelStore::profile_models
//   run     Simulator::run, split by a forwarding SchedulerPolicy decorator
//           (schedule() latency per round) and, when traced, a forwarding
//           SimObserver decorator per observer; then each observer's
//           write_* call
//
// Set-up, the run and every schedule() call are timed in wall time and in
// process CPU time. A SpeedProbe runs a fixed slice of work before and after
// set-up and before every schedule() call, so that run.py can divide out how
// fast the shared host happened to be; its time is taken out of the run's.
//
// `--traced=1` additionally switches the metrics registry and span
// recorder on and reads the counters the program already exports. The
// result is one JSON object on stdout; perfbench/run.py aggregates runs.
// `--profile-inside=1` leaves profiling to Simulator::run (self-test: the
// outside profile must not change a decision).
#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/policy_factory.h"
#include "check/invariant_auditor.h"
#include "cluster/cluster.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/jsonx.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "core/audit.h"
#include "core/rubick_policy.h"
#include "failure/fault_plan.h"
#include "perf/oracle.h"
#include "perf/perf_store.h"
#include "plan/plan_cache.h"
#include "provenance/provenance.h"
#include "sim/provenance_observer.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "sim/telemetry_observer.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "trace/trace_gen.h"
#include "trace/trace_io.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace rubick;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU seconds consumed so far by every thread of this process. Unlike wall
// time it does not count time the host took the CPU away (steal).
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// A fixed slice of host work that shares no code with the library: random
// read-modify-writes over a 64 KiB table, branches and floating-point math.
// The mean CPU time of a slice tells how fast the host ran while the
// program did, so a figure divided by it no longer moves with the load that
// other tenants put on the machine. The probe keeps its own CPU and wall
// totals so that callers can take them out of their own timings.
class SpeedProbe {
 public:
  SpeedProbe() : table_(kTableWords) {
    for (std::uint64_t& w : table_) w = next();
  }

  void sample(int slices = 1) {
    const double cpu0_s = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    for (int n = 0; n < slices; ++n) {
      double acc = 0.0;
      for (int i = 0; i < kSteps; ++i) {
        const std::uint64_t r = next();
        std::uint64_t& w = table_[r % kTableWords];
        w = (w ^ r) * 0x9e3779b97f4a7c15ull;
        if ((w >> 61) == 0)
          acc += std::sqrt(static_cast<double>(w >> 40));
        else
          acc -= std::log1p(static_cast<double>(w >> 44));
      }
      sink_ += acc;
    }
    wall_s_ += seconds_since(t0);
    cpu_s_ += process_cpu_s() - cpu0_s;
    slices_ += slices;
  }

  double cpu_s() const { return cpu_s_; }
  double wall_s() const { return wall_s_; }
  // Mean CPU microseconds of one slice.
  double slice_us() const { return slices_ > 0 ? 1e6 * cpu_s_ / slices_ : 0.0; }
  // Folds the results in, so that the compiler cannot drop the work.
  double sink() const { return sink_; }

 private:
  static constexpr std::size_t kTableWords = 8192;
  static constexpr int kSteps = 1500;

  std::uint64_t next() {  // splitmix64
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::vector<std::uint64_t> table_;
  std::uint64_t state_ = 1;
  double cpu_s_ = 0.0;
  double wall_s_ = 0.0;
  double sink_ = 0.0;
  long slices_ = 0;
};

// Probe slices run on each side of set-up; set-up is short, so the host's
// speed on either side is its speed during set-up.
constexpr int kSetupProbeSlices = 200;

struct Workload {
  const char* name;
  const char* policy;
  int jobs;
  double window_h;
  bool chaos;  // seeded fault plan, every observer attached and written
};

constexpr Workload kWorkloads[] = {
    {"paper-406", "rubick", 406, 12.0, false},
    {"stress-2000", "rubick", 2000, 48.0, false},
    {"sia-406", "sia", 406, 12.0, false},
    {"chaos-observed-406", "rubick", 406, 12.0, true},
};

// Forwards every call to the wrapped policy and records its wall latency
// and the process CPU time it used (curve-pool workers included). Before
// each call, outside the timed window, it runs one probe slice; rounds come
// evenly through the run, so the probe samples the whole of it.
class TimedPolicy final : public SchedulerPolicy {
 public:
  TimedPolicy(SchedulerPolicy& inner, SpeedProbe& probe)
      : inner_(inner), probe_(probe) {}
  std::string name() const override { return inner_.name(); }
  std::vector<Assignment> schedule(const SchedulerInput& input) override {
    probe_.sample();
    const double cpu0_s = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    std::vector<Assignment> out = inner_.schedule(input);
    latencies_s_.push_back(seconds_since(t0));
    cpu_s_.push_back(process_cpu_s() - cpu0_s);
    return out;
  }
  const std::vector<double>& latencies_s() const { return latencies_s_; }
  const std::vector<double>& cpu_s() const { return cpu_s_; }

 private:
  SchedulerPolicy& inner_;
  SpeedProbe& probe_;
  std::vector<double> latencies_s_;
  std::vector<double> cpu_s_;
};

// Forwards every callback to the wrapped observer and sums its wall time.
class TimedObserver final : public SimObserver {
 public:
  explicit TimedObserver(SimObserver& inner) : inner_(inner) {}
  void on_run_begin(const SimRunInfo& info) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_run_begin(info);
    busy_s_ += seconds_since(t0);
  }
  void on_tick(const SimTick& tick) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_tick(tick);
    busy_s_ += seconds_since(t0);
  }
  void on_run_end(const SimTick& tick) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_run_end(tick);
    busy_s_ += seconds_since(t0);
  }
  void on_fault(const SimFaultNotice& notice) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_fault(notice);
    busy_s_ += seconds_since(t0);
  }
  double busy_s() const { return busy_s_; }

 private:
  SimObserver& inner_;
  double busy_s_ = 0.0;
};

// FNV-1a over every decision-visible field of a SimResult. Equal digests
// mean the runs scheduled identically.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::string result_digest(const SimResult& r) {
  Digest d;
  d.add(r.makespan_s);
  d.add(r.scheduling_rounds);
  d.add(r.online_refits);
  d.add(r.reconfig_overhead_gpu_seconds);
  d.add(r.fault_node_crashes);
  d.add(r.fault_gpu_transients);
  d.add(r.fault_straggler_episodes);
  d.add(r.fault_reconfig_failures);
  d.add(r.crash_restarts);
  d.add(r.degraded_jobs);
  for (const JobResult& j : r.jobs) {
    d.add(j.spec.id);
    d.add(j.finished);
    d.add(j.first_start_s);
    d.add(j.finish_s);
    d.add(j.jct_s);
    d.add(j.reconfig_count);
    d.add(j.crash_restarts);
    d.add(j.reconfig_failures);
    d.add(j.degraded);
    for (const AssignmentRecord& a : j.history) {
      d.add(a.since_s);
      d.add(a.gpus);
      d.add(a.cpus);
      d.add(a.throughput);
      d.add(a.plan.dp);
      d.add(a.plan.tp);
      d.add(a.plan.pp);
      d.add(a.plan.ga_steps);
      d.add(a.plan.micro_batches);
      d.add(a.plan.grad_ckpt);
      d.add(static_cast<int>(a.plan.zero));
    }
  }
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(d.value()));
  return buf;
}

// Sum of the durations of the scheduler's wall-clock spans named `name`.
double span_total_s(const std::vector<TraceEvent>& events, const char* name) {
  double us = 0.0;
  for (const TraceEvent& e : events)
    if (e.ph == 'X' && e.pid == kTraceSchedulerPid && e.name == name)
      us += e.dur_us;
  return us * 1e-6;
}

// Peak resident set of this process image. VmHWM restarts at exec, unlike
// getrusage's ru_maxrss, which keeps the forking parent's peak.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

std::uintmax_t file_bytes(const std::string& path) {
  return std::filesystem::file_size(path);
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(xs[i]);
  }
  out += ']';
  return out;
}

// Writes `fn(os)` to `path` and returns the wall time of the write.
template <typename Fn>
double timed_write(const std::string& path, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  {
    std::ofstream os(path);
    RUBICK_CHECK_MSG(os.good(), "cannot open " << path);
    fn(os);
  }
  return seconds_since(t0);
}

class JsonObject {
 public:
  void num(const std::string& key, double v) { field(key, json_number(v)); }
  void str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    quoted += json_escape(v);
    quoted += '"';
    field(key, quoted);
  }
  void raw(const std::string& key, const std::string& json) { field(key, json); }
  std::string done() const {
    std::string s = "{";
    s += body_;
    s += '}';
    return s;
  }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += json_escape(key);
    body_ += "\":";
    body_ += value;
  }
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench_harness: refusing a build with RUBICK_DCHECK "
               "compiled in (NDEBUG unset); configure a Release build\n";
  return 2;
#endif
  CliFlags flags(argc, argv);
  const std::string workload_name = flags.get_string("workload", "");
  const std::uint64_t trace_seed = flags.get_u64("trace-seed", 1);
  const bool traced = flags.get_bool("traced", false);
  const std::string artifacts = flags.get_string("artifacts", ".");
  const bool profile_inside = flags.get_bool("profile-inside", false);
  flags.finish();

  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload_name == w.name) wl = &w;
  RUBICK_CHECK_MSG(wl != nullptr, "unknown --workload '" << workload_name
                                                         << "'");
  std::filesystem::create_directories(artifacts);

  // Chaos runs write the telemetry and decision log as part of the
  // workload; traced runs turn the same instrumentation on for the ledger.
  if (wl->chaos || traced) {
    set_telemetry_enabled(true);
    TraceRecorder::global().set_enabled(true);
  }

  const ClusterSpec cluster;
  const GroundTruthOracle oracle(2025);
  const TraceGenerator gen(cluster, oracle);
  const PolicyFactory& factory = PolicyFactory::global();
  const bool rubick_family = PolicyFactory::rubick_family(wl->policy);

  // ---------------- Setup ----------------
  SpeedProbe setup_probe;
  setup_probe.sample(kSetupProbeSlices);
  const Clock::time_point setup_t0 = Clock::now();
  const double setup_cpu0_s = process_cpu_s();
  TraceOptions topts;
  topts.seed = trace_seed;
  topts.num_jobs = wl->jobs;
  topts.window_s = hours(wl->window_h);
  const std::string trace_csv = artifacts + "/trace.csv";
  Clock::time_point t0 = Clock::now();
  write_trace_csv_file(trace_csv, gen.generate(topts));
  const double generate_s = seconds_since(t0);

  t0 = Clock::now();
  const std::vector<JobSpec> jobs = read_trace_csv_file(trace_csv);
  const double load_s = seconds_since(t0);

  FaultPlanOptions fault_opts;
  fault_opts.reconfig_failure_prob = 0.1;
  FaultPlan fault_plan;
  double plan_s = 0.0;
  if (wl->chaos) {
    t0 = Clock::now();
    fault_plan = FaultPlan::generate(trace_seed, fault_opts, cluster);
    plan_s = seconds_since(t0);
  }

  PerfModelStore store;
  std::map<std::string, double> profiling_cost_s;
  double profile_s = 0.0;
  if (!profile_inside) {
    std::vector<std::string> names;
    names.reserve(jobs.size());
    for (const JobSpec& j : jobs) names.push_back(j.model_name);
    t0 = Clock::now();
    store = PerfModelStore::profile_models(oracle, cluster, names,
                                           /*global_batch_hint=*/0,
                                           &profiling_cost_s);
    profile_s = seconds_since(t0);
  }
  const double setup_s = seconds_since(setup_t0);
  const double setup_cpu_s = process_cpu_s() - setup_cpu0_s;
  setup_probe.sample(kSetupProbeSlices);
  SpeedProbe run_probe;

  // ---------------- Run ----------------
  const Clock::time_point run_t0 = Clock::now();
  const double run_cpu0_s = process_cpu_s();
  SimulationOptions sim_options;
  const Simulator sim(cluster, oracle, sim_options.sim);
  PolicyParams params;
  params.gate_threshold = 0.97;
  params.opportunistic_admission = true;
  std::unique_ptr<SchedulerPolicy> policy = factory.create(wl->policy, params);
  TimedPolicy timed_policy(*policy, run_probe);

  AuditConfig audit_config;
  audit_config.on_violation = ViolationPolicy::kCount;
  audit_config.check_guarantee = rubick_family;
  audit_config.check_curves = rubick_family;
  InvariantAuditor auditor(audit_config);
  TelemetryObserver telemetry;
  ProvenanceRecorder recorder;
  ProvenanceObserver provenance(&recorder, policy->name(),
                                &TraceRecorder::global());
  TimedObserver timed_auditor(auditor);
  TimedObserver timed_telemetry(telemetry);
  TimedObserver timed_provenance(provenance);
  SimObserverList observers;
  if (wl->chaos) {
    observers.add(traced ? static_cast<SimObserver*>(&timed_auditor)
                         : &auditor);
    observers.add(traced ? static_cast<SimObserver*>(&timed_telemetry)
                         : &telemetry);
    observers.add(traced ? static_cast<SimObserver*>(&timed_provenance)
                         : &provenance);
    policy->set_provenance(&recorder);
  }

  RunContext ctx;
  ctx.options = &sim_options;
  if (!profile_inside) {
    ctx.store = &store;
    ctx.profiling_cost_s = &profiling_cost_s;
  }
  if (!fault_plan.empty()) ctx.fault_plan = &fault_plan;
  if (!observers.empty()) ctx.observer = &observers;

  t0 = Clock::now();
  const SimResult result = sim.run(jobs, timed_policy, ctx);
  const double sim_run_s = seconds_since(t0) - run_probe.wall_s();

  double telemetry_write_s = 0.0, provenance_write_s = 0.0;
  const std::string trace_json = artifacts + "/trace.json";
  const std::string metrics_json = artifacts + "/metrics.json";
  const std::string events_jsonl = artifacts + "/events.jsonl";
  const std::string decisions_jsonl = artifacts + "/decisions.jsonl";
  if (wl->chaos) {
    telemetry_write_s += timed_write(trace_json, [](std::ostream& os) {
      TraceRecorder::global().write_chrome_trace(os);
    });
    telemetry_write_s += timed_write(metrics_json, [](std::ostream& os) {
      MetricsRegistry::global().write_json(os);
    });
    telemetry_write_s += timed_write(events_jsonl, [&](std::ostream& os) {
      telemetry.write_events_jsonl(os);
    });
    provenance_write_s = timed_write(decisions_jsonl, [&](std::ostream& os) {
      provenance.write_jsonl(os);
    });
  }
  const double run_s = seconds_since(run_t0) - run_probe.wall_s();
  const double run_cpu_s = process_cpu_s() - run_cpu0_s - run_probe.cpu_s();

  // ---------------- Report ----------------
  int finished_ok = 0;
  for (const JobResult& j : result.jobs)
    if (j.finished && std::isfinite(j.jct_s)) ++finished_ok;
  const Summary jct = result.jct_summary();
  std::ostringstream summary;
  print_summary(summary, policy->name(), result);

  JsonObject out;
  out.str("workload", wl->name);
  out.str("policy", wl->policy);
  out.num("window_h", wl->window_h);
  out.num("trace_seed", static_cast<double>(trace_seed));
  out.str("digest", result_digest(result));
  out.str("summary", summary.str());
  out.num("jobs_submitted", static_cast<double>(jobs.size()));
  out.num("jobs_failed", static_cast<double>(jobs.size()) - finished_ok);
  out.num("avg_jct_h", to_hours(jct.mean));
  out.num("p99_jct_h", to_hours(jct.p99));
  out.num("makespan_h", to_hours(result.makespan_s));
  out.num("setup_s", setup_s);
  out.num("setup_cpu_s", setup_cpu_s);
  out.num("run_s", run_s);
  out.num("run_cpu_s", run_cpu_s);
  out.num("setup_probe_us", setup_probe.slice_us());
  out.num("run_probe_us", run_probe.slice_us());
  out.num("probe_sink", setup_probe.sink() + run_probe.sink());
  out.num("peak_rss_mb", peak_rss_kb() / 1024.0);
  out.raw("schedule_latencies_s", json_array(timed_policy.latencies_s()));
  out.raw("schedule_cpu_s", json_array(timed_policy.cpu_s()));
  if (wl->chaos) {
    out.num("audit_violations", auditor.report().total_violations);
    out.num("decision_log_bytes",
            static_cast<double>(file_bytes(decisions_jsonl)));
    out.str("trace_json", trace_json);
    out.str("metrics_json", metrics_json);
    out.str("events_jsonl", events_jsonl);
    out.str("decisions_jsonl", decisions_jsonl);
  }

  // The outside-in ledger. Times are wall seconds of this run.
  JsonObject layers;
  double schedule_s = 0.0;
  for (const double s : timed_policy.latencies_s()) schedule_s += s;
  const double observer_s = timed_auditor.busy_s() + timed_telemetry.busy_s() +
                            timed_provenance.busy_s();
  layers.num("trace.generate_s", generate_s);
  layers.num("trace.load_s", load_s);
  layers.num("failure.plan_s", plan_s);
  layers.num("perf.profile_s", profile_s);
  layers.num("perf.models_profiled",
             static_cast<double>(profiling_cost_s.size()));
  layers.num("sim.run_s", sim_run_s);
  layers.num(rubick_family ? "core.schedule_s" : "baselines.schedule_s",
             schedule_s);
  layers.num(rubick_family ? "baselines.schedule_s" : "core.schedule_s", 0.0);
  layers.num("sim.loop_self_s", sim_run_s - schedule_s - observer_s);
  layers.num("check.observer_s", timed_auditor.busy_s());
  layers.num("telemetry.observer_s", timed_telemetry.busy_s());
  layers.num("provenance.observer_s", timed_provenance.busy_s());
  layers.num("telemetry.write_s", telemetry_write_s);
  layers.num("provenance.write_s", provenance_write_s);
  layers.num("core.rounds", result.scheduling_rounds);
  layers.num("perf.refits", result.online_refits);
  if (traced) {
    const std::vector<TraceEvent> events = TraceRecorder::global().snapshot();
    layers.num("core.curves_s", span_total_s(events, "phase:curves"));
    layers.num("core.decide_s", span_total_s(events, "phase:decide"));
    layers.num("core.bind_s", span_total_s(events, "phase:bind"));

    CacheStats cs;
    if (const auto* rp = dynamic_cast<const RubickPolicy*>(policy.get()))
      cs = rp->cache_stats();
    layers.num("predictor.cache_hits", static_cast<double>(cs.hits));
    layers.num("predictor.cache_misses", static_cast<double>(cs.misses));
    const PlanCacheStats ps = PlanSetCache::global().stats();
    layers.num("plan_cache.hits", static_cast<double>(ps.hits));
    layers.num("plan_cache.misses", static_cast<double>(ps.misses));
    layers.num("plan_cache.enumerations", static_cast<double>(ps.enumerations));
    const ThreadPoolStats pool = ThreadPool::global().stats();
    layers.num("pool.tasks", static_cast<double>(pool.tasks_executed));
    layers.num("pool.parallel_for_calls",
               static_cast<double>(pool.parallel_for_calls));
    layers.num("pool.busy_s", pool.busy_s);

    const MetricsRegistry& reg = MetricsRegistry::global();
    for (const char* name :
         {"predictor.curve_evals_saved", "scheduler.slope_evals",
          "scheduler.slope_evals_saved", "scheduler.victim_heap_pops",
          "scheduler.victim_stale_entries", "scheduler.fast_path_rounds",
          "scheduler.gpu_shrinks", "scheduler.preemptions",
          "scheduler.opportunistic_admissions", "scheduler.retries",
          "sim.ticks", "sim.heap_pops", "sim.stale_events",
          "sim.index_updates", "oracle.measurements", "failures.node_crash",
          "failures.gpu_transient", "failures.straggler", "failures.reconfig"})
      layers.num(name, static_cast<double>(reg.counter_value(name)));
    layers.num("scheduler.degraded_jobs",
               reg.gauge_value("scheduler.degraded_jobs"));
    layers.num("audit.checks_performed",
               wl->chaos ? auditor.report().checks_performed : 0);
  }
  out.raw("layers", layers.done());

  JsonObject env;
  env.str("build_type", PERFBENCH_BUILD_TYPE);
  env.str("compiler", PERFBENCH_COMPILER);
  env.num("pool_threads", ThreadPool::global().size());
  out.raw("env", env.done());

  std::cout << out.done() << "\n";
  return 0;
}
