#!/usr/bin/env python3
"""End-to-end benchmark of the Rubick simulator, with a per-layer ledger.

    python3 perfbench/run.py --workload paper-406 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test [--seed 1]

Builds perfbench/ (the library from src/ plus the harness, Release) into
.bench_build/perfbench, then runs the named workload through the harness,
one process per trace run, round-robin over the workload's traces until
--seconds have passed and every trace has run. Each workload is a fixed
number of traces whose seeds derive from --seed, so the same seed gives the
same inputs. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (untraced runs only); --trace 1
runs every trace untraced and then traced, and reports the per-layer ledger.
The bounded times are in reference seconds: CPU seconds scaled by how fast
the harness's speed probe ran beside the program (see README.md).
Metric definitions, workloads and first numbers: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
HARNESS = BUILD / "perfbench_harness"
SIMULATE = BUILD / "rubick_simulate"

# Curve-pool size, pinned through RUBICK_THREADS (never above nproc). One
# thread: the pool runs its loops inline, so process CPU time holds no
# wake-up and hand-off costs, which swing with the host's load.
POOL_THREADS = 1
# The probe slice time (harness.cc, SpeedProbe) of the reference host. A
# figure in reference seconds is its CPU seconds times PROBE_REF_US over
# the probe slice time measured beside it in the same process.
PROBE_REF_US = 40.0
# Seeds named for reproducing numbers and for confirming later claims on
# inputs nobody tuned against.
CHECK_SEED = 1
HELD_OUT_SEED = 9001
RUN_TIMEOUT_S = 150

# Workload -> traces per run (harness.cc defines the workloads). More traces
# average out what one trace's arrival pattern does to the figures.
# stress-2000 is runnable but kept out of BENCHMARK.json (see README.md).
WORKLOADS = {
    "paper-406": 28,
    "sia-406": 24,
    "chaos-observed-406": 13,
    "stress-2000": 2,
}

# Bounded metrics. Times are in reference seconds (see PROBE_REF_US).
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ref_s": "s",
    "round_ref_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layer metrics copied from the harness (median over a trace's traced runs,
# then mean over traces), with their units.
LAYER_UNITS = {
    "trace.generate_s": "s",
    "trace.load_s": "s",
    "failure.plan_s": "s",
    "perf.profile_s": "s",
    "perf.models_profiled": "count",
    "core.schedule_s": "s",
    "baselines.schedule_s": "s",
    "core.rounds": "count",
    "core.curves_s": "s",
    "core.decide_s": "s",
    "core.bind_s": "s",
    "predictor.cache_hits": "count",
    "predictor.cache_misses": "count",
    "predictor.curve_evals_saved": "count",
    "plan_cache.hits": "count",
    "plan_cache.misses": "count",
    "plan_cache.enumerations": "count",
    "pool.tasks": "count",
    "pool.parallel_for_calls": "count",
    "pool.busy_s": "s",
    "scheduler.slope_evals": "count",
    "scheduler.slope_evals_saved": "count",
    "scheduler.victim_heap_pops": "count",
    "scheduler.victim_stale_entries": "count",
    "scheduler.fast_path_rounds": "count",
    "scheduler.gpu_shrinks": "count",
    "scheduler.preemptions": "count",
    "scheduler.opportunistic_admissions": "count",
    "sim.run_s": "s",
    "sim.loop_self_s": "s",
    "sim.ticks": "count",
    "sim.heap_pops": "count",
    "sim.stale_events": "count",
    "sim.index_updates": "count",
    "oracle.measurements": "count",
    "perf.refits": "count",
    "check.observer_s": "s",
    "telemetry.observer_s": "s",
    "provenance.observer_s": "s",
    "telemetry.write_s": "s",
    "provenance.write_s": "s",
    "audit.checks_performed": "count",
    "failures.node_crash": "count",
    "failures.gpu_transient": "count",
    "failures.straggler": "count",
    "failures.reconfig": "count",
    "scheduler.retries": "count",
    "scheduler.degraded_jobs": "count",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def pool_threads():
    return max(1, min(POOL_THREADS, os.cpu_count() or 1))


def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def child_env():
    return dict(os.environ, RUBICK_THREADS=str(pool_threads()))


def run_harness(workload, trace_seed, traced, extra=()):
    artifacts = OUT / workload
    cmd = [str(HARNESS), f"--workload={workload}", f"--trace-seed={trace_seed}",
           f"--traced={1 if traced else 0}", f"--artifacts={artifacts}",
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env(), timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"harness failed ({proc.returncode}): {' '.join(cmd)}")
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    env = run["env"]
    if env["build_type"] != "Release":
        raise BenchError(f"refusing a {env['build_type']} build; "
                         "the benchmark times Release builds only")
    if env["pool_threads"] != pool_threads():
        raise BenchError(f"pool has {env['pool_threads']} threads, "
                         f"expected {pool_threads()}")
    return run


def trace_seeds(workload, seed):
    n = WORKLOADS[workload]
    return [seed * n + k for k in range(n)]


def percentile(sorted_xs, q):
    """Nearest-rank percentile of a sorted list."""
    idx = min(len(sorted_xs) - 1, max(0, int(q * len(sorted_xs) + 0.5) - 1))
    return sorted_xs[idx]


def per_trace_mean(runs_by_trace, get):
    """Median over each trace's runs, then mean over traces."""
    return statistics.fmean(statistics.median(get(r) for r in runs)
                            for runs in runs_by_trace.values())


def validate_chaos(run):
    cmd = [sys.executable, str(ROOT / "tools" / "validate_telemetry.py"),
           f"--metrics={run['metrics_json']}", f"--trace={run['trace_json']}",
           f"--events={run['events_jsonl']}",
           f"--decisions={run['decisions_jsonl']}",
           "--min-decision-spans=1",
           f"--min-job-tracks={run['jobs_submitted']}"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stdout[-2000:] + proc.stderr[-2000:])
    return proc.returncode == 0


def source_digest():
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("src/*/*")) + [ROOT / "tools" /
                                                "rubick_simulate.cpp"]:
        if path.is_file():
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or "unknown" when ROOT is not a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def measure(workload, seed, seconds, traced_mode):
    """Runs the workload's traces round-robin until `seconds` have passed
    and every trace has run at least once.

    Returns ({trace_seed: [run, ...]} untraced, the same traced, the last
    run made). In --trace 1 mode each trace runs untraced and then traced."""
    seeds = trace_seeds(workload, seed)
    plain = {s: [] for s in seeds}
    traced = {s: [] for s in seeds}
    t0 = time.monotonic()
    i = 0
    while i < len(seeds) or time.monotonic() - t0 < seconds:
        s = seeds[i % len(seeds)]
        last = run_harness(workload, s, traced=False)
        plain[s].append(last)
        if traced_mode:
            last = run_harness(workload, s, traced=True)
            traced[s].append(last)
        i += 1
    if i == len(seeds) and not traced_mode:
        # Every trace ran once: repeat one so the digest check has a pair.
        last = run_harness(workload, seeds[0], traced=False)
        plain[seeds[0]].append(last)
    return plain, traced, last


def check_runs(plain, traced, last):
    """Output checks; returns a list of failure messages."""
    problems = []
    for s, runs in plain.items():
        digests = {r["digest"] for r in runs + traced[s]}
        if len(digests) != 1:
            problems.append(f"trace {s}: repetitions disagree: {sorted(digests)}")
        else:
            print(f"digest        trace {s}: {digests.pop()} "
                  f"({len(runs) + len(traced[s])} identical runs)")
    all_runs = [r for runs in plain.values() for r in runs]
    if "decisions_jsonl" in last:  # chaos-observed: audited and written
        violations = sum(r["audit_violations"] for r in all_runs)
        if violations:
            problems.append(f"{violations} invariant-audit violations")
        # The artifacts on disk are those of the last run made.
        if not validate_chaos(last):
            problems.append("telemetry / decision log failed "
                            "tools/validate_telemetry.py")
    for runs in traced.values():
        for r in runs:
            cov = coverage(r)
            if cov < 0.95:
                problems.append(f"trace {r['trace_seed']}: ledger covers "
                                f"{cov:.1%} of run_s (< 95%)")
    return problems


def coverage(run):
    lay = run["layers"]
    return (lay["sim.run_s"] + lay["telemetry.write_s"] +
            lay["provenance.write_s"]) / run["run_s"]


def setup_ref_s(run):
    return run["setup_cpu_s"] * PROBE_REF_US / run["setup_probe_us"]


def run_scale(run):
    return PROBE_REF_US / run["run_probe_us"]


def end_to_end(plain):
    """Returns (bounded metrics, unbounded ones with units, jobs submitted,
    jobs failed) over the untraced runs."""
    all_runs = [r for runs in plain.values() for r in runs]
    first = [runs[0] for runs in plain.values()]
    lat = sorted(x for r in all_runs for x in r["schedule_latencies_s"])
    cpu = sorted(x * run_scale(r) for r in all_runs
                 for x in r["schedule_cpu_s"])
    bounded = {
        "setup_s": statistics.median(setup_ref_s(r) for r in all_runs),
        "run_ref_s": per_trace_mean(
            plain, lambda r: r["run_cpu_s"] * run_scale(r)),
        "round_ref_p50_ms": 1e3 * percentile(cpu, 0.50),
        "peak_rss_mb": per_trace_mean(plain, lambda r: r["peak_rss_mb"]),
    }
    submitted = sum(r["jobs_submitted"] for r in all_runs)
    failed = sum(r["jobs_failed"] for r in all_runs)
    # Simulated outcomes are exact per trace seed: mean over traces.
    unbounded = {
        "run_s": (per_trace_mean(plain, lambda r: r["run_s"]), "s"),
        "run_cpu_s": (per_trace_mean(plain, lambda r: r["run_cpu_s"]), "s"),
        "host.probe_us": (statistics.median(r["run_probe_us"]
                                            for r in all_runs), "us"),
        "setup_wall_s": (statistics.median(r["setup_s"] for r in all_runs),
                         "s"),
        "round_p50_ms": (1e3 * percentile(lat, 0.50), "ms"),
        "round_p90_ms": (1e3 * percentile(lat, 0.90), "ms"),
        "round_p99_ms": (1e3 * percentile(lat, 0.99), "ms"),
        "round_p999_ms": (1e3 * percentile(lat, 0.999), "ms"),
        "round_samples": (float(len(lat)), "count"),
        "avg_jct_h": (statistics.fmean(r["avg_jct_h"] for r in first), "h"),
        "p99_jct_h": (statistics.fmean(r["p99_jct_h"] for r in first), "h"),
        "makespan_h": (statistics.fmean(r["makespan_h"] for r in first), "h"),
        "failed_frac": (failed / submitted, "fraction"),
        "audit_violations": (float(sum(r.get("audit_violations", 0)
                                       for r in all_runs)), "count"),
        "decision_log_mb": (statistics.fmean(r.get("decision_log_bytes", 0)
                                             for r in first) / 1e6, "MB"),
    }
    return bounded, unbounded, submitted, failed


def ledger(plain, traced):
    lay = {name: (per_trace_mean(traced, lambda r, n=name: r["layers"][n]),
                  unit) for name, unit in LAYER_UNITS.items()}

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    v = {k: x for k, (x, _) in lay.items()}
    lay["predictor.hit_rate"] = (ratio(
        v["predictor.cache_hits"],
        v["predictor.cache_hits"] + v["predictor.cache_misses"]), "ratio")
    lay["plan_cache.hit_rate"] = (ratio(
        v["plan_cache.hits"], v["plan_cache.hits"] + v["plan_cache.misses"]),
        "ratio")
    lay["scheduler.slope_saved_ratio"] = (ratio(
        v["scheduler.slope_evals_saved"],
        v["scheduler.slope_evals"] + v["scheduler.slope_evals_saved"]), "ratio")
    lay["scheduler.victim_stale_ratio"] = (ratio(
        v["scheduler.victim_stale_entries"], v["scheduler.victim_heap_pops"]),
        "ratio")
    lay["sim.host_us_per_tick"] = (1e6 * ratio(v["sim.loop_self_s"],
                                               v["sim.ticks"]), "us")
    lay["pool.threads"] = (float(pool_threads()), "count")
    lay["trace_overhead"] = (
        per_trace_mean(traced, lambda r: r["run_s"]) /
        per_trace_mean(plain, lambda r: r["run_s"]), "ratio")
    lay["ledger.coverage"] = (statistics.fmean(
        coverage(r) for runs in traced.values() for r in runs), "ratio")
    return lay


def print_env(workload, seed, runs, traced_mode, compiler):
    print(f"perfbench     workload={workload} seed={seed} runs={runs} "
          f"traces={WORKLOADS[workload]} "
          f"trace={1 if traced_mode else 0}")
    print(f"environment   build=Release pool_threads={pool_threads()} "
          f"nproc={os.cpu_count()} compiler={compiler!r} "
          f"commit={commit()} source={source_digest()}")
    print(f"seeds         check={CHECK_SEED} held-out={HELD_OUT_SEED}")


def bench(args):
    workload = args.workload
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"try {', '.join(WORKLOADS)}")
    build()
    traced_mode = args.trace == 1
    plain, traced, last = measure(workload, args.seed, args.seconds,
                                  traced_mode)
    runs = sum(len(r) for r in plain.values()) + sum(
        len(r) for r in traced.values())
    print_env(workload, args.seed, runs, traced_mode, last["env"]["compiler"])
    problems = check_runs(plain, traced, last)

    bounded, unbounded, submitted, failed = end_to_end(plain)
    if failed:
        problems.append(f"{failed} of {submitted} jobs not finished")
    print("end-to-end (untraced runs; lower is better):")
    for name, value in bounded.items():
        print(f"  {name:<18} {value:.6g} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in unbounded.items():
        print(f"  {name:<18} {value:.6g} {unit}")

    if traced_mode:
        lay = ledger(plain, traced)
        lay.update(unbounded)
        print("per-layer ledger (traced runs):")
        for name, (value, unit) in lay.items():
            print(f"  {name:<36} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in lay.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in bounded.items()}
    for p in problems:
        print(f"CHECK FAILED  {p}")
    print(json.dumps({"correct": not problems, "attempted": submitted,
                      "failed": failed, "metrics": metrics}), flush=True)


SUMMARY_KEYS = ("jobs", "avg JCT", "P99 JCT", "makespan", "reconfigs",
                "sched rounds")


def summary_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith(SUMMARY_KEYS)]


def self_test(args):
    """Three checks of the harness itself; exits non-zero on any failure."""
    build()
    ok = True

    def report(passed, what):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {what}")

    seed = args.seed
    # 1. The harness's outcomes equal rubick_simulate's for the same flags.
    for workload, flags in (
            ("paper-406", []),
            ("chaos-observed-406",
             [f"--fault-seed={seed}", "--reconfig-failure-prob=0.1",
              "--audit=true"] + [f"--{k}-out={OUT / 'selftest' / k}"
                                 for k in ("metrics", "trace", "events",
                                           "decisions")])):
        (OUT / "selftest").mkdir(parents=True, exist_ok=True)
        run = run_harness(workload, seed, False)
        cmd = [str(SIMULATE), f"--policy={run['policy']}",
               f"--jobs={run['jobs_submitted']}",
               f"--window-hours={run['window_h']}", f"--seed={seed}", *flags]
        cli = subprocess.run(cmd, capture_output=True, text=True,
                             env=child_env(), timeout=RUN_TIMEOUT_S)
        mine = summary_lines(run["summary"])
        theirs = summary_lines(cli.stdout)
        report(cli.returncode == 0 and mine == theirs,
               f"{workload}: harness outcome == rubick_simulate "
               f"({'; '.join(' '.join(x.split()) for x in mine)})")
    # 2. Profiling outside Simulator::run changes no decision.
    for workload in ("paper-406", "sia-406", "chaos-observed-406"):
        outside = run_harness(workload, seed, False)["digest"]
        inside = run_harness(workload, seed, False,
                             ["--profile-inside=1"])["digest"]
        report(outside == inside,
               f"{workload}: profile outside == inside ({outside})")
    # 3. The outside-in layers cover >= 95 % of run_s on every workload.
    for workload in WORKLOADS:
        cov = coverage(run_harness(workload, seed, True))
        report(cov >= 0.95, f"{workload}: ledger covers {cov:.2%} of run_s")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=CHECK_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test(args)
        if not args.workload:
            ap.error("--workload is required")
        bench(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as exc:
        log(f"perfbench: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
