#!/usr/bin/env python3
"""Repository benchmark: builds dcvbench from source and runs one workload.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload alarm_storm --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1     # every workload, both modes
  python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench. Every run prints the metrics by name with their
units, the environment and the correctness checks, writes the full result
document under .bench_build/results/, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

carrying the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). A failed correctness check still prints the
line, with "correct": false, and exits 1. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
BINARY = BUILD_DIR / "dcvbench"
WORKLOADS = ["alarm_storm", "quiet_sweep", "socket_burst", "plan_replay"]
# Seed for re-checking a claim on inputs it was not tuned on; the workloads
# were sized and the bounds set on seeds 1-10.
RECHECK_SEED = 1009
# A run may overrun --seconds by its input generation, warm-up and last unit.
RUN_MARGIN_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/ next to perfbench/: run from the root of a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build step failed: {' '.join(cmd)} (see {log_path})")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload, seed, seconds, trace, small=False):
    """Runs dcvbench once and returns its result document."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    scratch = ROOT / ".bench_build" / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-small' if small else ''}"
    spans = RESULTS_DIR / f"{tag}.spans.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--small", str(int(small)), "--scratch", str(scratch)]
    if trace:
        cmd += ["--spans", str(spans)]
    timeout = seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:g} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"dcvbench exited with {proc.returncode}")
    doc = json.loads(proc.stdout)
    doc["env"].update({
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "recheck_seed": RECHECK_SEED,
        "seconds": seconds,
    })
    if trace:
        doc["spans_file"] = str(spans.relative_to(ROOT))
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def select_metrics(doc, entries, section):
    """The metrics BENCHMARK.json lists, checked against what was measured."""
    out = {}
    for entry in entries:
        got = doc[section].get(entry["name"])
        if got is None:
            fail(f"metric {entry['name']} missing from the {section} section")
        if got["unit"] != entry["unit"] or not math.isfinite(got["value"]):
            fail(f"metric {entry['name']} is {got}, expected a finite value "
                 f"in {entry['unit']}")
        out[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def print_report(doc):
    env = doc["env"]
    print(f"# {doc['workload']} seed={env['seed']} "
          f"(re-check seed {env['recheck_seed']}) units={doc['units']} "
          f"traced_units={doc['traced_units']}")
    print("env: " + json.dumps(env, sort_keys=True))
    for section in ("end_to_end", "report", "per_layer"):
        for name, m in doc[section].items():
            print(f"{section}: {name}: {m['value']:.6g} {m['unit']}")
    for check in doc["checks"]:
        status = "ok" if check["ok"] else "FAILED: " + check["detail"]
        print(f"check: {check['name']}: {status}")
    if "spans_file" in doc:
        print(f"spans: {doc['spans_file']}")


def selftest(spec):
    """Runs every workload briefly at small size, traced and untraced."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            doc = run_workload(workload, 1, 0.5, trace, small=True)
            section = "per_layer" if trace else "end_to_end"
            for entry in spec[section]:
                got = doc[section].get(entry["name"])
                if (got is None or got["unit"] != entry["unit"]
                        or not math.isfinite(got["value"])):
                    problems.append(f"{workload}: {entry['name']} = {got}")
            if not doc["correct"]:
                problems.append(f"{workload}: correctness checks failed")
            # Poll and lag figures only where the workload has poll rounds.
            rounds = doc["report"]["coordinator.poll_rounds"]["value"]
            has_poll = "poll_ms_p50" in doc["report"]
            free = doc["env"]["mode"] == "free-running"
            if has_poll != (free and rounds > 0):
                problems.append(f"{workload}: poll figures present={has_poll} "
                                f"with {rounds} rounds")
            if ("lag_epochs_p90" in doc["report"]) != has_poll:
                problems.append(f"{workload}: lag reported without poll rounds")
            for name, m in doc["report"].items():
                if not math.isfinite(m["value"]) or not m["unit"]:
                    problems.append(f"{workload}: report {name} = {m}")
            print(f"selftest: {workload} trace={trace} units={doc['units']} "
                  f"correct={doc['correct']}")
    for p in problems:
        print(f"selftest: FAILED {p}")
    print("selftest: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def run_and_report(spec, workload, seed, seconds, trace):
    """One workload run: the report, then its result line. True if correct."""
    doc = run_workload(workload, seed, seconds, trace)
    print_report(doc)
    section = "per_layer" if trace else "end_to_end"
    result = {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": select_metrics(doc, spec[section], section),
    }
    print(json.dumps(result))
    return result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    build()
    if args.selftest:
        return selftest(spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload != "all":
        ok = run_and_report(spec, args.workload, args.seed, seconds, args.trace)
        return 0 if ok else 1
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            ok &= run_and_report(spec, workload, args.seed, seconds, trace)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
