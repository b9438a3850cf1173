#!/usr/bin/env python3
"""Builds the benchmark from source and runs its workloads.

Run from the repository root:

  python3 perfbench/run.py --workload agent_durable --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py                   # every workload, untraced then traced

With --workload, the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The line
before it is the full report: every metric with its sample count, the output
checks, the exact counts and the provenance of the result.

Each workload runs in its own process (perfbench_workload), built with CMake
under $CARGO_TARGET_DIR (default .bench_build) in the repository. The exit
status is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["linnos_drift", "agent_churn", "agent_durable", "callout_storm"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures once, then brings perfbench_workload up to date."""
    build_dir = build_root() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_workload",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail(f"build failed: {' '.join(step)} (log: {log_path})", 3)
    return build_dir / "perfbench_workload"


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "specs", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(build_info):
    commit = None  # a checkout that is not a git repository has none
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": source_digest(), **build_info,
            "nproc": os.cpu_count(), "cpu_model": cpu_model}


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its parsed report."""
    state_dir = build_root() / "perfbench-state" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--specs", str(ROOT / "specs"), "--state-dir", str(state_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} exited with {proc.returncode} and printed no result")
    report = json.loads(lines[-1])
    if proc.returncode not in (0, 1) or report["correct"] != (proc.returncode == 0):
        fail(f"{workload} exited with {proc.returncode}")
    return report


def contract_line(report, wanted):
    """The result line: exactly the metrics BENCHMARK.json names."""
    metrics = {}
    correct = report["correct"]
    for spec in wanted:
        metric = report["metrics"].get(spec["name"])
        if metric is None or metric["unit"] != spec["unit"] or metric["value"] is None \
                or not math.isfinite(metric["value"]):
            print(f"perfbench: metric {spec['name']} missing or malformed: {metric}",
                  file=sys.stderr)
            correct = False
            continue
        metrics[spec["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_table(report):
    print(f"{report['workload']} (seed {report['seed']}, trace {report['trace']}): "
          f"{'correct' if report['correct'] else 'INCORRECT'}, "
          f"{report['attempted']} events, {report['failed']} failed, {report['reps']} reps")
    for check in report["checks"]:
        if not check["ok"]:
            print(f"  FAILED CHECK {check['name']}: {check['detail']}")
    for name, metric in sorted(report["metrics"].items()):
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']:8s} "
              f"n={metric['samples']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="default",
                        help="workload seed, or 'default' / 'holdout' from seeds.json")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    seeds = json.loads((BENCH_DIR / "seeds.json").read_text())
    seed = seeds.get(args.seed, args.seed)
    if not str(seed).isdigit():
        fail(f"--seed must be a non-negative integer, 'default' or 'holdout': {args.seed}", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    binary = build()
    if args.workload is None:
        all_correct = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                report = run_workload(binary, workload, seed, args.seconds, trace)
                print_table(report)
                all_correct = all_correct and report["correct"]
        sys.exit(0 if all_correct else 1)

    report = run_workload(binary, args.workload, seed, args.seconds, args.trace)
    report["provenance"] = provenance(report.pop("build"))
    print(json.dumps(report))
    result = contract_line(report, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
