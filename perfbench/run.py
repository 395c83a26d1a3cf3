#!/usr/bin/env python3
"""Serving benchmark for the MeLoPPR stack.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (its own cargo workspace, depending on this
repository's crates by path), then runs the workload in a fresh process:
`PprServer` in process on loopback, an open-loop phase at the workload's
fixed rate, a closed-loop throughput phase, and a check of every answer.
The workload process computes and names every metric itself
(`perfbench/src/main.rs`); this script builds, runs, and combines what
needs two processes.

With `--trace 0` the last stdout line carries the end-to-end metrics of that
untraced run; `p90_ms` is printed on the lines before it but not gated.
With `--trace 1` the workload runs twice with the same seed, untraced
and then with every backend behind the timing decorator; the
traced run must route and execute exactly like the untraced one, and its
per-layer metrics are printed, with `trace.overhead_pct` (traced over
untraced `p50_ms`) and the offline index build's `ballindex.build_s` and
`ballindex.file_mib`. The last line is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Omitting `--workload` runs every workload in turn, each in its own process.
The exit code is non-zero when the build fails or any check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot_warm", "cold_tiered", "routed_mix"]
# Wall-clock budget of one workload, its traced rerun included, after the
# build: a run must end within 180 s.
WORKLOAD_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def data_dir():
    path = os.path.join(target_dir(), "perfbench-data")
    os.makedirs(path, exist_ok=True)
    return path


def last_json(text):
    lines = [line for line in text.strip().splitlines() if line.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def ensure_index(binary):
    """Builds the offline cold-tier index once per checkout (outside every
    workload process), and reads it through so the workload's cold reads
    come from the page cache. Returns (path, build metrics)."""
    path = os.path.join(data_dir(), "g4-0.05-depth3.ballindex")
    report_path = path + ".json"
    if not (os.path.exists(path) and os.path.exists(report_path)):
        out = subprocess.run([binary, "build-index", "--out", path], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_BUDGET_S)
        report = last_json(out.stdout) if out.returncode == 0 else None
        if report is None:
            raise RuntimeError("building the ball index failed")
        with open(report_path, "w") as f:
            json.dump(report, f)
    with open(path, "rb") as f:
        while f.read(1 << 20):
            pass
    with open(report_path) as f:
        return path, json.load(f)


def run_workload(binary, workload, seed, seconds, traced, index_path, deadline):
    """Runs one workload process, killed at `deadline` (monotonic seconds);
    returns (exit code, its result object)."""
    cmd = [binary, "serve", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--traced", "1" if traced else "0",
           "--index", index_path,
           "--truth", os.path.join(data_dir(), "truth-g4-0.05-a0.85-l6-k10.txt")]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    return out.returncode, last_json(out.stdout)


def fidelity(plain, traced):
    """Mismatches between the untraced and the traced run of one seed. The
    open-loop trace is identical, so OK answers per solver and per rung
    must be identical too, and so must the number of cache lookups. How
    lookups split into hits and misses depends on how the two workers
    interleave: a lookup may share another worker's extraction
    (singleflight), and a ball's residency may depend on which worker
    inserted or evicted first. The split may differ by the shared lookups
    of both runs plus 1 % of the lookups, and no more."""
    problems = []
    same_p, same_t = plain["same"], traced["same"]
    for key in sorted(set(same_p) | set(same_t)):
        if same_p.get(key, 0) != same_t.get(key, 0):
            problems.append("%s: untraced %s, traced %s" % (key, same_p.get(key), same_t.get(key)))
    cp, ct = plain["cache"], traced["cache"]
    lookups = lambda c: c["hits"] + c["shared"] + c["misses"]
    if lookups(cp) != lookups(ct):
        problems.append("cache lookups: untraced %d, traced %d" % (lookups(cp), lookups(ct)))
    slack = cp["shared"] + ct["shared"] + lookups(cp) // 100
    for key in ("hits", "misses", "cold_hits", "extractions"):
        if abs(cp[key] - ct[key]) > slack:
            problems.append("cache %s: untraced %d, traced %d" % (key, cp[key], ct[key]))
    return problems


def one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (correct, attempted, failed, metrics)."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    index_path, build_report = os.path.join(data_dir(), "none"), None
    if workload == "cold_tiered" or trace:
        index_path, build_report = ensure_index(binary)
    results = []
    for traced in ([False, True] if trace else [False]):
        code, result = run_workload(binary, workload, seed, seconds, traced, index_path, deadline)
        if result is None:
            raise RuntimeError("%s: the workload process exited %d without a result" % (workload, code))
        results.append((code, result))
    correct = all(code == 0 and r["correct"] for code, r in results)
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    plain = results[0][1]
    if not trace:
        metrics = plain["end_to_end"]
    else:
        traced = results[1][1]
        problems = fidelity(plain, traced)
        if problems:
            for p in problems:
                log("%s: traced run differs from the untraced run: %s" % (workload, p))
            raise RuntimeError("%s: the traced run is not the untraced program; no per-layer numbers"
                               % workload)
        p50 = lambda r: r["end_to_end"]["p50_ms"]["value"]
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_pct"] = {"value": (p50(traced) / p50(plain) - 1.0) * 100.0, "unit": "%"}
        metrics.update(build_report)
    for name, m in metrics.items():
        samples = " (n=%d)" % m["samples"] if "samples" in m else ""
        print("%-12s %-40s %14.4f %s%s" % (workload, name, m["value"], m["unit"], samples))
    if not trace:
        for name, m in plain["reported"].items():
            print("%-12s %-40s %14.4f %s (n=%d; printed, not in BENCHMARK.json)"
                  % (workload, name, m["value"], m["unit"], m["samples"]))
    return correct, attempted, failed, {k: {"value": m["value"], "unit": m["unit"]}
                                        for k, m in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 2:
        parser.error("--seconds must be at least 2")

    binary = build()
    if binary is None:
        log("perfbench: building the benchmark failed")
        return 1
    workloads = [args.workload] if args.workload else WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            ok, a, f, m = one(binary, workload, args.seed, args.seconds, args.trace == 1)
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            if len(workloads) == 1:
                metrics = m
            else:
                metrics.update({"%s.%s" % (workload, k): v for k, v in m.items()})
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, TypeError) as e:
        log("perfbench: %r" % e)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
