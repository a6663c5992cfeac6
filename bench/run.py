"""splitavg benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload sim_linear --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in fresh single-threaded
processes (``worker.py``) started one after another, with BLAS threads fixed
to 1 through their environment.  ``--trace 0`` spreads ``--seconds`` of timed
rounds over up to MAX_PROCESSES processes and prints the end-to-end metrics;
``--trace 1`` runs the same ops once untraced and once traced, checks that
their outputs are bitwise equal and prints the per-layer metrics.  Times are
reported at a reference core speed, raw values beside them.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md for the workloads, metrics and scaling.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Timed rounds are split over up to MAX_PROCESSES processes, so that one
# process's memory layout or core speed weighs less.
MAX_PROCESSES = 5
SETUP_ONLY = 2  # further processes that stop after set-up; setup_s is the median of all
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(args, first_round: int, share: float, trace: int, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--first-round", str(first_round), "--share", repr(share),
           "--t0", repr(t0), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError("a worker did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def pooled_checks(stats_lists) -> list:
    """Mean-vs-theory z-tests over the samples of every process."""
    pooled = {}
    for stats in stats_lists:
        for st in stats:
            acc = pooled.setdefault(st["name"], {**st, "count": 0,
                                                 "sum": [0.0] * len(st["sum"]),
                                                 "sumsq": [0.0] * len(st["sum"])})
            acc["count"] += st["count"]
            acc["sum"] = [a + b for a, b in zip(acc["sum"], st["sum"])]
            acc["sumsq"] = [a + b for a, b in zip(acc["sumsq"], st["sumsq"])]
    checks = []
    for name, st in pooled.items():
        n = st["count"]
        if n < 2:
            checks.append({"name": f"{name} skipped (n={n})", "ok": True})
            continue
        zmax = 0.0
        for s, sq, theory in zip(st["sum"], st["sumsq"], st["theory"]):
            mean = s / n
            se = math.sqrt(max(sq - n * mean * mean, 0.0) / (n - 1) / n)
            zmax = max(zmax, abs(mean - theory) / se)
        checks.append({"name": f"{name} (max |z| {zmax:.2f}, n={n})",
                       "ok": zmax <= st["bound"]})
    return checks


def percentile(sorted_values, q: int) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def rate(workers, scaled=True) -> float:
    """Ops per second of the workers' timed rounds, at reference speed if scaled."""
    return (sum(len(w["latencies_s"]) for w in workers)
            / sum(w["timed_s"] * (w["scale"] if scaled else 1.0) for w in workers))


def latencies(workers, scaled=True) -> list:
    return sorted(x * (w["scale"] if scaled else 1.0) for w in workers for x in w["latencies_s"])


def fail_count(workers, checks) -> int:
    # A run-level check covers every op of the run, so its failure fails them all.
    if not all(c["ok"] for c in checks):
        return sum(len(w["latencies_s"]) for w in workers)
    return sum(len({i for i, _ in w["failures"]}) for w in workers)


def end_to_end(args, deadline):
    setups = [spawn(args, 0, 0.0, 0, deadline) for _ in range(SETUP_ONLY)]
    workers = []
    while len(workers) < MAX_PROCESSES:
        # Each process continues the round sequence and takes an equal part of
        # the time the earlier ones left; one whole round may take longer.
        left = args.seconds - sum(w["timed_s"] for w in workers)
        if left <= 0:
            break
        first_round = sum(w["rounds"] for w in workers)
        workers.append(spawn(args, first_round, left / (MAX_PROCESSES - len(workers)), 0,
                             deadline))
    lat, raw = latencies(workers), latencies(workers, scaled=False)
    setup = [w["setup_s"] * w["scale"] for w in setups + workers]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (rate(workers), "1/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(w["peak_rss_kb"] for w in workers) / 1024.0, "MB"),
    }
    n = len(lat)
    notes = [
        "times above are at reference core speed; raw wall-clock values follow",
        f"setup_s: median of {len(setup)} processes; raw "
        f"{statistics.median(w['setup_s'] for w in setups + workers):.4f} s",
        f"ops_per_s: {n} ops in {sum(w['timed_s'] for w in workers):.2f} s over "
        f"{len(workers)} processes; raw {rate(workers, scaled=False):.4f} 1/s",
        f"op_ms_p50: n={n}; raw {statistics.median(raw) * 1e3:.4f} ms",
    ]
    # p95 only where at least ten samples lie beyond it.
    if n >= 200:
        notes.append(f"op_ms_p95 = {percentile(lat, 95) * 1e3:.4f} ms (n={n}); "
                     f"raw {percentile(raw, 95) * 1e3:.4f} ms")
    checks = [c for w in workers for c in w["checks"]]
    checks += pooled_checks(w["stats"] for w in workers)
    return workers, metrics, notes, checks


def traced(args, deadline):
    share = args.seconds / 2.0
    plain = spawn(args, 0, share, 0, deadline)
    tr = spawn(args, 0, share, 1, deadline)
    workers = [plain, tr]
    common = min(len(plain["digests"]), len(tr["digests"]))
    same = plain["digests"][:common] == tr["digests"][:common]
    mapped, unmapped = tr["unmeasured"]
    metrics = {name: tuple(value_unit) for name, value_unit in tr["layers"].items()}
    metrics["trace.overhead_ratio"] = (rate([plain]) / rate([tr]), "ratio")
    metrics["trace.unmeasured_mapped"] = (len(mapped), "count")
    checks = [c for w in workers for c in w["checks"]]
    checks.append({"name": f"traced outputs bitwise equal to untraced ({common} ops)",
                   "ok": same})
    checks += pooled_checks([plain["stats"]])
    notes = [f"UNMEASURED (mapped to {args.workload}, 0 calls): {name}" for name in mapped]
    notes += [f"unmeasured (not mapped to {args.workload}, 0 calls, reads 0): {name}"
              for name in unmapped]
    return workers, metrics, notes, checks


def check_lines(workers, checks) -> list:
    lines = [f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}" for c in checks]
    for w in workers:
        lines += [f"op {i} failed: {msg[:200]}" for i, msg in w["failures"][:5]]
    violations = sum(w["bound_violations"] for w in workers)
    if violations:
        lines.append(f"planner answers over their error bound (known defect): {violations}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="sim_linear, sim_newton, highdim or oracle_mc")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not (ROOT / "src" / "splitavg" / "__init__.py").is_file():
        print(f"no splitavg sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    try:
        workers, metrics, notes, checks = (traced if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    checks_ok = all(c["ok"] for c in checks)
    attempted = sum(len(w["latencies_s"]) for w in workers)
    failed = fail_count(workers, checks)

    print(f"# splitavg bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + json.dumps(workers[0]["machine"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':40s} {failed / attempted:14.6g} ({failed} / {attempted} ops)")
    for line in notes + check_lines(workers, checks):
        print(line)
    print(json.dumps({
        "correct": checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
