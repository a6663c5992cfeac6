"""One benchmark process: set up a workload, time whole rounds of ops, check them.

Started by ``run.py`` with BLAS threads fixed to 1.  Between ops it times a
fixed calibration kernel, so that times can be reported at a reference core
speed (see README.md).  Prints one JSON object as its last stdout line.
Usage (normally not run by hand):

    python3 bench/worker.py --workload sim_linear --seed 1 --first-round 0 \
        --share 5 --t0 <time.monotonic() at spawn> --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# Times are reported as if the calibration kernel took REFERENCE_S; it is
# timed again whenever CALIBRATE_EVERY_S has passed since the last time.
REFERENCE_S = 2e-3
CALIBRATE_EVERY_S = 0.1


class Calibration:
    """A fixed kernel timed beside the ops; its time follows the core's speed.

    200 products of a 64x64 orthogonal matrix: cache-resident compute that
    never overflows or goes subnormal.
    """

    def __init__(self):
        self.ortho = np.linalg.qr(np.random.default_rng(0).standard_normal((64, 64)))[0]
        self.samples: list[float] = []

    def measure(self) -> float:
        t = time.perf_counter()
        b = self.ortho
        for _ in range(200):
            b = self.ortho @ b
        self.samples.append(time.perf_counter() - t)
        return self.samples[-1]

    def scale(self) -> float:
        """Reference seconds per measured second: the factor this process's times get."""
        return REFERENCE_S / statistics.mean(self.samples)


def machine_info() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caches": caches,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first-round", type=int, required=True, help="global round index")
    ap.add_argument("--share", type=float, required=True,
                    help="seconds of timed rounds; 0 stops after set-up")
    ap.add_argument("--t0", type=float, required=True, help="monotonic clock at spawn")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    cal = Calibration()

    import splitavg

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(splitavg.__file__).resolve().parents:
        print(f"splitavg imported from {splitavg.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    wl.warmup()

    latencies, digests, failures = [], [], []
    start = time.monotonic()
    setup_s = start - args.t0
    cal_s = sum(cal.measure() for _ in range(5))
    if args.share <= 0:
        print(json.dumps({"setup_s": setup_s, "scale": cal.scale()}))
        return 0
    last_cal = time.monotonic()
    r = args.first_round
    # Whole rounds only, so every run times the same mix; a round starts only
    # while it is expected to end within half a round of the share.
    while True:
        round_start = time.monotonic()
        for kind, op in wl.round(r):
            if tracer:
                tracer.active = True
            t = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # a raising op is a counted failure
                out, msg = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t)
            if tracer:
                tracer.active = False
            ok, dig, msg = (False, "", msg) if out is None else wl.check(kind, out)
            digests.append(dig)
            if not ok:
                failures.append((len(digests) - 1, msg))
            if time.monotonic() - last_cal >= CALIBRATE_EVERY_S:
                cal_s += cal.measure()
                last_cal = time.monotonic()
        r += 1
        now = time.monotonic()
        if now - start - cal_s + 0.5 * (now - round_start) >= args.share:
            break
    timed_s = time.monotonic() - start - cal_s

    checks = []
    if hasattr(wl, "rerun_digest"):
        same = wl.rerun_digest(0, args.first_round) == digests[0]
        checks.append({"name": "bitwise re-run of the first op", "ok": same})

    result = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "scale": cal.scale(),
        "rounds": r - args.first_round,
        "latencies_s": latencies,
        "digests": digests,
        "failures": failures,
        "checks": checks,
        "stats": wl.stats(),
        "bound_violations": wl.bound_violations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": machine_info(),
    }
    if tracer:
        values = tracing.layer_metrics(tracer, len(latencies), wl.bound_violations, cal.scale())
        result["layers"] = {name: [value, tracing.LAYER_METRICS[name][0]]
                            for name, value in values.items()}
        result["unmeasured"] = tracing.unmeasured(tracer, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
