"""Per-layer tracing from outside the package.

The tracer replaces each public function of ``splitavg`` in the namespace of
the module that looks it up (``parallel.sample_dataset``,
``highdim.prox_array``, ...) with a wrapper that records a span: call count,
total time and self time (total minus the time of nested traced calls).
Spans are recorded only while an op is running, so set-up and output checks
do not count.  Wrappers never touch arguments or results, so traced op
outputs stay bitwise equal to untraced ones.
"""

from __future__ import annotations

import time
from collections import defaultdict

from splitavg import estimator, highdim, losses, oracles, parallel, planner
from splitavg.errors import MachineFitError

# (module whose global is replaced, attribute, span name = layer.function)
WRAPPED = [
    (parallel, "sample_dataset", "model.sample_dataset"),
    (oracles, "sample_dataset", "model.sample_dataset"),
    (parallel, "split_uniform", "model.split_uniform"),
    (parallel, "fit_closed", "estimator.fit_closed"),
    (estimator, "fit_closed", "estimator.fit_closed"),
    (parallel, "fit_erm", "estimator.fit_erm"),
    (oracles, "fit_erm", "estimator.fit_erm"),
    (estimator, "derivative_array", "losses.derivative_array"),
    (highdim, "derivative_array", "losses.derivative_array"),
    (losses, "derivative_array", "losses.derivative_array"),
    (highdim, "prox_array", "losses.prox_array"),
    (parallel, "run_replication", "parallel.run_replication"),
    (highdim, "solve_rc", "highdim.solve_rc"),
    (planner, "solve_rc", "highdim.solve_rc"),
    (planner, "predicted_error", "planner.predicted_error"),
    (planner, "m2_parallel", "fixed_p.m2_parallel"),
    (oracles, "wishart_check", "oracles.wishart_check"),
    (oracles, "mc_moment_fit", "oracles.mc_moment_fit"),
]

_F64 = 8  # bytes per float64


def _fit_closed_flops(args) -> float:
    # Gram X'X and X'y by gemm/gemv, Cholesky p^3/3, two triangular solves.
    n, p = args[0].X.shape
    return 2.0 * n * p * p + 2.0 * n * p + p ** 3 / 3.0 + 2.0 * p * p


def _sample_bytes(args) -> float:
    # An n x p normal design plus one length-n draw (noise or uniforms).
    cfg, n = args[0], args[1]
    return float(_F64 * n * (cfg.p + 1))


class Tracer:
    """Span recorder; ``install`` swaps the wrappers in for the process lifetime."""

    def __init__(self):
        self.active = False
        self._stack: list[float] = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.sums = defaultdict(float)  # computed counts keyed by "span.quantity"

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except MachineFitError:
                self.sums[name + ".machine_fit_errors"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
            self._count(name, args, kwargs, out)
            return out
        return traced

    def _count(self, name, args, kwargs, out):
        s = self.sums
        if name == "estimator.fit_closed":
            s[name + ".flops"] += _fit_closed_flops(args)
        elif name == "model.sample_dataset":
            s[name + ".bytes"] += _sample_bytes(args)
        elif name == "estimator.fit_erm":
            s[name + ".newton_iters"] += out.iterations
            s[name + ".converged"] += bool(out.converged)
        elif name == "oracles.wishart_check":
            draws, p = kwargs["reps"], args[0].p
            s[name + ".draws"] += draws
            # x1, x2 and their covariance-factor products (4p), the rank-one
            # outer product, the scaled term and its square (3p^2).
            s[name + ".bytes"] += draws * _F64 * (4 * p + 3 * p * p)


SIM = ("sim_linear", "sim_newton")

# name -> (unit, span whose calls decide "measured", workloads it is mapped to)
LAYER_METRICS = {
    "model.sample_dataset.ms": ("ms", "model.sample_dataset", SIM),
    "model.sample_dataset.bytes_computed": ("B/call", "model.sample_dataset", SIM),
    "model.split_uniform.ms": ("ms", "model.split_uniform", ("sim_linear",)),
    "estimator.fit_closed.calls": ("calls/op", "estimator.fit_closed", ("sim_linear",)),
    "estimator.fit_closed.ms": ("ms", "estimator.fit_closed", ("sim_linear",)),
    "estimator.fit_closed.flops_computed": ("flop/call", "estimator.fit_closed", ("sim_linear",)),
    "estimator.fit_erm.calls": ("calls/op", "estimator.fit_erm", ("sim_newton",)),
    "estimator.fit_erm.ms": ("ms", "estimator.fit_erm", ("sim_newton",)),
    "estimator.fit_erm.newton_iters": ("iter/call", "estimator.fit_erm", ("sim_newton",)),
    "estimator.fit_erm.converged_ratio": ("ratio", "estimator.fit_erm", ("sim_newton",)),
    "losses.derivative_array.calls": ("calls/op", "losses.derivative_array", ("sim_newton",)),
    "losses.prox_array.calls": ("calls/op", "losses.prox_array", ("highdim",)),
    "losses.prox_array.ms": ("ms", "losses.prox_array", ("highdim",)),
    "parallel.run_replication.self_ms": ("ms", "parallel.run_replication", SIM),
    "parallel.machine_fit_errors": ("count", "parallel.run_replication", SIM),
    "highdim.solve_rc.calls": ("calls/op", "highdim.solve_rc", ("highdim",)),
    "highdim.solve_rc.self_ms": ("ms", "highdim.solve_rc", ("highdim",)),
    "highdim.prox_calls_per_solve": ("calls/solve", "highdim.solve_rc", ("highdim",)),
    "planner.predicted_error.calls": ("calls/op", "planner.predicted_error", ("highdim",)),
    "fixed_p.m2_parallel.calls": ("calls/op", "fixed_p.m2_parallel", ("highdim",)),
    "planner.bound_violations": ("1/op", "planner.predicted_error", ("highdim",)),
    "oracles.wishart_check.ns_per_draw": ("ns/draw", "oracles.wishart_check", ("oracle_mc",)),
    "oracles.wishart_check.bytes_computed": ("B/draw", "oracles.wishart_check", ("oracle_mc",)),
    "oracles.mc_moment_fit.ms": ("ms", "oracles.mc_moment_fit", ("oracle_mc",)),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, ops: int, bound_violations: int, scale: float) -> dict:
    """Per-layer values from a traced run of ``ops`` ops; ``ms`` is per op.

    Times are multiplied by ``scale``, the factor to the reference core speed.
    """
    c, t, st, s = tr.calls, tr.total_s, tr.self_s, tr.sums
    ms = 1e3 * scale / ops
    return {
        "model.sample_dataset.ms": t["model.sample_dataset"] * ms,
        "model.sample_dataset.bytes_computed":
            _ratio(s["model.sample_dataset.bytes"], c["model.sample_dataset"]),
        "model.split_uniform.ms": t["model.split_uniform"] * ms,
        "estimator.fit_closed.calls": c["estimator.fit_closed"] / ops,
        "estimator.fit_closed.ms": t["estimator.fit_closed"] * ms,
        "estimator.fit_closed.flops_computed":
            _ratio(s["estimator.fit_closed.flops"], c["estimator.fit_closed"]),
        "estimator.fit_erm.calls": c["estimator.fit_erm"] / ops,
        "estimator.fit_erm.ms": t["estimator.fit_erm"] * ms,
        "estimator.fit_erm.newton_iters":
            _ratio(s["estimator.fit_erm.newton_iters"], c["estimator.fit_erm"]),
        "estimator.fit_erm.converged_ratio":
            _ratio(s["estimator.fit_erm.converged"], c["estimator.fit_erm"]),
        "losses.derivative_array.calls": c["losses.derivative_array"] / ops,
        "losses.prox_array.calls": c["losses.prox_array"] / ops,
        "losses.prox_array.ms": t["losses.prox_array"] * ms,
        "parallel.run_replication.self_ms": st["parallel.run_replication"] * ms,
        "parallel.machine_fit_errors": s["parallel.run_replication.machine_fit_errors"],
        "highdim.solve_rc.calls": c["highdim.solve_rc"] / ops,
        "highdim.solve_rc.self_ms": st["highdim.solve_rc"] * ms,
        "highdim.prox_calls_per_solve":
            _ratio(c["losses.prox_array"], c["highdim.solve_rc"]),
        "planner.predicted_error.calls": c["planner.predicted_error"] / ops,
        "fixed_p.m2_parallel.calls": c["fixed_p.m2_parallel"] / ops,
        "planner.bound_violations": bound_violations / ops,
        "oracles.wishart_check.ns_per_draw":
            _ratio(t["oracles.wishart_check"] * 1e9 * scale, s["oracles.wishart_check.draws"]),
        "oracles.wishart_check.bytes_computed":
            _ratio(s["oracles.wishart_check.bytes"], s["oracles.wishart_check.draws"]),
        "oracles.mc_moment_fit.ms": t["oracles.mc_moment_fit"] * ms,
    }


def unmeasured(tr: Tracer, workload: str) -> tuple[list, list]:
    """(mapped, unmapped) metric names whose deciding span recorded no calls."""
    mapped, other = [], []
    for name, (_unit, span, workloads) in LAYER_METRICS.items():
        if tr.calls[span] == 0:
            (mapped if workload in workloads else other).append(name)
    return mapped, other
