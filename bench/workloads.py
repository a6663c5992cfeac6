"""The four benchmark workloads: inputs drawn from the seed, ops and output checks.

A workload hands out *rounds*: fixed lists of ops whose kinds and count never
depend on the seed, so every run times the same mix and only the drawn
parameters change.  Ops call the package through module attributes
(``parallel.run_replication``, ``planner.choose_m``, ...), which is where the
tracer swaps its wrappers in.  ``check`` validates one op's output and
returns a digest of it, used for the bitwise re-run and traced-vs-untraced
comparisons.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from splitavg import fixed_p, highdim, oracles, parallel, planner
from splitavg.estimator import ModelSpec
from splitavg.highdim import QuadratureSpec
from splitavg.losses import LossSpec
from splitavg.model import GenerativeConfig, NoiseDist
from splitavg.oracles import ALL_IDENTITY_IDS, WishartIdentity
from splitavg.parallel import ExperimentConfig
from splitavg.planner import FixedPRegime, HighDimRegime, PlannerProblem

# Steps of Roberts' R2 sequence (powers of the inverse plastic number): the
# points (j * a1, j * a2) mod 1 cover the unit square evenly for any run of
# consecutive j, so kappa and m are not tied to each other.
_R2_STEPS = (1 / 1.324717957244746, 1 / 1.324717957244746 ** 2)
# Every z-test bound.  A normal |z| exceeds 6 with probability 2e-9; over 36
# fresh Wishart checks (25 entries each, heavy-tailed products) the largest
# |z| seen was 3.8, and over 12 moment fits 2.5.
Z_BOUND = 6.0
RC_TOL = 1e-10  # solve_rc's default stopping tolerance


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


def theta_recipe(p: int, norm: float) -> np.ndarray:
    """Coefficients proportional to (1, ..., p) scaled to ``norm`` (the C6/C7 theta0)."""
    raw = np.arange(1.0, p + 1.0)
    return raw * (norm / np.linalg.norm(raw))


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 63 - 1))


class Workload:
    """Base: every input is drawn from ``seed`` and the global round index."""

    def __init__(self, seed: int):
        self.seed = seed
        self.bound_violations = 0

    def warmup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list:
        """Ops of round r as (kind, zero-argument callable) pairs."""
        raise NotImplementedError

    def check(self, kind, out) -> tuple[bool, str, str]:
        """(ok, digest, message) for one op's output."""
        raise NotImplementedError

    def stats(self) -> list:
        """Mean-vs-theory samples pooled across the run's processes."""
        return []


class _Simulation(Workload):
    """Shared engine of the sim_* workloads: one op is one run_replication.

    Round r runs replication r of each config, so the processes of a run
    never repeat a replication.
    """

    def _configs(self, gens_models, N: int, m: int, stream: int) -> list:
        rng = np.random.default_rng([self.seed, stream])
        return [ExperimentConfig(gen=gen, model=model, N=N, m=m, replications=2 ** 62,
                                 base_seed=_seed_int(rng))
                for gen, model in gens_models]

    def warmup(self) -> None:
        for cfg in self.warm_configs:
            parallel.run_replication(cfg, 0)
            parallel.run_replication(cfg, 1)

    def round(self, r):
        return [(i, lambda cfg=cfg: parallel.run_replication(cfg, r))
                for i, cfg in enumerate(self.configs)]

    def rerun_digest(self, kind: int, r: int) -> str:
        out = parallel.run_replication(self.configs[kind], r)
        return digest(out.theta_bar, out.theta_central)

    def check(self, kind, out):
        ok = bool(np.isfinite(out.theta_bar).all() and np.isfinite(out.theta_central).all())
        return ok, digest(out.theta_bar, out.theta_central), "" if ok else "non-finite theta"


class SimLinear(_Simulation):
    """Ridge(1), p=20, N=20000, m=40, gaussian noise, theta0 as in C7."""

    p, N, m, penalty, sigma2 = 20, 20000, 40, 1.0, 1.0

    def __init__(self, seed):
        super().__init__(seed)
        theta0 = theta_recipe(self.p, 1.0)
        spec = [(GenerativeConfig(p=self.p, theta0=theta0, noise=NoiseDist.gaussian(self.sigma2)),
                 ModelSpec.ridge(self.penalty))]
        self.configs = self._configs(spec, self.N, self.m, 0)
        self.warm_configs = self._configs(spec, self.N, self.m, 1)
        gam = fixed_p.ridge_gammas(theta0, self.sigma2, self.penalty)
        n = self.N // self.m
        self.bias_theory = fixed_p.bias2(gam, n, self.m)
        self.mse_theory = float(np.trace(fixed_p.m2_parallel(gam, n, self.m)))
        self.bias_sum = np.zeros(self.p)
        self.bias_sq = np.zeros(self.p)
        self.mse_sum = self.mse_sq = 0.0
        self.count = 0

    def check(self, kind, out):
        b = out.per_coordinate_bias_sample
        e2 = out.err_bar ** 2
        self.bias_sum += b
        self.bias_sq += b * b
        self.mse_sum += e2
        self.mse_sq += e2 * e2
        self.count += 1
        return super().check(kind, out)

    def stats(self):
        return [
            {"name": "mean bias vs bias2", "count": self.count, "sum": self.bias_sum.tolist(),
             "sumsq": self.bias_sq.tolist(), "theory": self.bias_theory.tolist(),
             "bound": Z_BOUND},
            {"name": "mse vs m2_parallel", "count": self.count, "sum": [self.mse_sum],
             "sumsq": [self.mse_sq], "theory": [self.mse_theory], "bound": Z_BOUND},
        ]


class SimNewton(_Simulation):
    """Logistic and NLS in turn, p=10, n=200, m=10 (the ratio-sweep shape)."""

    p, n, m, sigma2 = 10, 200, 10, 10.0

    def __init__(self, seed):
        super().__init__(seed)
        theta0 = theta_recipe(self.p, 1.0)
        noise = NoiseDist.gaussian(self.sigma2)
        spec = [(GenerativeConfig(p=self.p, theta0=theta0, noise=noise, link=model.link), model)
                for model in (ModelSpec.logistic(), ModelSpec.nonlinear_ls())]
        self.configs = self._configs(spec, self.n * self.m, self.m, 0)
        self.warm_configs = self._configs(spec, self.n * self.m, self.m, 1)


class HighDim(Workload):
    """High-dimensional ratio and planning queries, fourteen per round.

    Per round: the three C4 fixed-p plans; high-dim plans within 10% of the
    one-machine error for the squared, absolute and pseudo-Huber losses;
    eight mse_ratio_exact queries for pseudo-Huber(3), gaussian and laplace
    noise in turn.  The ratio queries are the majority so that the median op
    is one of them, not a value between two kinds.  Their (kappa, m) follow
    an R2 sequence from seeded offsets, so any run of consecutive rounds
    spreads them evenly over the rectangle of both ranges.
    """

    p, N, ratios_per_round = 100, 10 ** 5, 8
    gauss, laplace = NoiseDist.gaussian(1.0), NoiseDist.laplace(2 ** -0.5)
    huber = LossSpec.pseudo_huber(3.0)
    # 16 Gauss-Hermite nodes on the eta axis keep a pseudo-Huber plan to a few
    # seconds (the default 64 takes ~20 s, longer than a run); same answer m.
    huber_quadrature = QuadratureSpec(nodes=16)
    c4 = [("fixed_n", 10 ** 4, "absolute", 2e-3, (51,)),
          ("fixed_N", 10 ** 6, "absolute", 2e-3, (9901,)),
          ("fixed_N", 10 ** 6, "relative", 0.1, (990, 991))]

    def __init__(self, seed):
        super().__init__(seed)
        self.offsets = np.random.default_rng(seed).random(2)
        gam = fixed_p.ols_gammas(None, 10.0, 100)
        self.c4_problems = [(PlannerProblem(mode=mode, size=size, constraint=con, eps=eps,
                                            regime=FixedPRegime(gam)), want)
                            for mode, size, con, eps, want in self.c4]
        self.plans = [
            PlannerProblem(mode="fixed_N", size=self.N, constraint="relative", eps=0.1,
                           regime=regime)
            for regime in (HighDimRegime(LossSpec.squared(), self.gauss, self.p),
                           HighDimRegime(LossSpec.absolute(), self.gauss, self.p),
                           HighDimRegime(self.huber, self.gauss, self.p,
                                         quadrature=self.huber_quadrature))]
        self.solves = []
        # Output check: every solve an op makes is kept with its inputs.
        for module in (highdim, planner):
            module.solve_rc = self._keep_solves(module.solve_rc)

    def _keep_solves(self, solve):
        def keep(loss, noise, kappa, *args, **kwargs):
            sol = solve(loss, noise, kappa, *args, **kwargs)
            self.solves.append((loss, kappa, noise, sol))
            return sol
        return keep

    def _spread(self, j: int, axis: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.offsets[axis] + j * _R2_STEPS[axis]) % 1.0)

    def warmup(self):
        for noise in (self.gauss, self.laplace):  # cached quadrature nodes and BLAS
            for q in (None, self.huber_quadrature):
                highdim.solve_rc(LossSpec.squared(), noise, 0.1, q)
        self.solves = []

    def round(self, r):
        ops = [(("c4", prob, want), lambda prob=prob: planner.choose_m(prob))
               for prob, want in self.c4_problems]
        ops += [(("plan", prob), lambda prob=prob: planner.choose_m(prob)) for prob in self.plans]
        for i in range(self.ratios_per_round):
            j = r * self.ratios_per_round + i
            noise = (self.gauss, self.laplace)[i % 2]
            kappa, m = self._spread(j, 0, 0.05, 0.3), int(self._spread(j, 1, 2, 21))
            ops.append(("ratio", lambda noise=noise, kappa=kappa, m=m: highdim.mse_ratio_exact(
                self.huber, noise, kappa, m, self.huber_quadrature)))
        return ops

    def check(self, kind, out):
        solves, self.solves = self.solves, []
        msgs = []
        for loss, kappa, noise, sol in solves:
            if math.hypot(*sol.residuals) > RC_TOL:
                msgs.append(f"solve_rc residual {math.hypot(*sol.residuals):.2e} > {RC_TOL}")
            if loss.kind == "squared":
                # exact law c = kappa / (1 - kappa), r^2 = kappa sigma^2 / (1 - kappa)
                c, r2 = kappa / (1 - kappa), kappa * noise.variance / (1 - kappa)
                if abs(sol.c - c) > 1e-6 * c or abs(sol.r_squared - r2) > 1e-6 * r2:
                    msgs.append(f"squared solve at kappa={kappa} misses the exact law")
        if kind == "ratio":
            if not (math.isfinite(out) and out >= 1.0):
                msgs.append(f"mse ratio {out!r} is not a finite value >= 1")
            return not msgs, digest(out), "; ".join(msgs)
        if kind[0] == "c4":
            _, prob, want = kind
            if out.m not in want:
                msgs.append(f"C4 plan m={out.m}, want {want}")
            bound = prob.eps if prob.constraint == "absolute" else \
                (1.0 + prob.eps) * planner.predicted_error(prob, 1.0)
        else:
            # The plan's own solve at m = 1 gives its error at one machine.
            prob = kind[1]
            one = [sol for _, kappa, _, sol in solves if math.isclose(kappa, self.p / self.N)]
            bound = (1.0 + prob.eps) * one[0].r_squared * prob.regime.tr_sigma_inv / self.p
        # A bound violation is a known planner defect, counted but not a failure.
        self.bound_violations += int(out.achieved_error > bound)
        return not msgs, digest(out.m, out.achieved_error), "; ".join(msgs)


class OracleMC(Workload):
    """wishart_check (p=5, 1e6 draws) and mc_moment_fit (ridge, p=5, 2000 reps).

    Per round: one moment fit and three of the nine identities, so every
    three rounds cover all nine.  B, theta0 and the oracle seeds are drawn.
    """

    p, draws_per_check, reps, penalty, sigma2 = 5, 10 ** 6, 2000, 1.0, 1.0

    def warmup(self):
        w = WishartIdentity(ALL_IDENTITY_IDS[0], np.eye(self.p), np.eye(self.p))
        oracles.wishart_check(w, reps=10 ** 4, seed=0)
        gen = GenerativeConfig(p=self.p, theta0=np.ones(self.p),
                               noise=NoiseDist.gaussian(self.sigma2))
        oracles.mc_moment_fit(gen, ModelSpec.ridge(self.penalty), n_grid=[50, 100, 200],
                              reps=20, seed=0)

    def round(self, r):
        rng = np.random.default_rng([self.seed, r])  # the same in whichever process runs r
        theta0 = rng.standard_normal(self.p)
        theta0 /= np.linalg.norm(theta0)
        gen = GenerativeConfig(p=self.p, theta0=theta0, noise=NoiseDist.gaussian(self.sigma2))
        fit_seed = _seed_int(rng)
        ops = [(("fit", theta0), lambda: oracles.mc_moment_fit(
            gen, ModelSpec.ridge(self.penalty), reps=self.reps, seed=fit_seed))]
        for ident in ALL_IDENTITY_IDS[3 * (r % 3):3 * (r % 3) + 3]:
            a = rng.standard_normal((self.p, self.p))
            w = WishartIdentity(ident, np.eye(self.p), (a + a.T) / 2.0)
            seed = _seed_int(rng)
            ops.append((("wishart",), lambda w=w, seed=seed: oracles.wishart_check(
                w, reps=self.draws_per_check, seed=seed)))
        return ops

    def check(self, kind, out):
        if kind[0] == "wishart":
            ok = math.isfinite(out.max_abs_z) and out.max_abs_z <= Z_BOUND
            return ok, digest(out.mc_estimate, out.max_abs_z), \
                "" if ok else f"wishart max|z| {out.max_abs_z:.2f} > {Z_BOUND}"
        delta = fixed_p.ridge_gammas(kind[1], self.sigma2, self.penalty).delta
        z = np.abs(out.bias_coeffs[0] - delta) / out.bias_se[0]
        ok = bool(np.all(z <= Z_BOUND))
        return ok, digest(out.bias_coeffs[0], out.mse_coeffs[0]), \
            "" if ok else f"moment fit delta max|z| {z.max():.2f} > {Z_BOUND}"


WORKLOADS = {"sim_linear": SimLinear, "sim_newton": SimNewton,
             "highdim": HighDim, "oracle_mc": OracleMC}
