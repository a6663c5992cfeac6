"""Batch command-line front end: experiment recipes with deterministic CSV output.

Subcommands
-----------
ratio-sweep    median error ratio of averaged vs centralized fits along an n-grid
bias-mse       empirical vs theoretical bias/MSE along an m-grid at fixed N
highdim-sweep  MSE ratio in the proportional regime along an n-grid
table1         r2/r1 accuracy-loss grid over losses x noise families
plan           machine-count planning under an error constraint
wishart-check  Monte-Carlo z-tests of the rank-one Wishart product identities

Every output CSV starts with a '#' comment line naming the full configuration,
so files are self-describing and reruns with equal flags are byte-identical.
Exit codes: 0 success, 1 usage/validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .errors import ConfigError, InfeasiblePlanError, NumericalError, SplitAvgError
from .estimator import ModelSpec
from .fixed_p import bias2, m2_parallel, ols_gammas, ridge_gammas
from .highdim import (
    QuadratureSpec,
    absolute_series,
    mse_ratio_exact,
    perturb_coeffs,
)
from .losses import LossSpec
from .model import GenerativeConfig, NoiseDist, _gaussian, _rng, error_ratio
from .oracles import ALL_IDENTITY_IDS, WishartIdentity, wishart_check
from .parallel import ExperimentConfig, run_experiment, summarize
from .planner import FixedPRegime, HighDimRegime, PlannerProblem, choose_m

_MODEL_CHOICES = ("ols", "ridge", "nls", "logistic")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Parser of every (sub)command: usage errors raise, and a flag is given
    in full (an abbreviation such as --conf is unrecognized, not --config)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _theta_recipe(p: int, norm: float) -> np.ndarray:
    """Coefficients proportional to (1, 2, ..., p) scaled to the given norm."""
    raw = np.arange(1, p + 1, dtype=float)
    return raw * (norm / np.linalg.norm(raw))


def _model_spec(name: str, penalty: float) -> ModelSpec:
    if name == "ols":
        return ModelSpec.ols()
    if name == "ridge":
        return ModelSpec.ridge(penalty)
    if name == "nls":
        return ModelSpec.nonlinear_ls()
    return ModelSpec.logistic()


def _noise(args) -> NoiseDist:
    if args.noise == "gaussian":
        return NoiseDist.gaussian(args.sigma2)
    return NoiseDist.laplace(args.laplace_scale)


def _finite(text: str) -> float:
    """Argument type for real numbers: nan, +-inf and non-numbers are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _at_least(low: int):
    """Argument type for integers >= low (counts: 1, seeds: 0, what numpy's default_rng
    takes), also in float notation (1e6); fractions are usage errors."""
    def parse(text: str) -> int:
        try:
            value = int(text)  # exact beyond 2^53, where float notation rounds
        except ValueError:
            value = _finite(text)
        if value < low or value != int(value):
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(value)
    return parse


def _list_of(item):
    """Argument type for comma-separated lists whose elements each parse with ``item``."""
    return lambda text: [item(tok) for tok in text.split(",") if tok.strip()]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(args, header: list[str], rows: list) -> None:
    """Write rows under a '#' line naming every parsed setting that is not None."""
    config = []
    for key, value in vars(args).items():
        if key in ("func", "out", "threads", "config") or value is None:
            continue
        if isinstance(value, list):
            value = ",".join(_fmt(v) for v in value)
        config.append(f"{'cmd' if key == 'command' else key}={_fmt(value)}")
    with open(args.out, "w", newline="") as fh:
        fh.write("# " + " ".join(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    print(f"wrote {args.out} ({len(rows)} rows)")


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _summary(args, p: int, N: int, m: int):
    """Summary of ``args.reps`` seeded replications of the recipe model at (p, N, m)."""
    model = _model_spec(args.model, args.penalty)
    gen = GenerativeConfig(p=p, theta0=_theta_recipe(p, args.theta_norm), noise=_noise(args),
                           link=model.link)
    cfg = ExperimentConfig(gen=gen, model=model, N=N, m=m, replications=args.reps,
                           base_seed=args.seed)
    return summarize(run_experiment(cfg, threads=args.threads))


def _run_ratio_sweep(args) -> int:
    rows = []
    for n in args.n_grid:
        s = _summary(args, args.p, n * args.m, args.m)
        rows.append((n, args.m, s.median_ratio, s.mad_ratio, args.reps))
    _write_csv(args, ["n", "m", "median_ratio", "mad_ratio", "reps"], rows)
    return 0


def _gammas_for(args):
    # the theory uses the variance of the noise the simulation draws
    variance = _noise(args).variance
    if args.model == "ols":
        return ols_gammas(None, variance, args.p)
    return ridge_gammas(_theta_recipe(args.p, args.theta_norm), variance, args.penalty)


def _run_bias_mse(args) -> int:
    # the theory first: moments that overflow are reported before any simulation
    with np.errstate(over="ignore", invalid="ignore"):
        gam = _gammas_for(args)
        theory = {m: (bias2(gam, args.N // m, m), np.trace(m2_parallel(gam, args.N // m, m)))
                  for m in args.m_grid}
    for m, (theory_bias, mse_theory) in theory.items():
        if not np.isfinite([*theory_bias, mse_theory]).all():
            raise NumericalError(f"the theoretical bias or MSE at m = {m} is not finite")
    rows = []
    for m in args.m_grid:
        s = _summary(args, args.p, args.N, m)
        theory_bias, mse_theory = theory[m]
        for coord in range(args.p):
            rows.append((m, args.p, coord, s.mean_bias[coord], theory_bias[coord],
                         s.mse_bar, float(mse_theory)))
    _write_csv(args,
               ["m", "p", "coord", "mean_bias", "theory_bias", "mse_emp", "mse_theory"],
               rows)
    return 0


def _run_highdim_sweep(args) -> int:
    rows = []
    for n in args.n_grid:
        p = int(round(args.kappa * n))
        if p < 1 or p >= n:
            raise UsageError(f"kappa = {args.kappa} gives invalid p at n = {n}")
        kappa = p / n
        s = _summary(args, p, n * args.m, args.m)
        ratio_emp = error_ratio(s.mse_bar, s.mse_central)
        if args.model == "ols":
            ratio_theory = mse_ratio_exact(LossSpec.squared(), _noise(args),
                                           kappa, args.m)
        else:
            ratio_theory = ""
        rows.append((n, args.m, kappa, ratio_emp, ratio_theory))
    _write_csv(args, ["n", "m", "kappa", "mse_ratio_emp", "mse_ratio_theory"], rows)
    return 0


def _run_table1(args) -> int:
    noises = [("gaussian", NoiseDist.gaussian(args.sigma2)),
              ("laplace", NoiseDist.laplace(args.laplace_scale))]
    q = QuadratureSpec(nodes=args.quad_nodes)
    rows = []
    for loss_name, loss in [("squared", LossSpec.squared()),
                            ("pseudo_huber", LossSpec.pseudo_huber(args.delta))]:
        for noise_name, noise in noises:
            rows.append((loss_name, noise_name, perturb_coeffs(loss, noise, q).ratio))
    for noise_name, noise in noises:
        r1, r2 = absolute_series(noise, args.kappa_grid, q)
        rows.append(("absolute", noise_name, r2 / r1))
    _write_csv(args, ["loss", "noise", "r2_over_r1"], rows)
    return 0


def _run_plan(args) -> int:
    # One pass after parsing (so an unknown flag is reported first): every setting
    # this plan needs is given, and none that it would not read.
    relative = args.constraint == "relative"
    size = args.n if args.mode == "fixed-n" else args.N
    # the three bounds are mutually exclusive, so at most one is set
    bound = args.rel_eps if relative else (
        args.total_eps if args.per_coord_eps is None else args.per_coord_eps)
    needs = [("--mode", args.mode)]
    if args.mode is not None:
        needs.append((f"--{'n' if args.mode == 'fixed-n' else 'N'} (mode {args.mode})", size))
    needs += [("--p", args.p),
              (f"{'--rel-eps' if relative else '--total-eps or --per-coord-eps'} "
               f"({args.constraint} constraint)", bound)]
    missing = [flag for flag, value in needs if value is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    ridge, huber = args.model == "ridge", args.loss == "pseudo-huber"
    for key, default, read in (("penalty", 0.0, ridge), ("theta_norm", 1.0, ridge),
                               ("delta", 3.0, huber)):
        if getattr(args, key) is None:
            setattr(args, key, default)
        elif not read:
            raise UsageError(f"this plan does not read --{key.replace('_', '-')} "
                             f"(--model {args.model}, --loss {args.loss})")
    if args.regime == "fixed-p":
        if args.loss != "squared":
            raise UsageError(f"the fixed-p regime plans squared loss, not --loss {args.loss}")
        # moments that overflow to inf are reported by choose_m as a non-finite error
        with np.errstate(over="ignore", invalid="ignore"):
            regime = FixedPRegime(_gammas_for(args))
    else:
        if args.model != "ols":
            raise UsageError(f"the high-dim regime plans ols, not --model {args.model}")
        loss = {"squared": LossSpec.squared(),
                "pseudo-huber": LossSpec.pseudo_huber(args.delta),
                "absolute": LossSpec.absolute()}[args.loss]
        regime = HighDimRegime(loss=loss, noise=_noise(args), p=args.p)
    eps = bound if args.per_coord_eps is None else bound * args.p
    prob = PlannerProblem(mode=args.mode.replace("-", "_"), size=size,
                          constraint=args.constraint, eps=eps, regime=regime)
    result = choose_m(prob)
    _write_csv(args, ["mode", "constraint", "m", "achieved_error"],
               [(args.mode, args.constraint, result.m, result.achieved_error)])
    print(f"m = {result.m} (achieved error {result.achieved_error:.6g}, "
          f"binding={result.binding})")
    return 0


def _run_wishart_check(args) -> int:
    rows = []
    for p in args.p_grid:
        raw = _gaussian((p, p), None, _rng(args.seed + p))
        b = (raw + raw.T) / 2.0
        for ident in ALL_IDENTITY_IDS:
            w = WishartIdentity(id=ident, sigma=np.eye(p), B=b)
            res = wishart_check(w, reps=args.reps, seed=args.seed + 1000 + p)
            rows.append((ident, p, args.reps, res.max_abs_z))
    _write_csv(args, ["identity", "p", "reps", "max_abs_z"], rows)
    worst = max(row[3] for row in rows)
    print(f"worst |z| = {worst:.3f} over {len(rows)} identity checks")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, run, default_out: str) -> None:
    p.add_argument("--out", default=default_out, help="output CSV path")
    p.add_argument("--config", default=None, help="flat key=value defaults file")
    p.set_defaults(func=run)


def _add_noise(p: argparse.ArgumentParser, sigma2: float) -> None:
    p.add_argument("--noise", choices=("gaussian", "laplace"), default="gaussian")
    p.add_argument("--sigma2", type=_finite, default=sigma2,
                   help="gaussian noise variance")
    p.add_argument("--laplace-scale", type=_finite, default=1.0)


def _add_replications(p: argparse.ArgumentParser, run, out: str, *, reps: int,
                      penalty: float, theta_norm: float, sigma2: float) -> None:
    """Options after the grid of the subcommands that run seeded replications,
    in header order: the '#' line follows the order of ``vars(args)``."""
    p.add_argument("--reps", type=_at_least(1), default=reps)
    p.add_argument("--penalty", type=_finite, default=penalty)
    p.add_argument("--theta-norm", type=_finite, default=theta_norm)
    _add_noise(p, sigma2)
    p.add_argument("--seed", type=_at_least(0), default=0)
    # argparse runs a string default through the type: one syntax, one check
    p.add_argument("--threads", type=_at_least(1),
                   default=os.environ.get("SPLITAVG_THREADS", "1"),
                   help="worker threads (default: SPLITAVG_THREADS or 1)")
    _add_common(p, run, out)


def build_parser() -> _Parser:
    parser = _Parser(prog="splitavg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ratio-sweep", help="error-ratio sweep along n")
    p.add_argument("--model", choices=_MODEL_CHOICES, default="ols")
    p.add_argument("--p", type=_at_least(1), default=10)
    p.add_argument("--m", type=_at_least(1), default=10)
    p.add_argument("--n-grid", type=_list_of(_at_least(1)), default=[50, 200, 1000])
    _add_replications(p, _run_ratio_sweep, "ratio_sweep.csv", reps=200, penalty=0.1,
                      theta_norm=1.0, sigma2=10.0)

    p = sub.add_parser("bias-mse", help="bias and MSE vs theory along m")
    p.add_argument("--model", choices=("ols", "ridge"), default="ols")
    p.add_argument("--p", type=_at_least(1), default=20)
    p.add_argument("--N", type=_at_least(1), default=20000)
    p.add_argument("--m-grid", type=_list_of(_at_least(1)), default=[10, 20, 40])
    _add_replications(p, _run_bias_mse, "bias_mse.csv", reps=1000, penalty=1.0,
                      theta_norm=10.0, sigma2=2.0)

    p = sub.add_parser("highdim-sweep", help="MSE ratio in the proportional regime")
    p.add_argument("--model", choices=_MODEL_CHOICES, default="ols")
    p.add_argument("--kappa", type=_finite, default=0.2)
    p.add_argument("--m", type=_at_least(1), default=10)
    p.add_argument("--n-grid", type=_list_of(_at_least(1)), default=[250, 500])
    _add_replications(p, _run_highdim_sweep, "highdim_sweep.csv", reps=300, penalty=1.0,
                      theta_norm=1.0, sigma2=1.0)

    p = sub.add_parser("table1", help="r2/r1 grid over losses and noise families")
    p.add_argument("--delta", type=_finite, default=3.0)
    p.add_argument("--sigma2", type=_finite, default=10.0,
                   help="gaussian noise variance for the smooth-loss rows")
    p.add_argument("--laplace-scale", type=_finite, default=2 ** -0.5,
                   help="laplace scale (default: unit variance)")
    p.add_argument("--kappa-grid", type=_list_of(_finite),
                   default=list(np.geomspace(1e-3, 8e-3, 5)),
                   help="grid for the absolute-loss series fit")
    p.add_argument("--quad-nodes", type=_at_least(1), default=64)
    _add_common(p, _run_table1, "table1.csv")

    p = sub.add_parser("plan", help="choose the machine count")
    # None marks an option not given; _run_plan checks what it needs and reads
    p.add_argument("--mode", choices=("fixed-n", "fixed-N"))
    size = p.add_mutually_exclusive_group()
    size.add_argument("--n", type=_at_least(1), default=None)
    size.add_argument("--N", type=_at_least(1), default=None)
    p.add_argument("--constraint", choices=("absolute", "relative"),
                   default="absolute")
    bound = p.add_mutually_exclusive_group()
    bound.add_argument("--total-eps", type=_finite, default=None)
    bound.add_argument("--per-coord-eps", type=_finite, default=None)
    bound.add_argument("--rel-eps", type=_finite, default=None)
    p.add_argument("--regime", choices=("fixed-p", "high-dim"), default="fixed-p")
    p.add_argument("--model", choices=("ols", "ridge"), default="ols")
    p.add_argument("--p", type=_at_least(1))
    p.add_argument("--penalty", type=_finite, default=None, help="default 0")
    p.add_argument("--theta-norm", type=_finite, default=None, help="default 1")
    p.add_argument("--loss", choices=("squared", "pseudo-huber", "absolute"),
                   default="squared")
    p.add_argument("--delta", type=_finite, default=None, help="default 3")
    _add_noise(p, sigma2=1.0)
    _add_common(p, _run_plan, "plan.csv")

    p = sub.add_parser("wishart-check", help="Monte-Carlo identity z-tests")
    p.add_argument("--reps", type=_at_least(1), default=1_000_000)
    p.add_argument("--p-grid", type=_list_of(_at_least(1)), default=[1, 2, 5])
    p.add_argument("--seed", type=_at_least(0), default=0)
    _add_common(p, _run_wishart_check, "wishart_check.csv")

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Insert key=value pairs from --config as flags after the subcommand; explicit
    flags come later and win.  argparse finds --config, by the rules of every flag."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    extra: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (need key=value): {line!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        extra.extend([f"--{key.replace('_', '-')}", value])
    # subcommand first, then file defaults, then explicit flags (which win)
    return argv[:1] + extra + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (UsageError, ConfigError, InfeasiblePlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, SplitAvgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
