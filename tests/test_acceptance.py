"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 1's absolute-loss/laplace cell is a known red: the quadratic
small-ratio fit it prescribes has no stable coefficient for that noise family
(r^2(kappa) carries a kappa^(3/2) term there; see test_highdim for the
structure), so the referenced table value cannot be reproduced by the stated
procedure.  Everything else is green.
"""

import numpy as np
from scipy import stats

import splitavg as sa
from splitavg.highdim import _smooth_residual_fn
from splitavg.oracles import ALL_IDENTITY_IDS


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def _theta(p: int, norm: float) -> np.ndarray:
    raw = np.arange(1.0, p + 1)
    return raw * (norm / np.linalg.norm(raw))


def test_criterion_1_accuracy_loss_grid():
    """r2/r1 grid over {squared, pseudo-Huber(3), absolute} x {gaussian, laplace}."""
    gauss = sa.NoiseDist.gaussian(10.0)
    lap = sa.NoiseDist.laplace(2 ** -0.5)
    got = {
        ("squared", "gaussian"): sa.perturb_coeffs(sa.LossSpec.squared(), gauss).ratio,
        ("squared", "laplace"): sa.perturb_coeffs(sa.LossSpec.squared(), lap).ratio,
        ("pseudo_huber", "gaussian"):
            sa.perturb_coeffs(sa.LossSpec.pseudo_huber(3.0), gauss).ratio,
        ("pseudo_huber", "laplace"):
            sa.perturb_coeffs(sa.LossSpec.pseudo_huber(3.0), lap).ratio,
    }
    r1, r2 = sa.absolute_series(gauss)
    got[("absolute", "gaussian")] = r2 / r1
    r1, r2 = sa.absolute_series(lap)
    got[("absolute", "laplace")] = r2 / r1
    expected = {
        ("squared", "gaussian"): 1.0,
        ("squared", "laplace"): 1.0,
        ("pseudo_huber", "gaussian"): 0.92,
        ("pseudo_huber", "laplace"): 1.30,
        ("absolute", "gaussian"): 0.90,
        ("absolute", "laplace"): 1.83,
    }
    failures = []
    for key, target in expected.items():
        value = got[key]
        if abs(value - target) > 0.03:
            failures.append(f"{key}: got {value:.4f}, want {target} +- 0.03")
    detail = "; ".join(f"{k[0]}/{k[1]}={v:.4f}" for k, v in got.items())
    _report("C1 (ratio table)", not failures, detail)
    assert not failures, failures


def test_criterion_2_exact_least_squares_law():
    # solve_rc returns the law itself, so the quadrature equations are also
    # evaluated at the law: their residual norm must vanish there
    worst = worst_norm = 0.0
    for s2 in (1.0, 10.0):
        noise = sa.NoiseDist.gaussian(s2)
        quadrature = _smooth_residual_fn(sa.LossSpec.squared(), noise, sa.QuadratureSpec())
        for kappa in (0.05, 0.1, 0.2, 0.5):
            sol = sa.solve_rc(sa.LossSpec.squared(), noise, kappa)
            c_rel = abs(sol.c - kappa / (1 - kappa)) / (kappa / (1 - kappa))
            r_rel = abs(sol.r_squared - kappa * s2 / (1 - kappa)) \
                / (kappa * s2 / (1 - kappa))
            worst = max(worst, c_rel, r_rel)
            f, _ = quadrature(kappa / (1 - kappa), kappa * s2 / (1 - kappa), kappa)
            worst_norm = max(worst_norm, float(np.hypot(*f)))
    ok = worst <= 1e-6 and worst_norm <= 1e-12
    _report("C2 (exact LS residual law)", ok,
            f"worst relative error {worst:.2e}; "
            f"worst quadrature residual norm at the law {worst_norm:.2e}")
    assert worst <= 1e-6
    assert worst_norm <= 1e-12


def test_criterion_3_sign_correction():
    ok = True
    for s2 in (1.0, 10.0):
        pc = sa.perturb_coeffs(sa.LossSpec.squared(), sa.NoiseDist.gaussian(s2))
        plus = sa.perturb_coeffs(sa.LossSpec.squared(), sa.NoiseDist.gaussian(s2),
                                 b2_sign=+1)
        ok = ok and abs(pc.r1 - s2) <= 1e-9 * s2 and abs(pc.r2 - s2) <= 1e-9 * s2
        ok = ok and abs(plus.r2 - 5 * s2) <= 1e-9 * s2 and plus.r2 != pc.r2
    _report("C3 (sign correction)", ok,
            "default gives r1 = r2 = sigma^2; +2B2 variant gives 5 sigma^2")
    assert ok


def test_criterion_4_planner_counts():
    gam = sa.ols_gammas(None, 10.0, 100)
    fixed_n = sa.choose_m(sa.PlannerProblem(
        mode="fixed_n", size=10 ** 4, constraint="absolute", eps=2e-3,
        regime=sa.FixedPRegime(gam)))
    fixed_big = sa.choose_m(sa.PlannerProblem(
        mode="fixed_N", size=10 ** 6, constraint="absolute", eps=2e-3,
        regime=sa.FixedPRegime(gam)))
    relative = sa.choose_m(sa.PlannerProblem(
        mode="fixed_N", size=10 ** 6, constraint="relative", eps=0.1,
        regime=sa.FixedPRegime(gam)))
    ok = fixed_big.m == 9901 and fixed_n.m == 51 and relative.m in (990, 991)
    _report("C4 (planner counts)", ok,
            f"fixed-N {fixed_big.m} (want 9901), fixed-n {fixed_n.m} (want 51), "
            f"relative {relative.m} (want 990/991)")
    assert ok


def test_criterion_5_wishart_identities():
    worst = 0.0
    worst_id = None
    for p in (1, 2, 5):
        rng = np.random.default_rng(100 + p)
        raw = rng.standard_normal((p, p))
        b = (raw + raw.T) / 2
        for ident in ALL_IDENTITY_IDS:
            res = sa.wishart_check(sa.WishartIdentity(ident, np.eye(p), b),
                                   reps=10 ** 6, seed=500 + p)
            if res.max_abs_z > worst:
                worst, worst_id = res.max_abs_z, (ident, p)
    _report("C5 (Wishart identities)", worst <= 4.0,
            f"worst |z| = {worst:.2f} at {worst_id}, reps = 1e6, p in (1,2,5)")
    assert worst <= 4.0


def test_criterion_6_ols_second_order_theory():
    p, big_n, reps = 20, 20000, 1000
    gen = sa.GenerativeConfig(p=p, theta0=_theta(p, 10.0),
                              noise=sa.NoiseDist.gaussian(2.0))
    gam = sa.ols_gammas(None, 2.0, p)
    details = []
    ok = True
    for m in (10, 20, 40):
        cfg = sa.ExperimentConfig(gen=gen, model=sa.ModelSpec.ols(), N=big_n,
                                  m=m, replications=reps, base_seed=60)
        res = sa.run_experiment(cfg)
        samples = np.array([r.per_coordinate_bias_sample for r in res])
        z = samples.mean(axis=0) / (samples.std(axis=0, ddof=1) / np.sqrt(reps))
        zmax = float(np.max(np.abs(z)))
        ok = ok and zmax <= 3.0
        mse_emp = float(np.mean([r.err_bar ** 2 for r in res]))
        mse_th = float(np.trace(sa.m2_parallel(gam, big_n // m, m)))
        rel = abs(mse_emp - mse_th) / mse_th
        if m <= 20:
            ok = ok and rel <= 0.05
        details.append(f"m={m}: bias max|z|={zmax:.2f}, mse rel={rel:.3f}")
    _report("C6 (OLS theory vs simulation)", ok, "; ".join(details))
    assert ok


def test_criterion_7_ridge_bias_formula():
    p, big_n, m, reps = 20, 20000, 40, 10000
    theta0 = _theta(p, 1.0)
    gen = sa.GenerativeConfig(p=p, theta0=theta0, noise=sa.NoiseDist.gaussian(1.0))
    cfg = sa.ExperimentConfig(gen=gen, model=sa.ModelSpec.ridge(1.0), N=big_n,
                              m=m, replications=reps, base_seed=7)
    res = sa.run_experiment(cfg)
    samples = np.array([r.per_coordinate_bias_sample for r in res])
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    theory = sa.bias2(sa.ridge_gammas(theta0, 1.0, 1.0), big_n // m, m)
    zmax = float(np.max(np.abs(mean - theory) / se))
    _report("C7 (ridge bias formula)", zmax <= 3.0,
            f"max |z| = {zmax:.2f} over {p} coordinates, "
            f"theory leading coord {theory[-1]:.2e}")
    assert zmax <= 3.0


def test_criterion_8_error_ratio_trend():
    p, m, reps = 10, 10, 200
    gen = sa.GenerativeConfig(p=p, theta0=_theta(p, 1.0),
                              noise=sa.NoiseDist.gaussian(10.0))
    meds, ses = [], []
    for n in (50, 200, 1000):
        cfg = sa.ExperimentConfig(gen=gen, model=sa.ModelSpec.ols(), N=n * m,
                                  m=m, replications=reps, base_seed=8)
        s = sa.summarize(sa.run_experiment(cfg))
        meds.append(s.median_ratio)
        ses.append(s.mc_standard_errors.median_ratio)
    trend_ok = all(meds[i + 1] <= meds[i] + 2 * np.hypot(ses[i], ses[i + 1])
                   for i in range(2))
    limit_ok = meds[-1] <= 1.05
    _report("C8 (error-ratio trend)", trend_ok and limit_ok,
            f"medians {[round(v, 4) for v in meds]} along n = 50, 200, 1000")
    assert trend_ok and limit_ok


def test_criterion_9_high_dim_ratio_flat():
    target = (1 - 0.02) / (1 - 0.2)  # 1.225
    ratios = []
    for n in (250, 500):
        p = int(0.2 * n)
        gen = sa.GenerativeConfig(p=p, theta0=_theta(p, 1.0),
                                  noise=sa.NoiseDist.gaussian(1.0))
        cfg = sa.ExperimentConfig(gen=gen, model=sa.ModelSpec.ols(), N=n * 10,
                                  m=10, replications=300, base_seed=9)
        s = sa.summarize(sa.run_experiment(cfg))
        ratios.append(s.mse_bar / s.mse_central)
    within = all(abs(r - target) <= 0.05 * target for r in ratios)
    flat = abs(ratios[1] - ratios[0]) <= 0.1
    _report("C9 (high-dim MSE ratio)", within and flat,
            f"ratios {[round(r, 4) for r in ratios]} vs {target:.4f}; no drift to 1")
    assert within and flat


def test_criterion_10_coverage_and_normality():
    # 95% Wald intervals from the sandwich covariance
    p, n, reps = 5, 500, 1000
    theta0 = np.arange(1.0, p + 1)
    cfg = sa.GenerativeConfig(p=p, theta0=theta0, noise=sa.NoiseDist.gaussian(1.0))
    hits = np.zeros(p)
    for r in range(reps):
        d = sa.sample_dataset(cfg, n, seed=20000 + r)
        th = sa.fit_closed(d, 0.0)
        cov = sa.sandwich_covariance(d, th, sa.ModelSpec.ols())
        hits += np.abs(th - theta0) <= 1.96 * np.sqrt(np.diag(cov) / n)
    coverage = hits / reps
    cov_ok = np.all(coverage >= 0.93) and np.all(coverage <= 0.97)

    # standardized high-dimensional contrasts pass a normality test at 1%
    p, n, m, reps = 50, 250, 10, 500
    theta0 = _theta(p, 1.0)
    gen = sa.GenerativeConfig(p=p, theta0=theta0, noise=sa.NoiseDist.gaussian(1.0))
    ec = sa.ExperimentConfig(gen=gen, model=sa.ModelSpec.ols(), N=n * m, m=m,
                             replications=reps, base_seed=10)
    r_kappa = sa.solve_rc(sa.LossSpec.squared(), sa.NoiseDist.gaussian(1.0), 0.2).r
    v = np.ones(p) / np.sqrt(p)
    zs = np.array([
        float(v @ (sa.run_replication(ec, rep).theta_bar - theta0))
        / (r_kappa * np.sqrt((v @ v) / (p * m)))
        for rep in range(reps)
    ])
    pval = float(stats.normaltest(zs).pvalue)
    norm_ok = pval >= 0.01
    _report("C10 (coverage and normality)", cov_ok and norm_ok,
            f"coverage {np.round(coverage, 3).tolist()}, normality p = {pval:.3f}")
    assert cov_ok and norm_ok
