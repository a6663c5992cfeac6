"""ERM fits against closed forms; sandwich covariance against its population value."""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import splitavg.estimator as est

from splitavg import (
    ConfigError,
    Dataset,
    GenerativeConfig,
    LossSpec,
    ModelSpec,
    NoiseDist,
    RankError,
    SingularHessianError,
    fit_closed,
    fit_closed_stacked,
    fit_erm,
    fit_erm_stacked,
    ridge_population_target,
    sample_dataset,
    sandwich_covariance,
    split_uniform,
)


# indefinite, non-symmetric, NaN and wrong-shape covariances for p = 2
BAD_SIGMAS = [np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0, 0.1], [0.0, 1.0]]),
              np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(3)]


def _data(n=400, p=4, sigma2=1.0, seed=0, link="linear"):
    cfg = GenerativeConfig(p=p, theta0=np.arange(1.0, p + 1) / p,
                           noise=NoiseDist.gaussian(sigma2), link=link)
    return sample_dataset(cfg, n, seed), cfg


def test_closed_form_tiny_examples():
    d = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert fit_closed(d, 0.0)[0] == pytest.approx(2.0)
    assert fit_closed(d, 1.0)[0] == pytest.approx(1.0)
    assert abs(fit_closed(d, 1e9)[0]) < 1e-8
    for penalty in (-1.0, float("nan")):
        with pytest.raises(ConfigError):
            fit_closed(d, penalty)
    X = np.random.default_rng(0).standard_normal((20, 2))
    for bad in (np.nan, np.inf):  # LAPACK factors a NaN Gram without complaint
        X_bad = X.copy()
        X_bad[3, 1] = bad
        with pytest.raises(RankError):
            fit_closed(Dataset(X_bad, np.ones(20)))


@pytest.mark.parametrize("m", [1, 2, 40])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_stacked_fits_equal_shard_fits_bitwise(m, lam):
    d, _ = _data(n=2000, p=5, seed=3)
    shards = split_uniform(d, m, seed=4)
    X = np.stack([s.X for s in shards])
    y = np.stack([s.y for s in shards])
    stacked = fit_closed_stacked(X, y, lam)
    assert np.array_equal(stacked, np.array([fit_closed(s, lam) for s in shards]))


@pytest.mark.parametrize("n, p", [(50, 5), (500, 20)])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_closed_form_equals_plain_normal_equations_bitwise(n, p, lam):
    # reference: 2-D normal equations with a matrix-vector X'y and one
    # unbatched Cholesky solve
    d, _ = _data(n=n, p=p, seed=6)
    a = d.X.T @ d.X / n + lam * np.eye(p)
    b = d.X.T @ d.y / n
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, check_finite=False), b,
                                 check_finite=False)
    assert np.array_equal(fit_closed(d, lam), ref)
    stacked = fit_closed_stacked(np.stack([d.X, d.X]), np.stack([d.y, d.y]), lam)
    assert np.array_equal(stacked, np.stack([ref, ref]))


@pytest.mark.parametrize("scipy_first", [True, False])
def test_lapack_kernel_binds_scipys_own_functions(scipy_first):
    # what makes every solve bitwise scipy's: the very objects scipy.linalg.lapack exports,
    # whether scipy.linalg is imported before splitavg or after it, and scipy.linalg
    # still holds its extension module as an attribute
    imports = ["import scipy.linalg", "import splitavg.estimator as est"]
    code = "; ".join(imports if scipy_first else imports[::-1]) + (
        "; lapack = scipy.linalg.lapack"
        "; print(est.dpotrf is lapack.dpotrf, est.dpotrs is lapack.dpotrs,"
        " est.dpotrf is scipy.linalg._flapack.dpotrf)")
    env = dict(os.environ, PYTHONPATH=str(Path(est.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["True", "True", "True"]


def test_missing_lapack_extension_names_its_path(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(est.importlib.util, "find_spec",
                        lambda name: types.SimpleNamespace(submodule_search_locations=[tmp_path]))
    with pytest.raises(ImportError, match=str(tmp_path / "linalg" / "_flapack")):
        est._load_flapack()


def test_stacked_rank_error_on_any_singular_system():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 10, 2))
    X[1, :, 1] = 0.0  # the second system alone is singular
    with pytest.raises(RankError):
        fit_closed_stacked(X, rng.standard_normal((3, 10)))


def test_stacked_rank_error_names_the_lowest_singular_system():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 3, 10, 2))
    X[1, 0, :, 1] = 0.0  # systems 3 and 5 in C order are singular
    X[1, 2, :, 0] = 0.0
    y = rng.standard_normal((2, 3, 10))
    with pytest.raises(RankError) as info:
        fit_closed_stacked(X, y)
    assert info.value.index == 3
    with pytest.raises(RankError) as info:
        fit_closed(Dataset(X[1, 2], y[1, 2]))
    assert info.value.index == 0


@pytest.mark.parametrize("penalty", [0.0, 1.0])
def test_empty_design_is_named_before_any_division(penalty):
    # G/n at n = 0 is 0/0, which read as NaN data; RankError keeps the
    # exp-link start's fallback to zero for a slice with no positive response
    with pytest.raises(RankError, match=r"empty design, n = 0") as info:
        fit_closed_stacked(np.zeros((0, 3)), np.zeros(0), penalty)
    assert info.value.index == 0


def test_erm_matches_closed_form_ols_and_ridge():
    d, _ = _data()
    for lam in (0.0, 0.5):
        model = ModelSpec.ols() if lam == 0.0 else ModelSpec.ridge(lam)
        closed = fit_closed(d, lam)
        report = fit_erm(d, model)
        assert report.converged
        assert np.linalg.norm(report.theta_hat - closed) <= 1e-8


def test_newton_one_step_on_quadratic():
    d, _ = _data()
    rng = np.random.default_rng(5)
    report = fit_erm(d, ModelSpec.ols(), init=rng.normal(size=d.p) * 10)
    assert report.converged
    assert report.iterations == 1


def test_objective_decreases_along_iterations():
    cfg = GenerativeConfig(p=3, theta0=np.array([0.5, -0.25, 0.1]),
                           noise=NoiseDist.gaussian(0.0), link="logistic")
    d = sample_dataset(cfg, 400, seed=3)
    trace = []
    report = fit_erm(d, ModelSpec.logistic(), trace=trace)
    assert report.converged
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_logistic_separable_hits_iteration_cap():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 2))
    y = (X @ np.array([1.0, 1.0]) > 0).astype(float)  # perfectly separable
    report = fit_erm(Dataset(X, y), ModelSpec.logistic(), max_iter=60)
    assert not report.converged
    assert report.iterations == 60


# fit_erm on _data(seed=11) (noiseless for logistic, sigma^2 = 1 for the exp
# link) as (iterations, converged, theta_hat), frozen from the two-pass
# certificate loop the single-loop fit_erm replaced
FROZEN_FITS = {
    "logistic": (5, True, [0.19721596480212886, 0.4780904592845363,
                           0.6555699776866637, 0.8716667464241812]),
    "exp_nonlinear": (6, True, [0.23777334549064702, 0.5081999418574552,
                                0.762011031237947, 0.9968673325211205]),
}


def _frozen_fit_data(link):
    model = ModelSpec.logistic() if link == "logistic" else ModelSpec.nonlinear_ls()
    d, _ = _data(sigma2=0.0 if link == "logistic" else 1.0, seed=11, link=link)
    return d, model


@pytest.mark.parametrize("link", sorted(FROZEN_FITS))
def test_fit_erm_matches_frozen_fits(link):
    d, model = _frozen_fit_data(link)
    iterations, converged, theta = FROZEN_FITS[link]
    report = fit_erm(d, model)
    assert (report.iterations, report.converged) == (iterations, converged)
    assert np.allclose(report.theta_hat, theta, rtol=1e-12, atol=0.0)


def test_zero_iterations_still_certify():
    # one certificate serves both exits: a converged start passes it with no
    # step, a cold start at the cap fails it
    d, model = _frozen_fit_data("logistic")
    warm = fit_erm(d, model, init=fit_erm(d, model).theta_hat, max_iter=0)
    assert (warm.iterations, warm.converged) == (0, True)
    cold = fit_erm(d, model, init=np.zeros(d.p), max_iter=0)
    assert (cold.iterations, cold.converged) == (0, False)


def test_singular_hessian_raises_while_steps_remain():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    X[:, 2] = 0.0
    d = Dataset(X, X[:, 0] + rng.standard_normal(40))
    with pytest.raises(SingularHessianError):
        fit_erm(d, ModelSpec.ols())
    report = fit_erm(d, ModelSpec.ols(), max_iter=0)
    assert (report.iterations, report.converged) == (0, False)


def test_rank_error_on_duplicate_columns():
    rng = np.random.default_rng(1)
    col = rng.standard_normal(10)
    X = np.column_stack([col, col])
    with pytest.raises(RankError):
        fit_closed(Dataset(X, rng.standard_normal(10)), 0.0)


def test_underdetermined_rank_error():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 5))
    with pytest.raises(RankError):
        fit_closed(Dataset(X, rng.standard_normal(3)), 0.0)


def test_empty_sample_is_rejected_before_the_fit():
    with pytest.raises(ConfigError, match="n, p >= 1"):
        fit_erm(Dataset(np.zeros((0, 3)), np.zeros(0)), ModelSpec.logistic())


def test_stacked_fit_rejects_empty_samples():
    # no numpy warning either: the suite turns warnings into errors
    with pytest.raises(ConfigError, match="n, p >= 1"):
        fit_erm_stacked(np.zeros((2, 0, 3)), np.zeros((2, 0)), ModelSpec.nonlinear_ls(), tol=1e-6)


def test_stacked_fit_rejects_designs_without_columns():
    with pytest.raises(ConfigError, match="n, p >= 1"):
        fit_erm_stacked(np.zeros((2, 5, 0)), np.zeros((2, 5)), ModelSpec.logistic())
    assert fit_erm_stacked(np.zeros((0, 5, 3)), np.zeros((0, 5)), ModelSpec.logistic()) == []


def test_closed_form_rejects_designs_without_columns():
    with pytest.raises(ConfigError, match="n, p >= 1"):
        fit_closed(Dataset(np.zeros((5, 0)), np.zeros(5)))
    with pytest.raises(ConfigError, match="p >= 1"):
        fit_closed_stacked(np.zeros((2, 5, 0)), np.zeros((2, 5)))


def test_exp_link_slice_without_positive_responses_starts_at_zero():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((2, 20, 3))
    y = np.stack([np.exp(X[0] @ [0.2, 0.1, -0.3]), -np.ones(20)])
    start = fit_erm_stacked(X, y, ModelSpec.nonlinear_ls(), max_iter=0)
    assert start[0].theta_hat.tobytes() == fit_closed(Dataset(X[0], np.log(y[0]))).tobytes()
    assert start[1].theta_hat.tobytes() == np.zeros(3).tobytes()


def _per_slice_starts(X, y):
    """The exp-link starts one fit_closed_stacked call per slice would give."""
    starts = np.zeros(X.shape[::2])
    for i, (X_i, y_i) in enumerate(zip(X, y)):
        pos = y_i > 0
        try:
            starts[i] = fit_closed_stacked(X_i[pos], np.log(y_i[pos]))
        except RankError:
            pass
    return starts


def test_exp_link_starts_equal_per_slice_closed_form_fits_bitwise():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((8, 30, 4))
    y = np.exp(X @ [0.3, -0.2, 0.1, 0.4] + 0.5 * rng.standard_normal((8, 30)))
    y[1] = -rng.random(30)  # no positive response
    y[2, 3:] = 0.0  # fewer than p positives
    y[3, :4] *= -1.0  # p positives exactly
    X[4, :, 2] = 2.0 * X[4, :, 1]  # collinear
    X[5, 7, 0] = np.nan  # NaN system
    X[6, 0, 3] = 1e200  # overflowing system
    y[7, ::2] *= -1.0  # half the responses
    starts = est._default_init(X, y, ModelSpec.nonlinear_ls())
    assert starts.tobytes() == _per_slice_starts(X, y).tobytes()
    assert not starts[[1, 2, 4, 5, 6]].any() and starts[[0, 3, 7]].all()
    gen = GenerativeConfig(p=10, theta0=np.full(10, 0.3), noise=NoiseDist.gaussian(10.0),
                           link="exp_nonlinear")
    for seed in range(5):  # the ratio-sweep shard stacks
        d = sample_dataset(gen, 2000, seed)
        X, y = d.X.reshape(10, 200, 10), d.y.reshape(10, 200)
        starts = est._default_init(X, y, ModelSpec.nonlinear_ls())
        assert starts.tobytes() == _per_slice_starts(X, y).tobytes()


def test_ridge_population_target_values():
    theta0 = np.array([1.0, 0.0])
    assert np.allclose(ridge_population_target(theta0, None, 0.0), theta0)
    assert np.allclose(ridge_population_target(theta0, None, 1.0),
                       np.array([0.5, 0.0]))
    assert np.allclose(ridge_population_target(np.zeros(3), None, 2.0), np.zeros(3))
    sigma = np.array([[2.0, 0.0], [0.0, 1.0]])
    expect = np.linalg.solve(sigma + np.eye(2), sigma @ theta0)
    assert np.allclose(ridge_population_target(theta0, sigma, 1.0), expect)
    for bad in BAD_SIGMAS:
        with pytest.raises(ConfigError, match="covariance"):
            ridge_population_target(theta0, bad, 1.0)


def test_exp_link_fit_recovers_truth():
    cfg = GenerativeConfig(p=3, theta0=np.array([0.4, -0.3, 0.2]),
                           noise=NoiseDist.gaussian(0.01), link="exp_nonlinear")
    d = sample_dataset(cfg, 4000, seed=4)
    report = fit_erm(d, ModelSpec.nonlinear_ls())
    assert report.converged
    assert np.linalg.norm(report.theta_hat - cfg.theta0) < 0.05


def test_sandwich_matches_population_covariance():
    # OLS, Sigma = I, sigma^2 = 1: asymptotic covariance of sqrt(n) errors is I
    d, _ = _data(n=100_000, p=3, sigma2=1.0, seed=6)
    theta = fit_closed(d, 0.0)
    cov = sandwich_covariance(d, theta, ModelSpec.ols())
    assert np.max(np.abs(cov - np.eye(3))) < 0.05


def test_sandwich_zero_when_noiseless():
    d, _ = _data(n=200, p=3, sigma2=0.0, seed=7)
    theta = fit_closed(d, 0.0)
    cov = sandwich_covariance(d, theta, ModelSpec.ols())
    assert np.max(np.abs(cov)) < 1e-18


def test_sandwich_exactly_symmetric():
    d, _ = _data(n=300, p=4, sigma2=2.0, seed=8)
    theta = fit_closed(d, 0.0)
    cov = sandwich_covariance(d, theta, ModelSpec.ols())
    assert np.array_equal(cov, cov.T)


@pytest.mark.parametrize("model,link", [
    (ModelSpec.ols(), "linear"), (ModelSpec.ridge(0.3), "linear"),
    (ModelSpec.logistic(), "logistic"), (ModelSpec.nonlinear_ls(), "exp_nonlinear"),
], ids=["ols", "ridge", "logistic", "nls"])
def test_sandwich_takes_one_score_weight_pass(monkeypatch, model, link):
    # the per-sample gradients reuse the Hessian pass's first-derivative weights
    import splitavg.estimator as est

    d, _ = _data(n=300, p=3, seed=9, link=link)
    theta = fit_erm(d, model).theta_hat
    calls = []
    real = est._score_weights
    monkeypatch.setattr(est, "_score_weights", lambda *a: calls.append(1) or real(*a))
    cov = sandwich_covariance(d, theta, model)
    assert len(calls) == 1
    assert np.all(np.linalg.eigvalsh(cov) > 0)


@pytest.mark.parametrize("model,link", [(ModelSpec.ols(), "linear"),
                                        (ModelSpec.logistic(), "logistic")],
                         ids=["ols", "logistic"])
def test_sandwich_raises_on_a_zero_column(model, link):
    # an all-zero column zeroes a row and column of the empirical Hessian
    d, _ = _data(n=300, p=3, seed=10, link=link)
    X = d.X.copy()
    X[:, 1] = 0.0
    with pytest.raises(SingularHessianError, match="empirical Hessian is singular"):
        sandwich_covariance(Dataset(X, d.y), np.full(3, 0.1), model)


def test_wald_coverage_smoke():
    # small version of the full coverage criterion (acceptance runs 1000 reps)
    p, n, reps = 3, 400, 200
    cfg = GenerativeConfig(p=p, theta0=np.arange(1.0, p + 1),
                           noise=NoiseDist.gaussian(1.0))
    hits = np.zeros(p)
    for r in range(reps):
        d = sample_dataset(cfg, n, seed=1000 + r)
        theta = fit_closed(d, 0.0)
        cov = sandwich_covariance(d, theta, ModelSpec.ols())
        half = 1.96 * np.sqrt(np.diag(cov) / n)
        hits += (np.abs(theta - cfg.theta0) <= half)
    coverage = hits / reps
    assert np.all(coverage >= 0.90) and np.all(coverage <= 0.99)


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(LossSpec.absolute(), "linear")
    with pytest.raises(ConfigError):
        ModelSpec(LossSpec.logistic(), "linear")
    for penalty in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ModelSpec.ridge(penalty)
    # a penalized nonlinear fit would not target theta0
    with pytest.raises(ConfigError, match="linear link"):
        ModelSpec(LossSpec.logistic(), "logistic", 0.5)
    with pytest.raises(ConfigError, match="linear link"):
        ModelSpec(LossSpec.squared(), "exp_nonlinear", 0.5)
    assert ModelSpec.ridge(0.0) == ModelSpec.ols()
    with pytest.raises(ConfigError):
        fit_erm(_data()[0], ModelSpec.ols(), tol=0.0)
