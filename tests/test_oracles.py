"""Wishart identity checks and the moment-fit oracle's own consistency."""

import numpy as np
import pytest

import splitavg.model as model_module
import splitavg.oracles as oracles
from splitavg import (
    ALL_IDENTITY_IDS,
    ConfigError,
    GenerativeConfig,
    ModelSpec,
    NoiseDist,
    WishartIdentity,
    mc_moment_fit,
    wishart_check,
    wishart_closed_form,
)
from splitavg.estimator import fit_closed, population_target
from splitavg.model import Dataset, sample_noise
from splitavg.oracles import FIRST_KIND_IDS, SECOND_KIND_IDS
from splitavg.oracles import _errors as _closed_form_errors

# indefinite, non-symmetric, NaN and wrong-shape covariances for p = 2
BAD_SIGMAS = [np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0, 0.1], [0.0, 1.0]]),
              np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(3)]


def test_closed_form_examples():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    w = WishartIdentity("E_S", sigma, np.eye(2))
    assert np.allclose(wishart_closed_form(w), sigma)
    w = WishartIdentity("E_SBS", np.eye(2), np.eye(2))
    assert np.allclose(wishart_closed_form(w), 4 * np.eye(2))
    w = WishartIdentity("E_SS2BSS2", np.eye(2), np.eye(2))
    assert np.allclose(wishart_closed_form(w), 12 * np.eye(2))


def test_identity_validation():
    with pytest.raises(ConfigError):
        WishartIdentity("E_SS2BS", np.diag([2.0, 1.0]), np.eye(2))  # needs Sigma = I
    with pytest.raises(ConfigError):
        WishartIdentity("E_SBS", np.eye(2), np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ConfigError):
        WishartIdentity("E_XYZ", np.eye(2), np.eye(2))
    with pytest.raises(ConfigError, match="p >= 1"):
        WishartIdentity("E_S", np.eye(0), np.zeros((0, 0)))
    with pytest.raises(ConfigError):
        wishart_check(WishartIdentity("E_S", np.eye(2), np.eye(2)), reps=100, seed=0)
    with pytest.raises(ConfigError, match="seed"):
        wishart_check(WishartIdentity("E_S", np.eye(2), np.eye(2)), reps=10_000, seed=-5)
    for sigma in BAD_SIGMAS:
        with pytest.raises(ConfigError, match="covariance"):
            WishartIdentity("E_S", sigma, np.eye(2))


@pytest.mark.parametrize("ident", ALL_IDENTITY_IDS)
def test_identities_pass_z_test_small(ident):
    p = 2
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((p, p))
    b = (raw + raw.T) / 2
    res = wishart_check(WishartIdentity(ident, np.eye(p), b), reps=50_000, seed=5)
    assert res.max_abs_z <= 5.0


@pytest.mark.parametrize("ident", FIRST_KIND_IDS)
def test_first_kind_with_general_sigma(ident):
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((3, 3))
    b = (raw + raw.T) / 2
    sigma = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.5]])
    res = wishart_check(WishartIdentity(ident, sigma, b), reps=80_000, seed=6)
    assert res.max_abs_z <= 5.0


def test_wishart_check_deterministic():
    w = WishartIdentity("E_SBS", np.eye(2), np.eye(2))
    a = wishart_check(w, reps=20_000, seed=9)
    b = wishart_check(w, reps=20_000, seed=9)
    assert np.array_equal(a.mc_estimate, b.mc_estimate)
    assert a.max_abs_z == b.max_abs_z


def test_mc_moment_fit_ols_bias_is_zero():
    cfg = GenerativeConfig(p=2, theta0=np.array([1.0, 2.0]),
                           noise=NoiseDist.gaussian(1.0))
    fit = mc_moment_fit(cfg, ModelSpec.ols(), n_grid=[60, 120, 240],
                        reps=30_000, seed=4)
    delta_hat, delta_se = fit.bias_coeffs[0], fit.bias_se[0]
    assert np.all(np.abs(delta_hat) <= 3 * delta_se)


@pytest.mark.parametrize("model", [ModelSpec.ols(), ModelSpec.ridge(0.5)])
@pytest.mark.parametrize("noise", [NoiseDist.gaussian(2.0), NoiseDist.laplace(0.7)])
def test_closed_form_errors_match_per_replication_fits(model, noise):
    cfg = GenerativeConfig(p=3, theta0=np.array([1.0, -2.0, 0.5]), noise=noise,
                           sigma_spec=np.array([1.0, 2.0, 0.5]))
    n, reps = 40, 25
    errs = _closed_form_errors(cfg, model, n, reps, np.random.default_rng(6))
    # the same draws, one replication at a time
    rng = np.random.default_rng(6)
    x = rng.standard_normal((reps, n, cfg.p)) @ np.linalg.cholesky(cfg.sigma).T
    y = x @ cfg.theta0 + sample_noise(noise, (reps, n), rng)
    target = population_target(cfg, model)
    expect = [fit_closed(Dataset(x[r], y[r]), model.penalty) - target for r in range(reps)]
    assert np.max(np.abs(errs - np.array(expect))) <= 1e-12


def test_mc_moment_fit_residuals_shrink_with_wider_grid():
    cfg = GenerativeConfig(p=1, theta0=np.array([1.0]),
                           noise=NoiseDist.gaussian(1.0))
    narrow = mc_moment_fit(cfg, ModelSpec.ols(), n_grid=[100, 110, 120],
                           reps=20_000, seed=8)
    wide = mc_moment_fit(cfg, ModelSpec.ols(), n_grid=[100, 200, 400, 800],
                         reps=20_000, seed=8)
    # with only 3 points the 2-parameter fit interpolates nearly exactly;
    # the 4-point fit must still track the 1/n + 1/n^2 law closely
    scale = wide.mse_by_n[100][0, 0]
    assert wide.fit_residual_mse <= 0.05 * scale


def test_mc_moment_fit_grid_validation():
    cfg = GenerativeConfig(p=2, theta0=np.zeros(2), noise=NoiseDist.gaussian(1.0))
    with pytest.raises(ConfigError):
        mc_moment_fit(cfg, ModelSpec.ols(), n_grid=[100, 100, 100], reps=1000, seed=0)
    with pytest.raises(ConfigError):
        mc_moment_fit(cfg, ModelSpec.ols(), n_grid=[5, 10, 15], reps=1000, seed=0)
    for reps in (0, 1):
        with pytest.raises(ConfigError, match="reps"):
            mc_moment_fit(cfg, ModelSpec.ols(), n_grid=[100, 200, 400], reps=reps, seed=0)
    with pytest.raises(ConfigError, match="seed"):
        mc_moment_fit(cfg, ModelSpec.ols(), n_grid=[100, 200, 400], reps=10, seed=-1)


def test_mc_moment_fit_erm_path_matches_closed_form_path():
    # squared loss routed through the generic Newton fitter, on data of its
    # own (exponential) link
    cfg = GenerativeConfig(p=2, theta0=np.array([0.5, -0.5]),
                           noise=NoiseDist.gaussian(1.0), link="exp_nonlinear")
    fit = mc_moment_fit(cfg, ModelSpec.nonlinear_ls(), n_grid=[80, 160, 320],
                        reps=60, seed=10)
    # exp link with its own theory is not checked here; just shape/finite
    assert fit.mse_coeffs[0].shape == (2, 2)
    assert np.all(np.isfinite(fit.mse_coeffs[0]))


def test_mc_moment_fit_warns_about_unconverged_fits():
    # one NLS fit at n = 120 stops at the iteration cap with grad norm
    # 1.2e-8 > 1e-8; it must not be averaged in silently
    cfg = GenerativeConfig(p=3, theta0=np.array([0.1, 0.175, 0.25]),
                           noise=NoiseDist.gaussian(10.0), link="exp_nonlinear")
    with pytest.warns(RuntimeWarning, match=r"1 of 200 Newton fits did not converge at n = 120"):
        mc_moment_fit(cfg, ModelSpec.nonlinear_ls(), n_grid=[60, 120, 240], reps=200, seed=1)


@pytest.mark.parametrize("fitted,link", [(ModelSpec.logistic(), "linear"),
                                         (ModelSpec.ols(), "logistic")],
                         ids=["logistic-on-linear", "ols-on-logistic"])
def test_mc_moment_fit_rejects_model_fit_to_another_link(fitted, link):
    # theta0 is not the fit's target there: the coefficients would mean nothing
    cfg = GenerativeConfig(p=2, theta0=np.array([0.5, -0.5]),
                           noise=NoiseDist.gaussian(1.0), link=link)
    with pytest.raises(ConfigError, match=f"data link '{link}' does not match"):
        mc_moment_fit(cfg, fitted, n_grid=[60, 120, 240], reps=20, seed=0)


def test_oracle_passes_hold_at_most_chunk_elements_per_draw_array(monkeypatch):
    # 1e6 draws of p = 5 and 1000 replications of 240 x 3 both exceed _CHUNK
    # elements, so each must be split into several passes
    draws, fits = [], []
    gaussian, stacked = model_module._gaussian, oracles.fit_closed_stacked
    for module in (model_module, oracles):
        monkeypatch.setattr(module, "_gaussian",
                            lambda shape, *a: draws.append(shape) or gaussian(shape, *a))
    monkeypatch.setattr(oracles, "fit_closed_stacked",
                        lambda X, *a: fits.append(X.shape) or stacked(X, *a))

    wishart_check(WishartIdentity("E_SBS", np.eye(5), np.eye(5)), reps=10 ** 6, seed=0)
    assert max(np.prod(shape) for shape in draws) <= oracles._CHUNK
    assert sum(rows for rows, _ in draws) == 2 * 10 ** 6  # x1 and x2 for every draw

    draws.clear()
    cfg = GenerativeConfig(p=3, theta0=np.array([0.1, 0.175, 0.25]),
                           noise=NoiseDist.gaussian(1.0))
    mc_moment_fit(cfg, ModelSpec.ridge(0.5), n_grid=[60, 120, 240], reps=1000, seed=0)
    for shapes in (draws, fits):
        assert max(np.prod(shape) for shape in shapes) <= oracles._CHUNK
    for n in (60, 120, 240):
        assert sum(reps for reps, rows, _ in fits if rows == n) == 1000
