"""Closed-form moment sets against the simulation oracle; MSE matrix algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitavg import (
    ConfigError,
    GammaSet,
    GenerativeConfig,
    ModelSpec,
    NoiseDist,
    bias2,
    lam_kl,
    m2_excess,
    m2_parallel,
    mc_moment_fit,
    ols_gammas,
    ridge_gammas,
)


def test_ols_gammas_identity_covariance():
    g = ols_gammas(None, 1.0, 2)
    assert np.allclose(g.delta, 0)
    assert np.allclose(g.gamma0, 0)
    assert np.allclose(g.gamma1, np.eye(2))
    assert np.allclose(g.gamma2, -3 * np.eye(2))
    assert np.allclose(g.gamma3, 3 * np.eye(2))
    assert np.allclose(g.gamma4, 3 * np.eye(2))


def test_ols_gammas_noiseless_and_general_sigma():
    g = ols_gammas(None, 0.0, 3)
    for name in ("gamma0", "gamma1", "gamma2", "gamma3", "gamma4"):
        assert np.allclose(getattr(g, name), 0)
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = ols_gammas(sigma, 2.0, 2)
    assert np.allclose(g.gamma1, 2.0 * np.linalg.inv(sigma))
    assert np.allclose(g.gamma0, 0)


def test_ridge_gammas_reduce_to_ols_at_zero_penalty():
    theta0 = np.array([0.7, -0.2, 0.1])
    r = ridge_gammas(theta0, 1.5, 0.0)
    o = ols_gammas(None, 1.5, 3)
    for name in ("delta", "gamma0", "gamma1", "gamma2", "gamma3", "gamma4"):
        assert np.allclose(getattr(r, name), getattr(o, name))


def test_ridge_gamma0_frozen_example():
    # lam = 1, p = 2, theta0 = e1: lam_{2,6} (1+p)^2 = (1/64) * 9
    g = ridge_gammas(np.array([1.0, 0.0]), 1.0, 1.0)
    expect = np.zeros((2, 2))
    expect[0, 0] = 9.0 / 64.0
    assert np.allclose(g.gamma0, expect)
    assert np.allclose(g.delta, [-3.0 / 8.0, 0.0])


def test_ridge_gammas_null_coefficients():
    g = ridge_gammas(np.zeros(2), 2.0, 1.0)
    assert np.allclose(g.gamma0, 0)
    assert np.allclose(g.gamma1, lam_kl(1.0, 0, 2) * 2.0 * np.eye(2))


def test_bias2_values():
    g = ols_gammas(None, 3.0, 4)
    assert np.allclose(bias2(g, 100, 7), 0)
    # ridge: first coordinate -(1/n) lam_{1,3} (1+p) at lam = 1, p = 100
    theta0 = np.zeros(100)
    theta0[0] = 1.0
    g = ridge_gammas(theta0, 1.0, 1.0)
    b = bias2(g, 500, 20)
    assert b[0] == pytest.approx(-(1 / 500) * (1 / 8) * 101)
    assert b[0] == pytest.approx(-0.02525)
    assert np.allclose(b[1:], 0)


def test_bias_scales_like_machine_count():
    theta0 = np.array([1.0, -2.0])
    g = ridge_gammas(theta0, 1.0, 0.5)
    m, n = 8, 250
    ratio = bias2(g, n, m) / bias2(g, n * m, 1)
    assert np.allclose(ratio[np.abs(g.delta) > 0], m)


def test_m2_parallel_single_machine_collapse():
    g = ridge_gammas(np.array([0.3, 0.9]), 1.2, 0.7)
    n = 300
    expect = g.gamma1 / n + g.second_order_sum() / n ** 2
    assert np.allclose(m2_parallel(g, n, 1), expect)


def test_m2_parallel_ols_trace_formula():
    p, s2, n, m = 5, 2.0, 400, 8
    g = ols_gammas(None, s2, p)
    tr = np.trace(m2_parallel(g, n, m))
    assert tr == pytest.approx(s2 * p / (m * n) + (1 + p) * s2 * p / (m * n * n))


def test_m2_excess_ols_closed_form():
    # (m-1)/m^2 * (1+p) sigma^2 Sigma^-1 / n^2; the m-power is pinned by the
    # exact finite-n inverse-Wishart law checked below.
    p, s2, n, m = 3, 1.0, 200, 4
    g = ols_gammas(None, s2, p)
    expect = (m - 1) / (m * m * n * n) * (1 + p) * s2 * np.eye(p)
    assert np.allclose(m2_excess(g, n, m), expect)
    evals = np.linalg.eigvalsh(m2_excess(g, n, m))
    assert np.all(evals > 0)
    # exact law: averaged MSE = sigma^2 p / (m (n-p-1)), centralized at N = mn
    exact_excess = s2 * p * (1 / (m * (n - p - 1)) - 1 / (m * n - p - 1))
    assert np.trace(m2_excess(g, n, m)) == pytest.approx(exact_excess, rel=0.03)


def test_m2_excess_zero_for_single_machine():
    g = ols_gammas(None, 1.0, 3)
    assert np.allclose(m2_excess(g, 100, 1), 0)


def test_m2_excess_ridge_positive_definite_noiseless():
    # With sigma^2 = 0 every surviving term is a positive multiple of B or A.
    g = ridge_gammas(np.array([1.0, 0.0]), 0.0, 1.0)
    excess = m2_excess(g, 100, 5)
    assert np.all(np.linalg.eigvalsh(excess) > 0)


@st.composite
def gamma_sets(draw):
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    delta = rng.normal(size=p)
    root = rng.normal(size=(p, p))
    gamma1 = root @ root.T
    g2, g3r, g4 = (rng.normal(size=(p, p)) for _ in range(3))
    g3 = g3r + g3r.T
    return GammaSet(delta, np.outer(delta, delta), gamma1, g2, g3, g4)


@given(g=gamma_sets(), n=st.integers(10, 10 ** 5), m=st.integers(1, 200))
@settings(max_examples=80, deadline=None)
def test_excess_identity(g, n, m):
    lhs = m2_excess(g, n, m)
    rhs = m2_parallel(g, n, m) - m2_parallel(g, n * m, 1)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-18)


@given(g=gamma_sets())
@settings(max_examples=30, deadline=None)
def test_gamma0_rank_and_symmetry(g):
    assert np.linalg.matrix_rank(g.gamma0, tol=1e-10) <= 1
    assert np.allclose(m2_parallel(g, 50, 3), m2_parallel(g, 50, 3).T)


def test_gamma_set_validation():
    with pytest.raises(ConfigError):
        GammaSet(np.ones(2), np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    empty = np.zeros((0, 0))
    with pytest.raises(ConfigError, match="p must be >= 1"):
        GammaSet(np.zeros(0), empty, empty, empty, empty, empty)


# --- Monte-Carlo oracle agreement -----------------------------------------


def test_mc_oracle_confirms_ols_second_order_sum():
    cfg = GenerativeConfig(p=2, theta0=np.array([0.3, -0.2]),
                           noise=NoiseDist.gaussian(1.0))
    fit = mc_moment_fit(cfg, ModelSpec.ols(), n_grid=[100, 200, 400],
                        reps=60_000, seed=1)
    delta_hat, delta_se = fit.bias_coeffs[0], fit.bias_se[0]
    assert np.all(np.abs(delta_hat) <= 3 * delta_se)
    g1, total = fit.mse_coeffs
    g1_se, total_se = fit.mse_se
    assert abs(np.trace(g1) - 2.0) <= 3 * np.sqrt(np.trace(g1_se ** 2))
    assert abs(np.trace(total) - 6.0) <= 3 * np.sqrt(np.trace(total_se ** 2))


def test_mc_oracle_confirms_ridge_moments():
    theta0 = np.array([1.0, 0.0])
    cfg = GenerativeConfig(p=2, theta0=theta0, noise=NoiseDist.gaussian(1.0))
    fit = mc_moment_fit(cfg, ModelSpec.ridge(1.0), n_grid=[40, 80, 160],
                        reps=150_000, seed=2)
    gam = ridge_gammas(theta0, 1.0, 1.0)
    delta_hat, delta_se = fit.bias_coeffs[0], fit.bias_se[0]
    assert np.all(np.abs(delta_hat - gam.delta) <= 3 * delta_se)
    g1, total = fit.mse_coeffs
    g1_se, total_se = fit.mse_se
    assert np.all(np.abs(np.diag(g1) - np.diag(gam.gamma1)) <= 3 * np.diag(g1_se))
    expect_sum = np.diag(gam.second_order_sum())
    assert np.all(np.abs(np.diag(total) - expect_sum) <= 3.5 * np.diag(total_se))
    # The simulated coefficients reject the uncorrected printed variants of
    # gamma3/gamma4 (B-weight 5+p+p^2; one shrinkage power less), which would
    # put the diagonal near (+0.80, +0.44) here instead of (-0.02, -0.16).
    printed = np.array([0.796875, 0.4375])
    z_printed = np.abs(np.diag(total) - printed) / np.diag(total_se)
    assert np.min(z_printed) > 5
