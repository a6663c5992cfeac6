"""Generative sampling and uniform splitting."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitavg.model as model

from splitavg import (
    ConfigError,
    DivisibilityError,
    GenerativeConfig,
    HighDimRegime,
    LossSpec,
    NoiseDist,
    ols_gammas,
    sample_dataset,
    split_uniform,
)


def _cfg(p=3, link="linear", noise=None, sigma=None, theta0=None):
    theta0 = np.arange(1.0, p + 1) if theta0 is None else theta0
    return GenerativeConfig(p=p, theta0=theta0,
                            noise=noise or NoiseDist.gaussian(1.0),
                            link=link, sigma_spec=sigma)


def test_sampling_is_bit_reproducible():
    cfg = _cfg()
    a = sample_dataset(cfg, 100, seed=7)
    b = sample_dataset(cfg, 100, seed=7)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    c = sample_dataset(cfg, 100, seed=8)
    assert not np.array_equal(a.y, c.y)


def test_noiseless_linear_is_exact():
    cfg = _cfg(noise=NoiseDist.gaussian(0.0))
    d = sample_dataset(cfg, 50, seed=1)
    assert np.allclose(d.y, d.X @ cfg.theta0)


def test_exp_link_response():
    cfg = _cfg(link="exp_nonlinear", noise=NoiseDist.gaussian(0.0))
    d = sample_dataset(cfg, 50, seed=2)
    assert np.allclose(d.y, np.exp(d.X @ cfg.theta0))


def test_logistic_responses_are_binary_with_correct_mean():
    p = 4
    theta0 = np.array([1.0, -0.5, 0.25, 2.0])
    cfg = _cfg(p=p, theta0=theta0, link="logistic")
    n = 100_000
    d = sample_dataset(cfg, n, seed=11)
    assert set(np.unique(d.y)) <= {0.0, 1.0}
    # independent Monte-Carlo oracle for E[Psi(X' theta0)]
    rng = np.random.default_rng(999)
    s = rng.standard_normal((200_000, p)) @ theta0
    oracle = float(np.mean(1.0 / (1.0 + np.exp(-s))))
    se = 0.5 / np.sqrt(n) + 0.5 / np.sqrt(200_000)
    assert abs(d.y.mean() - oracle) <= 4 * se


def test_logistic_draw_far_out_on_the_link_does_not_overflow():
    cfg = _cfg(p=2, theta0=np.array([800.0, 0.0]), link="logistic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = sample_dataset(cfg, 50, seed=1)
    # most indices x' theta0 pass |s| > 709, where exp(-s) overflows
    far = np.abs(800.0 * d.X[:, 0]) > 40.0
    assert far.sum() > 40
    assert np.array_equal(d.y[far], (d.X[far, 0] > 0).astype(float))


def test_empirical_covariance_converges():
    p = 5
    diag = np.array([1.0, 2.0, 0.5, 1.5, 3.0])
    cfg = _cfg(p=p, sigma=diag, theta0=np.zeros(p))
    n = 100_000
    d = sample_dataset(cfg, n, seed=3)
    emp = d.X.T @ d.X / n
    assert np.max(np.abs(emp - np.diag(diag))) <= 5 / np.sqrt(n)


def test_laplace_noise_moments_and_determinism():
    scale = 1.5
    noise = NoiseDist.laplace(scale)
    assert noise.variance == pytest.approx(2 * scale * scale)
    cfg = _cfg(p=1, theta0=np.zeros(1), noise=noise)
    d = sample_dataset(cfg, 200_000, seed=5)
    assert d.y.var() == pytest.approx(noise.variance, rel=0.02)
    assert d.y.mean() == pytest.approx(0.0, abs=0.02)


def test_split_partition_properties():
    cfg = _cfg()
    d = sample_dataset(cfg, 60, seed=1)
    shards = split_uniform(d, 3, seed=2)
    assert [s.n for s in shards] == [20, 20, 20]
    stacked = np.vstack([s.X for s in shards])
    assert np.array_equal(
        np.sort(stacked.round(12), axis=0), np.sort(d.X.round(12), axis=0))


def test_split_single_machine_is_permutation():
    cfg = _cfg()
    d = sample_dataset(cfg, 30, seed=1)
    (shard,) = split_uniform(d, 1, seed=9)
    assert shard.n == d.n
    assert np.array_equal(np.sort(shard.y), np.sort(d.y))


def test_split_divisibility_error():
    cfg = _cfg()
    d = sample_dataset(cfg, 6, seed=1)
    assert len(split_uniform(d, 3, seed=0)) == 3
    with pytest.raises(DivisibilityError):
        split_uniform(d, 4, seed=0)


@given(m=st.integers(1, 12), chunks=st.integers(1, 6), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_split_every_row_appears_once(m, chunks, seed):
    n = m * chunks
    cfg = _cfg(p=2, theta0=np.ones(2))
    d = sample_dataset(cfg, n, seed=0)
    shards = split_uniform(d, m, seed=seed)
    rows = np.vstack([s.X for s in shards])
    assert rows.shape == d.X.shape
    order = np.lexsort(rows.T)
    base = np.lexsort(d.X.T)
    assert np.allclose(rows[order], d.X[base])


def test_config_validation():
    with pytest.raises(ConfigError):
        GenerativeConfig(p=2, theta0=np.ones(3), noise=NoiseDist.gaussian(1.0))
    bad_sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ConfigError):
        GenerativeConfig(p=2, theta0=np.ones(2), noise=NoiseDist.gaussian(1.0),
                         sigma_spec=bad_sigma)
    with pytest.raises(ConfigError):
        NoiseDist.laplace(0.0)
    with pytest.raises(ConfigError):
        NoiseDist.gaussian(-1.0)
    with pytest.raises(ConfigError):
        sample_dataset(_cfg(), 0, seed=0)
    with pytest.raises(ConfigError, match="finite"):
        _cfg(p=2, sigma=np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ConfigError, match="seed"):
        sample_dataset(_cfg(), 10, seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        split_uniform(sample_dataset(_cfg(), 10, seed=0), 2, seed=-1)


@pytest.mark.parametrize("call", [
    lambda: HighDimRegime(LossSpec.squared(), NoiseDist.gaussian(1.0), p=0),
    lambda: HighDimRegime(LossSpec.squared(), NoiseDist.gaussian(1.0), p=-3),
    lambda: ols_gammas(None, 1.0, -1),
], ids=["highdim-p0", "highdim-p-3", "ols_gammas-p-1"])
def test_every_covariance_caller_rejects_dimension_below_one(call):
    # model._covariance judges p for every caller, before any array is built
    with pytest.raises(ConfigError, match="dimension p must be >= 1"):
        call()


@pytest.mark.parametrize("make,param", [
    (NoiseDist.gaussian, float("nan")), (NoiseDist.gaussian, float("inf")),
    (NoiseDist.laplace, float("nan")), (NoiseDist.laplace, float("inf")),
], ids=["gaussian-nan", "gaussian-inf", "laplace-nan", "laplace-inf"])
def test_noise_parameter_must_be_finite(make, param):
    with pytest.raises(ConfigError):
        make(param)


@pytest.mark.parametrize("spec", [None, np.array([1.0, 2.0, 0.5]),
                                  np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])],
                         ids=["identity", "diagonal", "dense"])
def test_sigma_is_the_matrix_checked_at_construction(monkeypatch, spec):
    cfg = _cfg(sigma=spec)
    calls = []
    covariance = model._covariance
    monkeypatch.setattr(model, "_covariance", lambda *a: calls.append(a) or covariance(*a))
    reads = [cfg.sigma for _ in range(3)]
    assert calls == []
    want = model.sigma_as_matrix(spec, 3)
    for got in reads:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_config_keeps_a_read_only_copy_of_theta0():
    theta0 = np.array([1.0, -2.0, 0.5])
    cfg = _cfg(theta0=theta0)
    before = sample_dataset(cfg, 50, seed=3)
    theta0[1] = 7.0  # the caller's array, edited after construction
    assert cfg.theta0.tolist() == [1.0, -2.0, 0.5]
    with pytest.raises(ValueError, match="read-only"):
        cfg.theta0[1] = 7.0
    after = sample_dataset(cfg, 50, seed=3)
    assert after.y.tobytes() == before.y.tobytes()


@pytest.mark.parametrize("spec", [np.array([1.0, 2.0, 0.5]),
                                  np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])],
                         ids=["diagonal", "dense"])
def test_config_keeps_a_read_only_copy_of_sigma(spec):
    cfg = _cfg(sigma=spec)
    want, before = spec.copy(), sample_dataset(cfg, 50, seed=3)
    spec *= 4.0  # the caller's array, edited after construction
    assert cfg.sigma_spec.tobytes() == want.tobytes()
    assert cfg.sigma.tobytes() == model.sigma_as_matrix(want, 3).tobytes()
    for arr in (cfg.sigma_spec, cfg.sigma):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 9.0
    after = sample_dataset(cfg, 50, seed=3)
    assert after.X.tobytes() == before.X.tobytes()


@pytest.mark.parametrize("n", [3, 40])
@pytest.mark.parametrize("sigma", [np.array([0.5, 1.0, 2.0]),
                                   np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.5]])],
                         ids=["diagonal", "dense"])
def test_gram_draw_has_the_exact_moments_of_x_x_and_x_y(sigma, n):
    # n rows x ~ N(0, S), y = x'theta0 + eps, eps ~ N(0, s2):
    #   E X'X = n S,  Var (X'X)_ij = n (S_ij^2 + S_ii S_jj),
    #   E X'y = n S theta0,  Cov X'y = n ((theta0' S theta0) S + S theta0 theta0' S + s2 S)
    theta0, s2, draws = np.array([1.0, -2.0, 0.5]), 2.0, 10 ** 5
    cfg = _cfg(theta0=theta0, noise=NoiseDist.gaussian(s2), sigma=sigma)
    G, b = model._gram_draw(cfg, draws, n, np.random.default_rng(31))
    S = cfg.sigma
    st = S @ theta0
    var_g = n * (S * S + np.outer(np.diag(S), np.diag(S)))
    cov_b = n * ((theta0 @ st) * S + np.outer(st, st) + s2 * S)
    z = [(G.mean(0) - n * S) / np.sqrt(var_g / draws),
         (b.mean(0) - n * st) / np.sqrt(np.diag(cov_b) / draws)]
    # second moments about the exact means, with their empirical standard errors
    db = b - n * st
    for dev, exact in (((G - n * S) ** 2, var_g), (np.einsum("ri,rj->rij", db, db), cov_b)):
        z.append((dev.mean(0) - exact) / np.sqrt(dev.var(0, ddof=1) / draws))
    assert max(np.max(np.abs(zs)) for zs in z) <= 5.0


@pytest.mark.parametrize("cfg,n,match", [
    (_cfg(), 2, "n >= p = 3"),
    (_cfg(noise=NoiseDist.laplace(1.0)), 10, "gaussian noise"),
    (_cfg(link="exp_nonlinear"), 10, "linear link"),
    (_cfg(link="logistic"), 10, "linear link"),
], ids=["n-below-p", "laplace", "exp_nonlinear", "logistic"])
def test_gram_draw_rejects_laws_without_an_exact_draw(cfg, n, match):
    with pytest.raises(ConfigError, match=match):
        model._gram_draw(cfg, 4, n, np.random.default_rng(0))
