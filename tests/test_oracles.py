"""Wishart identity checks and the moment-fit oracle's own consistency."""

import threading
import tracemalloc
import warnings

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
from splitavg.estimator import (_solve_normal, fit_closed, fit_closed_stacked, fit_erm,
                                population_target)
from splitavg.model import Dataset, _draw, _gram_draw
from splitavg.oracles import FIRST_KIND_IDS

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


def _serial_check(w, reps, seed):
    """wishart_check's draws, mean and max |z| from one thread: x1 and x2 drawn whole."""
    rng1, rng2 = np.random.default_rng(seed).spawn(2)
    p, rows = w.p, int(oracles._BLOCK / w.p)
    x1, x2 = rng1.standard_normal((reps, p)), rng2.standard_normal((reps, p))
    if w._chol is not None:
        x1, x2 = x1 @ w._chol.T, x2 @ w._chol.T
    total, total_sq = np.zeros((p, p)), np.zeros((p, p))
    for r in range(0, reps, rows):
        wt, u, v = oracles._mc_terms(w, x1[r:r + rows], x2[r:r + rows])
        total += (u * wt[:, None]).T @ v
        total_sq += (u * u * (wt * wt)[:, None]).T @ (v * v)
    mean = total / reps
    se = np.sqrt(np.maximum((total_sq / reps - mean * mean) * reps / (reps - 1), 0.0) / reps)
    return (x1, x2), mean, float(np.max(np.abs(mean - wishart_closed_form(w)) / se))


def _stream(rng):
    """0 for wishart_check's x1 generator, 1 for its x2 generator."""
    return rng.bit_generator.seed_seq.spawn_key[-1]


def _recorded_check(monkeypatch, w, reps, seed):
    """wishart_check's result and its x1 and x2, each concatenated over the blocks.

    A stream that was never drawn comes back as an empty (0, p) array.
    """
    draws, gaussian = ([], []), model_module._gaussian
    monkeypatch.setattr(oracles, "_gaussian", lambda shape, chol, rng: draws[_stream(rng)].append(
        gaussian(shape, chol, rng)) or draws[_stream(rng)][-1])
    res = wishart_check(w, reps=reps, seed=seed)
    return res, tuple(np.concatenate(d) if d else np.empty((0, w.p)) for d in draws)


DENSE_SIGMA = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.5]])


# E_S2BS holds only for Sigma = I, so the dense x1-only case is E_SBS
@pytest.mark.parametrize("ident,sigma", [("E_SBS2BS", np.eye(3)), ("E_SBS2BS", DENSE_SIGMA),
                                         ("E_S2BS", np.eye(3)), ("E_SBS", DENSE_SIGMA)],
                         ids=["identity", "dense", "E_S2BS-identity", "E_SBS-dense"])
def test_wishart_check_equals_a_serial_loop(monkeypatch, ident, sigma):
    # blocks of 3334 draws, three of them and 17 more
    monkeypatch.setattr(oracles, "_BLOCK", 3 * 3_334)
    w = WishartIdentity(ident, sigma, np.diag([1.0, -0.5, 2.0]))
    reps = 3 * 3_334 + 17
    res, draws = _recorded_check(monkeypatch, w, reps, 12)
    want, mean, max_z = _serial_check(w, reps, 12)
    if ident in oracles.X1_ONLY_IDS:  # the serial loop's x2 never enters its sums
        assert draws[1].size == 0
        draws, want = draws[:1], want[:1]
    if w._chol is None:  # the same normals in the same sums: bitwise
        assert all(a.tobytes() == b.tobytes() for a, b in zip(draws, want))
        assert res.mc_estimate.tobytes() == mean.tobytes()
        assert res.max_abs_z == max_z
    else:  # the factor is applied to each block: equal to rounding
        np.testing.assert_allclose(res.mc_estimate, mean, rtol=1e-12)
        assert res.max_abs_z == pytest.approx(max_z, rel=1e-12)


@pytest.mark.parametrize("ident", ALL_IDENTITY_IDS)
def test_only_the_x1_only_identities_ignore_x2(ident):
    rng = np.random.default_rng(4)
    w = WishartIdentity(ident, np.eye(3), np.diag([1.0, -0.5, 2.0]))
    x1, x2 = rng.standard_normal((2, 50, 3))
    got = oracles._mc_terms(w, x1, x2)
    blind = oracles._mc_terms(w, x1, np.full_like(x2, np.nan))
    if ident in oracles.X1_ONLY_IDS:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, blind))
        none = oracles._mc_terms(w, x1, None)  # as wishart_check calls it: x2 is not read
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, none))
    else:
        assert not all(np.isfinite(f).all() for f in blind)


@pytest.mark.parametrize("sigma", [np.eye(3), DENSE_SIGMA], ids=["identity", "dense"])
def test_wishart_check_does_not_depend_on_the_block_size(monkeypatch, sigma):
    # nor on the moment fit's memory budget
    w = WishartIdentity("E_SBS", sigma, np.diag([1.0, -0.5, 2.0]))
    runs = []
    for block, chunk in ((3 * 1_000, 1e4), (oracles._BLOCK, oracles._CHUNK), (3 * 10_001, 1e6)):
        monkeypatch.setattr(oracles, "_BLOCK", block)
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        runs.append(_recorded_check(monkeypatch, w, 20_017, 3))
    (first, first_draws), *rest = runs
    for res, draws in rest:
        np.testing.assert_allclose(res.mc_estimate, first.mc_estimate, rtol=1e-12)
        if w._chol is None:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(draws, first_draws))


def test_wishart_check_draws_x1_on_one_worker_and_x2_on_the_caller(monkeypatch):
    # each generator has one thread, and one draw array holds one block
    calls, gaussian = [], oracles._gaussian
    monkeypatch.setattr(oracles, "_gaussian", lambda shape, chol, rng: calls.append(
        (shape, _stream(rng), threading.get_ident())) or gaussian(shape, chol, rng))
    wishart_check(WishartIdentity("E_SS22BS", np.eye(5), np.eye(5)), reps=10 ** 6, seed=0)
    assert max(np.prod(shape) for shape, _, _ in calls) <= oracles._BLOCK
    for stream in (0, 1):
        assert sum(shape[0] for shape, s, _ in calls if s == stream) == 10 ** 6
    x1_drawers = {ident for _, s, ident in calls if s == 0}
    assert len(x1_drawers) == 1 and threading.get_ident() not in x1_drawers
    assert {ident for _, s, ident in calls if s == 1} == {threading.get_ident()}


def test_wishart_check_sums_in_blocks_on_the_calling_thread(monkeypatch):
    # cache-sized blocks, whose products BLAS keeps off the drawing worker's core
    calls, terms = [], oracles._mc_terms
    monkeypatch.setattr(oracles, "_mc_terms", lambda w, x1, x2: calls.append(
        (x1.size, threading.get_ident())) or terms(w, x1, x2))
    wishart_check(WishartIdentity("E_SS22BS", np.eye(5), np.eye(5)), reps=10 ** 6, seed=0)
    assert max(size for size, _ in calls) <= oracles._BLOCK
    assert sum(size for size, _ in calls) == 5 * 10 ** 6
    assert {ident for _, ident in calls} == {threading.get_ident()}


def _failing_draw(monkeypatch, fail_stream, fail_block):
    """Make the draw of block ``fail_block`` (from 0) of one stream raise; count draws."""
    counts, gaussian = [0, 0], oracles._gaussian

    def draw(shape, chol, rng):
        stream = _stream(rng)
        counts[stream] += 1
        if stream == fail_stream and counts[stream] == fail_block + 1:
            raise MemoryError("draw failed")
        return gaussian(shape, chol, rng)

    monkeypatch.setattr(oracles, "_gaussian", draw)
    return counts


def test_a_failed_draw_propagates_and_leaves_no_thread(monkeypatch):
    counts = _failing_draw(monkeypatch, fail_stream=0, fail_block=2)  # block 2's x1
    before = set(threading.enumerate())
    with pytest.raises(MemoryError, match="draw failed"):
        wishart_check(WishartIdentity("E_SS22BS", np.eye(5), np.eye(5)), reps=10 ** 6, seed=0)
    assert set(threading.enumerate()) == before
    assert counts == [3, 2]  # no x1 draw follows the failed one, no x2 for its block


def test_a_failed_x2_draw_on_the_calling_thread_propagates(monkeypatch):
    counts = _failing_draw(monkeypatch, fail_stream=1, fail_block=2)  # block 2's x2
    before = set(threading.enumerate())
    with pytest.raises(MemoryError, match="draw failed"):
        wishart_check(WishartIdentity("E_SS22BS", np.eye(5), np.eye(5)), reps=10 ** 6, seed=0)
    assert set(threading.enumerate()) == before
    assert counts[1] == 3
    assert counts[0] <= 4  # the worker drew at most one x1 block past the failed block


@pytest.mark.parametrize("reps", [2, 37, 2000])
@pytest.mark.parametrize("p", [1, 3, 50])
def test_mean_se_matches_the_two_pass_definition(p, reps):
    # the rule mc_moment_fit applies to the sums of e e' and of its square
    errs = np.random.default_rng(100 * p + reps).standard_normal((reps, p)) * np.arange(1, p + 1)
    sq = errs * errs
    mean, se = oracles._mean_se(errs.T @ errs, sq.T @ sq, reps)
    prods = np.einsum("ri,rj->rij", errs, errs)
    want_mean, want_se = prods.mean(0), prods.std(0, ddof=1) / np.sqrt(reps)
    assert np.abs(mean - want_mean).max() <= 1e-12 * np.abs(want_mean).max()
    assert np.abs(se - want_se).max() <= 1e-12 * np.abs(want_se).max()


@pytest.mark.parametrize("reps", [2, 37, 2000])
def test_mean_se_of_constant_draws_is_finite_and_zero(reps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # products and squares of these sum exactly: SE exactly 0
        errs = np.tile([0.5, -2.0, 3.0, 0.0], (reps, 1))
        sq = errs * errs
        mean, se = oracles._mean_se(errs.T @ errs, sq.T @ sq, reps)
        assert np.array_equal(mean, np.outer(errs[0], errs[0])) and not se.any()
        # these leave a rounding residue of either sign in the one-pass variance,
        # which stays finite and at the scale of the rounding
        errs = np.tile([0.1, 0.3, -0.7, 1 / 3, 0.6], (reps, 1))
        sq = errs * errs
        mean, se = oracles._mean_se(errs.T @ errs, sq.T @ sq, reps)
        assert np.isfinite(se).all() and se.max() <= 1e-7 * np.abs(mean).max()


def test_mc_moment_fit_ols_bias_is_zero():
    cfg = GenerativeConfig(p=2, theta0=np.array([1.0, 2.0]),
                           noise=NoiseDist.gaussian(1.0))
    fit = mc_moment_fit(cfg, ModelSpec.ols(), n_grid=[60, 120, 240],
                        reps=30_000, seed=4)
    delta_hat, delta_se = fit.bias_coeffs[0], fit.bias_se[0]
    assert np.all(np.abs(delta_hat) <= 3 * delta_se)


# (model, data link, noise, theta0): closed forms under both noises, then the
# Newton models
ERRORS_CASES = {
    "ols-gaussian": (ModelSpec.ols(), "linear", NoiseDist.gaussian(2.0), [1.0, -2.0, 0.5]),
    "ridge-gaussian": (ModelSpec.ridge(0.5), "linear", NoiseDist.gaussian(2.0),
                       [1.0, -2.0, 0.5]),
    "ols-laplace": (ModelSpec.ols(), "linear", NoiseDist.laplace(0.7), [1.0, -2.0, 0.5]),
    "ridge-laplace": (ModelSpec.ridge(0.5), "linear", NoiseDist.laplace(0.7),
                      [1.0, -2.0, 0.5]),
    "nls": (ModelSpec.nonlinear_ls(), "exp_nonlinear", NoiseDist.gaussian(2.0),
            [0.2, -0.4, 0.1]),
    "logistic": (ModelSpec.logistic(), "logistic", NoiseDist.gaussian(1.0), [0.2, -0.4, 0.1]),
}


# 500 elements make passes of 4 replications of 40 x 3 designs
@pytest.mark.parametrize("budget", [oracles._CHUNK, 500])
@pytest.mark.parametrize("case", sorted(ERRORS_CASES))
def test_errors_match_per_replication_fits(monkeypatch, case, budget):
    model, link, noise, theta0 = ERRORS_CASES[case]
    cfg = GenerativeConfig(p=3, theta0=np.array(theta0), noise=noise, link=link,
                           sigma_spec=np.array([1.0, 2.0, 0.5]))
    n, reps = 40, 25
    monkeypatch.setattr(oracles, "_CHUNK", budget)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        errs = oracles._errors(cfg, model, n, reps, np.random.default_rng(6))
    # the same draws, pass by pass, fitted one replication at a time
    rng = np.random.default_rng(6)
    target = population_target(cfg, model)
    exact = model.is_closed_form and noise.kind == "gaussian"
    chunk = max(1, int(budget / (cfg.p ** 2 if exact else n * cfg.p)))
    expect = []
    for done in range(0, reps, chunk):
        c = min(chunk, reps - done)
        if exact:  # exact (X'X, X'y) draws
            G, b = _gram_draw(cfg, c, n, rng)
            expect += [_solve_normal(G[r], b[r], n, model.penalty) for r in range(c)]
            continue
        X, y = _draw(cfg, (c, n), rng)
        for r in range(c):
            d = Dataset(X[r], y[r])
            expect.append(fit_closed(d, model.penalty) if model.is_closed_form else
                          fit_erm(d, model, init=target, tol=1e-8).theta_hat)
    expect = np.array(expect) - target
    if model.is_closed_form:
        assert np.max(np.abs(errs - expect)) <= 1e-12
    else:  # a stacked Newton fit is its slices' lone fits bitwise
        assert np.array_equal(errs, expect)


@pytest.mark.parametrize("model", [ModelSpec.ols(), ModelSpec.ridge(0.5)])
def test_exact_gram_errors_match_design_errors_in_law(model):
    # two independent samples of 2e4 errors: one solved from exact (X'X, X'y)
    # draws, one fitted to drawn designs; the mean and every second moment agree
    cfg = GenerativeConfig(p=3, theta0=np.array([1.0, -2.0, 0.5]),
                           noise=NoiseDist.gaussian(2.0), sigma_spec=np.array([1.0, 2.0, 0.5]))
    n, reps = 30, 20_000
    exact = oracles._errors(cfg, model, n, reps, np.random.default_rng(21))
    design = fit_closed_stacked(*_draw(cfg, (reps, n), np.random.default_rng(22)),
                                model.penalty) - population_target(cfg, model)
    for stat in (lambda e: e, lambda e: np.einsum("ri,rj->rij", e, e)):
        a, b = stat(exact), stat(design)
        se = np.sqrt((a.var(0, ddof=1) + b.var(0, ddof=1)) / reps)
        assert np.max(np.abs(a.mean(0) - b.mean(0)) / se) <= 5.0


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
    # one NLS fit at n = 60 stops at the iteration cap with grad norm
    # 2.0e-8 > 1e-8; it must not be averaged in silently
    cfg = GenerativeConfig(p=3, theta0=np.array([0.1, 0.175, 0.25]),
                           noise=NoiseDist.gaussian(10.0), link="exp_nonlinear")
    with pytest.warns(RuntimeWarning, match=r"1 of 200 Newton fits did not converge at n = 60"):
        mc_moment_fit(cfg, ModelSpec.nonlinear_ls(), n_grid=[60, 120, 240], reps=200, seed=2)


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
    # 1e6 draws of p = 5, 1000 replications of 240 x 3 designs and 1000
    # Bartlett factors of 25 x 25 all exceed _CHUNK elements, so each must be
    # split into several passes
    draws, fits, grams = [], [], []
    gaussian, stats, gram = model_module._gaussian, oracles._normal_stats, _gram_draw
    for module in (model_module, oracles):
        monkeypatch.setattr(module, "_gaussian",
                            lambda shape, *a: draws.append(shape) or gaussian(shape, *a))
    monkeypatch.setattr(oracles, "_normal_stats",
                        lambda X, *a: fits.append(X.shape) or stats(X, *a))
    monkeypatch.setattr(oracles, "_gram_draw",
                        lambda cfg, c, n, rng: grams.append((c, n, cfg.p)) or gram(cfg, c, n, rng))

    wishart_check(WishartIdentity("E_SBS", np.eye(5), np.eye(5)), reps=10 ** 6, seed=0)
    assert max(np.prod(shape) for shape in draws) <= oracles._CHUNK
    assert sum(rows for rows, _ in draws) == 10 ** 6  # E_SBS reads no x2

    draws.clear()
    wishart_check(WishartIdentity("E_SS2BS", np.eye(5), np.eye(5)), reps=10 ** 6, seed=0)
    assert max(np.prod(shape) for shape in draws) <= oracles._CHUNK
    assert sum(rows for rows, _ in draws) == 2 * 10 ** 6  # x1 and x2 for every draw

    draws.clear()
    cfg = GenerativeConfig(p=3, theta0=np.array([0.1, 0.175, 0.25]),
                           noise=NoiseDist.laplace(0.5))  # no exact law: design passes
    mc_moment_fit(cfg, ModelSpec.ridge(0.5), n_grid=[60, 120, 240], reps=1000, seed=0)
    for shapes in (draws, fits):
        assert max(np.prod(shape) for shape in shapes) <= oracles._CHUNK
    for n in (60, 120, 240):
        assert sum(reps for reps, rows, _ in fits if rows == n) == 1000
    assert grams == []

    draws.clear()
    fits.clear()
    cfg = GenerativeConfig(p=25, theta0=np.linspace(0.1, 0.25, 25),
                           noise=NoiseDist.gaussian(1.0))
    mc_moment_fit(cfg, ModelSpec.ridge(0.5), n_grid=[250, 500, 1000], reps=1000, seed=0)
    assert draws == [] and fits == []
    assert max(c * p * p for c, _, p in grams) <= oracles._CHUNK
    for n in (250, 500, 1000):
        assert sum(c for c, rows, _ in grams if rows == n) == 1000


def test_newton_moment_fit_pass_holds_its_designs_once():
    # one full pass of NLS designs at p = 3, n = 240; a list of datasets kept
    # beside its stacked copy peaked at 6.4 times the stacked design's bytes
    cfg = GenerativeConfig(p=3, theta0=np.array([0.1, 0.175, 0.25]),
                           noise=NoiseDist.gaussian(1.0), link="exp_nonlinear")
    n = 240
    reps = int(oracles._CHUNK / (n * cfg.p))
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            oracles._errors(cfg, ModelSpec.nonlinear_ls(), n, reps, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * reps * n * cfg.p * 8


def test_moment_fit_builds_no_array_over_chunk_elements(monkeypatch):
    # at p = 50 the outer products of all 2000 errors would hold 5e6 elements;
    # every array the oracle gets from numpy and every exact draw stays
    # within _CHUNK
    sizes, calls = [], []

    def recorded(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            sizes.extend(np.size(x) for x in (out if isinstance(out, tuple) else (out,)))
            calls.append(fn)
            return out
        return call

    class RecordingNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            return recorded(attr) if callable(attr) and not isinstance(attr, type) else attr

    monkeypatch.setattr(oracles, "np", RecordingNumpy())
    monkeypatch.setattr(oracles, "_gram_draw", recorded(_gram_draw))
    cfg = GenerativeConfig(p=50, theta0=np.full(50, 0.1), noise=NoiseDist.gaussian(1.0))
    mc_moment_fit(cfg, ModelSpec.ridge(1.0), n_grid=[500, 1000, 2000], reps=2000, seed=0)
    # every Bartlett pass was seen: 3 n x 2000 reps / 200 a pass
    assert calls.count(_gram_draw) == 30
    assert max(sizes) <= oracles._CHUNK
