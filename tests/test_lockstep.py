"""Lockstep Newton over stacked datasets against per-dataset fits, bit for bit."""

import hashlib
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotrf as sp_potrf

import splitavg.estimator as est
import splitavg.oracles as oracles
from splitavg import (
    Dataset,
    ExperimentConfig,
    GenerativeConfig,
    MachineFitError,
    ModelSpec,
    NoiseDist,
    SingularHessianError,
    fit_erm,
    fit_erm_stacked,
    mc_moment_fit,
    run_replication,
    sample_dataset,
    split_uniform,
)
from splitavg.estimator import _cho_solve_stack

P, N_SHARD, M = 10, 200, 10  # the ratio-sweep shape
THETA0 = np.arange(1.0, P + 1.0) / np.linalg.norm(np.arange(1.0, P + 1.0))
NOISES = {"gaussian10": NoiseDist.gaussian(10.0), "laplace1": NoiseDist.laplace(1.0)}
MODELS = {"logistic": ModelSpec.logistic(), "nls": ModelSpec.nonlinear_ls()}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _stack(shards):
    return np.stack([s.X for s in shards]), np.stack([s.y for s in shards])


def _assert_same_reports(stacked, single):
    assert len(stacked) == len(single)
    for a, b in zip(stacked, single):
        assert a.theta_hat.tobytes() == b.theta_hat.tobytes()
        assert float(a.grad_norm).hex() == float(b.grad_norm).hex()
        assert (a.iterations, a.converged) == (b.iterations, b.converged)


def _shards(model_name, noise_name, seed, n=N_SHARD, m=M):
    model = MODELS[model_name]
    gen = GenerativeConfig(p=P, theta0=THETA0, noise=NOISES[noise_name], link=model.link)
    return model, split_uniform(sample_dataset(gen, n * m, seed), m, seed + 100)


@pytest.mark.parametrize("max_iter", [None, 0, 1, 2, 5])
@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_stacked_reports_equal_per_slice_fits(model_name, noise_name, max_iter):
    kw = {} if max_iter is None else {"max_iter": max_iter}
    for seed in (0, 1):
        model, shards = _shards(model_name, noise_name, seed)
        for tol in (1e-6, None):
            stacked = fit_erm_stacked(*_stack(shards), model, tol=tol, **kw)
            _assert_same_reports(stacked, [fit_erm(s, model, tol=tol, **kw) for s in shards])


@pytest.mark.parametrize("max_iter", [0, 1, 2, 5, 60])
def test_separable_logistic_stack_equals_per_slice_fits(max_iter):
    rng = np.random.default_rng(0)
    shards = []
    for _ in range(3):
        X = rng.standard_normal((60, 2))
        shards.append(Dataset(X, (X @ np.array([1.0, 1.0]) > 0).astype(float)))
    stacked = fit_erm_stacked(*_stack(shards), ModelSpec.logistic(), max_iter=max_iter)
    single = [fit_erm(s, ModelSpec.logistic(), max_iter=max_iter) for s in shards]
    _assert_same_reports(stacked, single)
    assert not any(r.converged for r in stacked)
    assert all(r.iterations == max_iter for r in stacked)


def test_levenberg_shift_slices_equal_per_slice_fits(monkeypatch):
    # 30-sample NLS shards with p = 10 have indefinite Hessians on the way
    model, shards = _shards("nls", "gaussian10", 3, n=30, m=8)
    single = [fit_erm(s, model, tol=1e-6) for s in shards]
    failures = []
    real = est._cho_solve_stack

    def counting(a, b):
        x, ok = real(a, b)
        failures.append(int((~ok).sum()))
        return x, ok

    monkeypatch.setattr(est, "_cho_solve_stack", counting)
    stacked = fit_erm_stacked(*_stack(shards), model, tol=1e-6)
    assert sum(failures) > 0  # the shift loop ran
    _assert_same_reports(stacked, single)


def test_per_slice_and_shared_init():
    model, shards = _shards("logistic", "gaussian10", 4, m=3)
    X, y = _stack(shards)
    starts = np.random.default_rng(1).normal(size=(3, P)) * 0.1
    stacked = fit_erm_stacked(X, y, model, init=starts)
    _assert_same_reports(stacked, [fit_erm(s, model, init=t) for s, t in zip(shards, starts)])
    shared = fit_erm_stacked(X, y, model, init=starts[0])
    _assert_same_reports(shared, [fit_erm(s, model, init=starts[0]) for s in shards])


def test_trace_lists_running_slices_per_pass():
    model, shards = _shards("logistic", "gaussian10", 5, m=2)
    traces = []
    for s in shards:
        traces.append([])
        fit_erm(s, model, trace=traces[-1])
    stacked = []
    reports = fit_erm_stacked(*_stack(shards), model, trace=stacked)
    assert len(stacked) == sum(len(t) for t in traces)
    assert sorted(stacked) == sorted(traces[0] + traces[1])
    assert [r.iterations + 1 for r in reports] == [len(t) for t in traces]


def _singular_stack(rng):
    X = rng.standard_normal((4, 40, 3))
    X[1, :, 2] = 0.0
    X[3, :, 0] = 0.0
    y = X[..., 0] + rng.standard_normal((4, 40))
    return X, y


def test_singular_slice_raises_with_the_fits_below_it():
    X, y = _singular_stack(np.random.default_rng(5))
    model = ModelSpec.ols()
    with pytest.raises(SingularHessianError) as info:
        fit_erm_stacked(X, y, model)
    assert info.value.index == 1
    assert len(info.value.reports) == 1
    _assert_same_reports(info.value.reports, [fit_erm(Dataset(X[0], y[0]), model)])
    assert info.value.reports[0].converged
    # at the cap the singular slices report instead of raising
    capped = fit_erm_stacked(X, y, model, max_iter=0)
    _assert_same_reports(capped, [fit_erm(Dataset(Xi, yi), model, max_iter=0)
                                  for Xi, yi in zip(X, y)])
    assert [(r.iterations, r.converged) for r in capped[1::2]] == [(0, False), (0, False)]


# (iterations, converged, float.hex(grad_norm), theta digest) of every report,
# frozen from the loop as it stood before its one stop rule, so that a change
# to fit_erm_stacked and fit_erm together still has to reproduce them:
# - logistic: a slice that converges, a separable one that runs into the
#   iteration cap and a far start whose line search fails at the first pass;
# - nls: the Levenberg-shift shards of the test above;
# - ols_singular: the fit below _singular_stack's raised index 1.
FROZEN_STOPS = {
    "logistic": [(6, True, "0x1.3b17a200f75aep-34", "50b8bfcb3219e5f7"),
                 (200, False, "0x1.06658673b4820p-59", "acac396ea60e3030"),
                 (0, False, "0x1.fa57b70699658p-4", "1ab4c6685ce968a4")],
    "nls": [(8, True, "0x1.64fd24f5064bap-39", "e1b3c1c32f9e31e7"),
            (8, True, "0x1.4e25bb0bc067fp-26", "03f832c7c6395184"),
            (5, True, "0x1.972d52d862fc6p-21", "065eadfc373254cd"),
            (8, True, "0x1.4b4b22ed4cd3ep-36", "e7bf5735b908c2f1"),
            (9, True, "0x1.184b9470b2aebp-34", "c999f61b8f5167c2"),
            (7, True, "0x1.f18f208069e2ap-22", "24f5dc3cb739d187"),
            (9, True, "0x1.7d4b03c0e02c5p-34", "c7aa113e639875b6"),
            (8, True, "0x1.9e0fbfcc3263ep-40", "3562924b209b70e5")],
    "ols_singular": [(1, True, "0x1.7a19f2dd5c4f4p-53", "ffbad00025e9058c")],
}


def _pins(reports):
    return [(r.iterations, r.converged, float(r.grad_norm).hex(), _digest(r.theta_hat))
            for r in reports]


def test_logistic_stop_causes_match_frozen_reports():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 60, 2))
    y = np.stack([(rng.random(60) < 1 / (1 + np.exp(-X[0] @ [1.0, -0.5]))).astype(float),
                  (X[1] @ [1.0, 1.0] > 0).astype(float),
                  (rng.random(60) < 1 / (1 + np.exp(-X[2] @ [1.0, -0.5]))).astype(float)])
    init = np.zeros((3, 2))
    init[2] = [1000.0, -1000.0]
    reports = fit_erm_stacked(X, y, ModelSpec.logistic(), init=init)
    assert _pins(reports) == FROZEN_STOPS["logistic"]


def test_levenberg_shift_stack_matches_frozen_reports():
    model, shards = _shards("nls", "gaussian10", 3, n=30, m=8)
    reports = fit_erm_stacked(*_stack(shards), model, tol=1e-6)
    assert _pins(reports) == FROZEN_STOPS["nls"]


def test_singular_stack_matches_frozen_reports():
    X, y = _singular_stack(np.random.default_rng(5))
    with pytest.raises(SingularHessianError) as info:
        fit_erm_stacked(X, y, ModelSpec.ols())
    assert info.value.index == 1
    assert _pins(info.value.reports) == FROZEN_STOPS["ols_singular"]


def test_cholesky_kernel_matches_scipy_and_flags_failures():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 6, 4))
    a = np.swapaxes(g, 1, 2) @ g
    a[1] = -np.eye(4)
    b = rng.standard_normal((3, 4))
    x, ok = _cho_solve_stack(a, b)
    assert ok.tolist() == [True, False, True]
    for i in (0, 2):
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a[i], check_finite=False), b[i],
                                     check_finite=False)
        assert np.array_equal(x[i], ref)
    assert not x[1].any()


@pytest.mark.parametrize("model", [ModelSpec.ols(), ModelSpec.ridge(0.3), ModelSpec.logistic(),
                                   ModelSpec.nonlinear_ls()], ids=["ols", "ridge", "logistic", "nls"])
def test_sandwich_factors_once_and_matches_scipy(monkeypatch, model):
    gen = GenerativeConfig(p=4, theta0=THETA0[:4], noise=NoiseDist.gaussian(1.0), link=model.link)
    d = sample_dataset(gen, 300, 8)
    theta = fit_erm(d, model).theta_hat
    _, hess, w1 = est._grad_hess(d.X, d.y, model, theta)
    grads = d.X * w1[:, None] + model.penalty * theta[None, :]
    cf = scipy.linalg.cho_factor(hess, check_finite=False)
    ref = scipy.linalg.cho_solve(cf, scipy.linalg.cho_solve(cf, grads.T @ grads / d.n).T)
    calls = []
    monkeypatch.setattr(est, "dpotrf", lambda *a, **k: calls.append(1) or sp_potrf(*a, **k))
    cov = est.sandwich_covariance(d, theta, model)
    assert calls == [1]
    assert cov.tobytes() == ((ref + ref.T) / 2.0).tobytes()


# theta_bar/theta_central digests of replications 0-3 (p=10, N=2000, m=10,
# base_seed=17); each theta_bar equals the one-by-one fit_erm fits of the
# sample's row blocks (conftest's shard_loop)
FROZEN_REPLICATIONS = {
    ("logistic", "gaussian10"): ["3686326bdf1b781a", "e63cff6f10001b2b",
                                 "045c809a262676b7", "c71e9d861f7ee72b"],
    ("nls", "gaussian10"): ["eb9e31ae2b72c138", "3acf3a5e769acdd1",
                            "a564c76bc83efeb7", "a341ede0403d6802"],
    ("nls", "laplace1"): ["ddd873404b01c00e", "f087ff72de0afa20",
                          "10f9fca0a194163e", "5e385b21a2371f45"],
}


@pytest.mark.parametrize("model_name,noise_name", sorted(FROZEN_REPLICATIONS))
def test_replications_match_frozen_shard_loop(model_name, noise_name):
    model = MODELS[model_name]
    gen = GenerativeConfig(p=P, theta0=THETA0, noise=NOISES[noise_name], link=model.link)
    cfg = ExperimentConfig(gen=gen, model=model, N=N_SHARD * M, m=M, replications=4,
                           base_seed=17)
    got = []
    for r in range(4):
        res = run_replication(cfg, r)
        got.append(_digest(res.theta_bar, res.theta_central))
    assert got == FROZEN_REPLICATIONS[(model_name, noise_name)]


def test_lowest_failing_machine_is_named(shard_loop):
    # test_machine_fit_failure_is_tagged's config (base_seed=1) and its
    # neighbours; the shard-by-shard loop names the expected indices
    gen = GenerativeConfig(p=2, theta0=np.array([3.0, 3.0]),
                           noise=NoiseDist.gaussian(1.0), link="logistic")
    got, want = [], []
    for base_seed in range(6):
        cfg = ExperimentConfig(gen=gen, model=ModelSpec.logistic(), N=160, m=16,
                               replications=1, base_seed=base_seed)
        with pytest.raises(MachineFitError) as info:
            run_replication(cfg, 0)
        assert str(info.value).startswith(f"machine {info.value.machine_index} failed: "
                                          "fit did not converge")
        got.append(info.value.machine_index)
        with pytest.raises(MachineFitError) as info:
            shard_loop(cfg, 0)
        want.append(info.value.machine_index)
    assert got == want


# digest of the per-n bias and second-moment arrays and both coefficient
# pairs, frozen from the fit_erm-per-replication oracle; the second moments
# re-pinned when they came to be summed as errs.T @ errs (oracles._mean_se)
FROZEN_MOMENT_FITS = {
    "exp_nonlinear": ("2fd6cae20889237f", ModelSpec.nonlinear_ls(), NoiseDist.gaussian(10.0)),
    "logistic": ("acdf1d90a9590d14", ModelSpec.logistic(), NoiseDist.gaussian(1.0)),
}


@pytest.mark.parametrize("link", sorted(FROZEN_MOMENT_FITS))
def test_moment_fit_matches_frozen_fit_erm_loop(link):
    want, model, noise = FROZEN_MOMENT_FITS[link]
    cfg = GenerativeConfig(p=3, theta0=np.array([0.1, 0.175, 0.25]), noise=noise, link=link)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        f = mc_moment_fit(cfg, model, n_grid=[60, 120, 240], reps=50, seed=3)
    got = _digest(*[f.bias_by_n[n] for n in f.n_grid], *[f.mse_by_n[n] for n in f.n_grid],
                  np.array(f.bias_coeffs), np.array(f.mse_coeffs))
    assert got == want


@pytest.mark.parametrize("link", sorted(FROZEN_MOMENT_FITS))
def test_moment_fit_fits_each_chunk_in_one_stacked_call(monkeypatch, link):
    want, model, noise = FROZEN_MOMENT_FITS[link]
    cfg = GenerativeConfig(p=3, theta0=np.array([0.1, 0.175, 0.25]), noise=noise, link=link)
    sizes, per_replication = [], []
    stacked = oracles.fit_erm_stacked
    monkeypatch.setattr(oracles, "fit_erm_stacked",
                        lambda X, *a, **k: sizes.append(len(X)) or stacked(X, *a, **k))
    for module in (oracles, est):
        monkeypatch.setattr(module, "fit_erm", lambda *a, **k: per_replication.append(a))
    # the default chunk holds all 50 replications; 3600 design elements
    # make chunks of 20, 10 and 5 at n = 60, 120 and 240
    for budget, want_sizes in [(oracles._CHUNK, [50, 50, 50]),
                               (3600, [20, 20, 10] + [10] * 5 + [5] * 10)]:
        monkeypatch.setattr(oracles, "_CHUNK", budget)
        sizes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            f = mc_moment_fit(cfg, model, n_grid=[60, 120, 240], reps=50, seed=3)
        assert sizes == want_sizes
        assert per_replication == []
        got = _digest(*[f.bias_by_n[n] for n in f.n_grid], *[f.mse_by_n[n] for n in f.n_grid],
                      np.array(f.bias_coeffs), np.array(f.mse_coeffs))
        assert got == want
