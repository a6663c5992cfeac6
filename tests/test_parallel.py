"""Replication engine: determinism, averaging algebra, summaries."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitavg.parallel as parallel
from splitavg import (
    ConfigError,
    Dataset,
    ExperimentConfig,
    FitReport,
    GenerativeConfig,
    MachineFitError,
    ModelSpec,
    NoiseDist,
    RankError,
    ReplicationResult,
    SingularHessianError,
    SplitAvgError,
    average_estimate,
    fit_erm,
    population_target,
    run_experiment,
    run_replication,
    summarize,
)


def _cfg(model="ols", p=4, N=400, m=4, reps=5, seed=0, sigma2=1.0, link="linear",
         theta_norm=1.0, penalty=0.5):
    raw = np.arange(1.0, p + 1)
    theta0 = raw * (theta_norm / np.linalg.norm(raw))
    gen = GenerativeConfig(p=p, theta0=theta0, noise=NoiseDist.gaussian(sigma2),
                           link=link)
    spec = {"ols": ModelSpec.ols(), "ridge": ModelSpec.ridge(penalty),
            "logistic": ModelSpec.logistic()}[model]
    return ExperimentConfig(gen=gen, model=spec, N=N, m=m, replications=reps,
                            base_seed=seed)


def test_average_estimate_examples():
    assert np.allclose(average_estimate([[1.0, 2.0], [3.0, 4.0]]), [2.0, 3.0])
    v = np.array([0.3, -0.1, 2.0])
    assert np.allclose(average_estimate([v] * 7), v)
    with pytest.raises(ConfigError):
        average_estimate([])


@given(st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
                min_size=2, max_size=8),
       st.randoms())
@settings(max_examples=50, deadline=None)
def test_average_estimate_permutation_invariant(vectors, rnd):
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert np.allclose(average_estimate(vectors), average_estimate(shuffled))


def test_single_machine_average_equals_central():
    cfg = _cfg(m=1, N=200)
    res = run_replication(cfg, 0)
    assert np.array_equal(res.theta_bar, res.theta_central)
    assert res.err_bar == res.err_central


def test_replication_bit_reproducible():
    cfg = _cfg()
    a = run_replication(cfg, 2)
    b = run_replication(cfg, 2)
    assert np.array_equal(a.theta_bar, b.theta_bar)
    assert np.array_equal(a.theta_central, b.theta_central)
    assert a.err_bar == b.err_bar
    c = run_replication(cfg, 3)
    assert not np.array_equal(a.theta_bar, c.theta_bar)


@pytest.mark.parametrize("noise", [NoiseDist.gaussian(1.0), NoiseDist.laplace(0.5)],
                         ids=["gaussian", "laplace"])
@pytest.mark.parametrize("model", [ModelSpec.ols(), ModelSpec.ridge(1.0), ModelSpec.nonlinear_ls(),
                                   ModelSpec.logistic()], ids=["ols", "ridge", "nls", "logistic"])
def test_shards_are_the_blocks_of_the_sample(shard_loop, model, noise):
    raw = np.arange(1.0, 5.0)
    gen = GenerativeConfig(p=4, theta0=raw / np.linalg.norm(raw), noise=noise, link=model.link)
    cfg = ExperimentConfig(gen=gen, model=model, N=600, m=6, replications=3, base_seed=4)
    for r in range(3):
        assert run_replication(cfg, r).theta_bar.tobytes() == shard_loop(cfg, r).tobytes()


def test_summary_invariant_to_schedule():
    cfg = _cfg(reps=8)
    serial = summarize(run_experiment(cfg, threads=None))
    threaded = summarize(run_experiment(cfg, threads=2))
    assert serial.median_ratio == threaded.median_ratio
    assert serial.mse_bar == threaded.mse_bar
    assert np.array_equal(serial.mean_bias, threaded.mean_bias)


@pytest.mark.parametrize("threads", [0, -3, 2.5, "2"])
def test_run_experiment_rejects_bad_thread_counts(threads):
    with pytest.raises(ConfigError, match="threads must be None or an integer >= 1"):
        run_experiment(_cfg(reps=2), threads=threads)


def test_run_experiment_runs_none_and_one_thread_serially(monkeypatch):
    cfg = _cfg(reps=3)
    want = [r.theta_bar.tobytes() for r in run_experiment(cfg, threads=2)]
    monkeypatch.setattr(parallel, "ThreadPoolExecutor",
                        lambda *a, **kw: pytest.fail("a serial run started a pool"))
    for threads in (None, 1):
        assert [r.theta_bar.tobytes() for r in run_experiment(cfg, threads=threads)] == want


def test_ridge_replication_uses_shrunk_target():
    cfg = _cfg(model="ridge", penalty=1.0, sigma2=0.0, N=4000, m=2)
    res = run_replication(cfg, 0)
    target = cfg.gen.theta0 / 2.0  # identity covariance, lam = 1
    assert np.linalg.norm(res.theta_bar - target) < 0.15
    assert np.allclose(res.per_coordinate_bias_sample, res.theta_bar - target)


@pytest.mark.parametrize("model", ["ols", "ridge"])
def test_theta_star_is_computed_once_and_read_only(monkeypatch, model):
    cfg = _cfg(model=model, penalty=1.0)
    want = population_target(cfg.gen, cfg.model)
    monkeypatch.setattr(parallel, "population_target", None)  # no call after construction
    res = run_replication(cfg, 0)
    assert cfg.theta_star() is cfg.theta_star()
    assert cfg.theta_star().tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        cfg.theta_star()[1] = -5.0
    assert cfg.gen.theta0[1] != -5.0
    assert res.per_coordinate_bias_sample.tobytes() == (res.theta_bar - want).tobytes()


def test_ols_ratio_near_one_with_many_samples_per_parameter():
    # n = 100 p per machine keeps the split fit first-order equivalent
    cfg = _cfg(p=5, N=2500, m=5, reps=200, sigma2=1.0)
    summary = summarize(run_experiment(cfg))
    assert 1.0 <= summary.median_ratio <= 1.1


def test_summarize_synthetic_examples():
    def make(err_bar, err_central):
        return ReplicationResult(np.zeros(2), np.zeros(2), err_bar, err_central,
                                 np.zeros(2))

    identical = [make(2.0, 1.0) for _ in range(5)]
    s = summarize(identical)
    assert s.median_ratio == 2.0
    assert s.mad_ratio == 0.0
    two = [make(1.0, 1.0), make(3.0, 1.0)]
    s = summarize(two)
    assert s.median_ratio == 2.0
    assert s.mse_bar == pytest.approx(5.0)
    with pytest.raises(ConfigError):
        summarize(two[:1])


def test_summarize_standard_errors_near_the_float_maximum():
    def make(err):
        return ReplicationResult(np.zeros(2), np.zeros(2), err, err, np.zeros(2))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summarize([make(np.sqrt(2.5e306)), make(np.sqrt(1e306))])
    assert s.mc_standard_errors.mse_bar == pytest.approx(7.5e305, rel=1e-12)
    assert s.mc_standard_errors.mse_central == s.mc_standard_errors.mse_bar
    rng = np.random.default_rng(0)
    for reps in (2, 3, 50, 3000):  # the power-of-two scaling is exact at ordinary scales
        sq = rng.random(reps) * 10.0 ** rng.uniform(-16, 16, reps)
        s = summarize([make(e) for e in np.sqrt(sq)])
        want = float(np.array([e ** 2 for e in np.sqrt(sq)]).std(ddof=1) / np.sqrt(reps))
        assert s.mc_standard_errors.mse_bar == want


def test_summarize_carries_an_error_whose_square_overflows():
    # 1e160 ** 2 overflows a float: the MSE and its standard error read inf,
    # and the median and MAD of the ratios are those of (1e160, 1)
    results = [ReplicationResult(np.zeros(2), np.zeros(2), e, 1.0, np.zeros(2))
               for e in (1e160, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summarize(results)
    assert s.mse_bar == s.mc_standard_errors.mse_bar == np.inf
    assert (s.mse_central, s.mc_standard_errors.mse_central) == (1.0, 0.0)
    assert s.median_ratio == (1e160 + 1.0) / 2
    assert s.mad_ratio == 1e160 - s.median_ratio


def test_machine_fit_failure_is_tagged():
    # moderate signal: the centralized fit converges but 10-sample logistic
    # shards are separable with near certainty
    p = 2
    gen = GenerativeConfig(p=p, theta0=np.array([3.0, 3.0]),
                           noise=NoiseDist.gaussian(1.0), link="logistic")
    cfg = ExperimentConfig(gen=gen, model=ModelSpec.logistic(), N=160, m=16,
                           replications=1, base_seed=1)
    with pytest.raises(MachineFitError) as info:
        run_replication(cfg, 0)
    assert 0 <= info.value.machine_index < 16


@pytest.mark.parametrize("model", ["ols", "ridge"])
def test_underdetermined_linear_shards_are_tagged(model):
    # ridge with penalty 0 keeps the shard systems singular
    cfg = _cfg(model=model, penalty=0.0, p=6, N=40, m=10, reps=1)
    with pytest.raises(MachineFitError) as info:
        run_replication(cfg, 0)
    assert info.value.machine_index == 0
    assert isinstance(info.value.__cause__, RankError)


def test_underdetermined_central_fit_raises_rank_error():
    cfg = _cfg(p=6, N=4, m=2, reps=1)
    with pytest.raises(RankError) as info:
        run_replication(cfg, 0)
    assert not isinstance(info.value, MachineFitError)


def test_unconverged_central_fit_is_not_a_machine_failure():
    # 8 logistic samples at theta0 = (4, 0): rep 1 is separable, so neither the
    # one shard's fit nor the centre's cold refit converges, and the centre's
    # failure is raised over the shard's
    gen = GenerativeConfig(p=2, theta0=np.array([4.0, 0.0]),
                           noise=NoiseDist.gaussian(1.0), link="logistic")
    cfg = ExperimentConfig(gen=gen, model=ModelSpec.logistic(), N=8, m=1,
                           replications=2, base_seed=1)
    with pytest.raises(SplitAvgError, match="did not converge") as info:
        run_replication(cfg, 1)
    assert not isinstance(info.value, MachineFitError)
    assert isinstance(info.value.__context__, MachineFitError)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(N=401, m=4)
    with pytest.raises(ConfigError):
        _cfg(reps=0)
    with pytest.raises(ConfigError, match="seed"):
        _cfg(seed=-1)
    cfg = _cfg(reps=3)
    with pytest.raises(ConfigError):
        run_replication(cfg, 3)


@pytest.mark.parametrize("model,link", [("ols", "logistic"), ("logistic", "linear")])
def test_config_rejects_model_fit_to_another_link(model, link):
    # OLS on logistic-link data has a target other than theta0
    with pytest.raises(ConfigError, match="link"):
        _cfg(model=model, link=link)


def test_summarize_noiseless_replications_have_ratio_one():
    # theta0 = 0 without noise: every fit is exact, err_central = err_bar = 0
    gen = GenerativeConfig(p=3, theta0=np.zeros(3), noise=NoiseDist.gaussian(0.0))
    cfg = ExperimentConfig(gen=gen, model=ModelSpec.ols(), N=120, m=3,
                           replications=3, base_seed=0)
    s = summarize(run_experiment(cfg))
    assert s.median_ratio == 1.0
    assert s.mad_ratio == 0.0
    assert s.mse_bar == 0.0 and s.mse_central == 0.0


def test_summarize_ratio_over_exact_central_fit_is_infinite():
    def make(err_bar, err_central):
        return ReplicationResult(np.zeros(2), np.zeros(2), err_bar, err_central,
                                 np.zeros(2))

    # ratios 1 (0/0), inf (1/0) and 2
    s = summarize([make(0.0, 0.0), make(1.0, 0.0), make(2.0, 1.0)])
    assert s.median_ratio == 2.0
    assert s.mad_ratio == 1.0
    s = summarize([make(1.0, 0.0), make(1.0, 0.0)])
    assert s.median_ratio == np.inf
    assert s.mad_ratio == 0.0


def _newton_cfg(model, m=10, p=3, n=100, seed=2):
    gen = GenerativeConfig(p=p, theta0=np.linspace(0.2, 0.6, p), noise=NoiseDist.gaussian(1.0),
                           link=model.link)
    return ExperimentConfig(gen=gen, model=model, N=n * m, m=m, replications=3,
                            base_seed=seed)


@pytest.mark.parametrize("model", [ModelSpec.logistic(), ModelSpec.nonlinear_ls()],
                         ids=["logistic", "nls"])
def test_failing_shards_and_centre_raise_the_centres_error(monkeypatch, model):
    # NaN responses fail every fit; the shards are fitted first, but the
    # centre's failure is the one raised
    cfg = _newton_cfg(model)
    real = parallel.sample_dataset

    def nan_sample(*args):
        d = real(*args)
        return Dataset(d.X, np.full_like(d.y, np.nan))

    monkeypatch.setattr(parallel, "sample_dataset", nan_sample)
    with pytest.raises(SplitAvgError, match="did not converge") as info:
        run_replication(cfg, 0)
    assert not isinstance(info.value, MachineFitError)
    assert isinstance(info.value.__context__, MachineFitError)


@pytest.mark.parametrize("failure", ["raises", "unconverged"])
@pytest.mark.parametrize("model", [ModelSpec.logistic(), ModelSpec.nonlinear_ls()],
                         ids=["logistic", "nls"])
def test_failed_warm_central_fit_falls_back_to_the_default_start(monkeypatch, model, failure):
    cfg = _newton_cfg(model)
    want = run_replication(cfg, 1)
    d = parallel.sample_dataset(cfg.gen, cfg.N, parallel._rep_seed(cfg.base_seed, 1))
    cold = fit_erm(d, model, tol=parallel._NEWTON_TOL)
    real, starts = parallel.fit_erm, []

    def no_warm_start(d, model, init=None, **kw):
        starts.append(init)
        if init is None:
            return real(d, model, **kw)
        if failure == "raises":
            raise SingularHessianError("Hessian is numerically singular")
        return FitReport(init, 1.0, 0, False)

    monkeypatch.setattr(parallel, "fit_erm", no_warm_start)
    res = run_replication(cfg, 1)
    assert res.theta_central.tobytes() == cold.theta_hat.tobytes()
    assert res.theta_bar.tobytes() == want.theta_bar.tobytes()
    assert starts[0].tobytes() == want.theta_bar.tobytes() and starts[1:] == [None]


def _record_fit_erm_starts(monkeypatch):
    real, starts = parallel.fit_erm, []
    monkeypatch.setattr(parallel, "fit_erm",
                        lambda d, model, init=None, **kw: starts.append(init) or
                        real(d, model, init, **kw))
    return starts


@pytest.mark.parametrize("model,m", [("ols", 4), ("ridge", 4), ("ols", 1)])
def test_closed_form_replications_make_no_newton_fit(monkeypatch, model, m):
    cfg = _cfg(model=model, m=m)
    starts = _record_fit_erm_starts(monkeypatch)
    for r in range(cfg.replications):
        run_replication(cfg, r)
    assert starts == []


@pytest.mark.parametrize("model", [ModelSpec.logistic(), ModelSpec.nonlinear_ls()],
                         ids=["logistic", "nls"])
def test_single_machine_newton_replication_is_its_cold_fit_bitwise(monkeypatch, model):
    # one recipe at every m: the one shard's fit is the cold fit of the whole
    # sample, and the centre, started at that one-shard average, certifies it unchanged
    cfg = _newton_cfg(model, m=1, n=400)
    starts = _record_fit_erm_starts(monkeypatch)
    for r in range(cfg.replications):
        res = run_replication(cfg, r)
        d = parallel.sample_dataset(cfg.gen, cfg.N, parallel._rep_seed(cfg.base_seed, r))
        cold = fit_erm(d, model, tol=parallel._NEWTON_TOL).theta_hat.tobytes()
        assert res.theta_bar.tobytes() == cold and res.theta_central.tobytes() == cold
        assert starts[r].tobytes() == cold
    assert len(starts) == cfg.replications


@pytest.mark.parametrize("model,m", [("ols", 1), ("ols", 4), ("ridge", 1), ("ridge", 4),
                                     ("logistic", 1), ("logistic", 4)])
def test_linear_replication_forms_its_statistics_once_and_solves_twice(monkeypatch, model, m):
    # one recipe at every m: the (m, p, p) Grams and (m, p) X'y once, the centre from
    # their sums, then the shard stack; a Newton replication forms and solves none
    cfg = _cfg(model=model, m=m, link="logistic" if model == "logistic" else "linear")
    calls = []
    for name in ("_normal_stats", "_solve_normal"):
        real = getattr(parallel, name)
        monkeypatch.setattr(parallel, name, lambda *a, name=name, real=real:
                            calls.append((name, a[0].shape)) or real(*a))
    run_replication(cfg, 0)
    p = cfg.gen.p
    assert calls == ([] if model == "logistic" else [
        ("_normal_stats", (m, cfg.n, p)), ("_solve_normal", (p, p)),
        ("_solve_normal", (m, p, p))])
