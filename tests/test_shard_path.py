"""One shard path for every model: closed-form replications and moment fits, bit for bit.

The replication digests below were frozen from the engine once each of its
theta_bar was shown bitwise equal to one-by-one ``fit_closed`` fits of the
sample's row blocks, and the laplace moment-fit digests
from the moment oracle's own linear-model draw, which the shared
``model._draw`` replaced.
"""

import hashlib
import warnings

import numpy as np
import pytest

import splitavg.parallel as parallel
from splitavg import (
    Dataset,
    ExperimentConfig,
    GenerativeConfig,
    MachineFitError,
    ModelSpec,
    NoiseDist,
    RankError,
    fit_closed,
    mc_moment_fit,
    run_experiment,
    run_replication,
    sample_dataset,
)

NOISES = {"gaussian": NoiseDist.gaussian(1.0), "laplace": NoiseDist.laplace(0.5)}
MODELS = {"ols": ModelSpec.ols(), "ridge": ModelSpec.ridge(1.0)}
SHAPES = {"sim_linear": (20, 20000, 40), "small": (4, 400, 4)}  # (p, N, m)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _gen(p, noise_name, sigma_name):
    raw = np.arange(1.0, p + 1.0)
    sigma = {"identity": None, "diagonal": np.linspace(0.5, 2.0, p),
             "dense": 0.5 * np.eye(p) + 0.5 * np.outer(raw, raw) / (raw @ raw)}[sigma_name]
    return GenerativeConfig(p=p, theta0=raw / np.linalg.norm(raw), noise=NOISES[noise_name],
                            sigma_spec=sigma)


def replication_digests(shape, model_name, noise_name, sigma_name, reps=2):
    p, N, m = SHAPES[shape]
    cfg = ExperimentConfig(gen=_gen(p, noise_name, sigma_name), model=MODELS[model_name],
                           N=N, m=m, replications=reps, base_seed=11)
    out = []
    for r in range(reps):
        res = run_replication(cfg, r)
        out.append(_digest(res.theta_bar, res.theta_central))
    return out


def moment_fit_digest(model_name, noise_name, sigma_name):
    f = mc_moment_fit(_gen(3, noise_name, sigma_name), MODELS[model_name],
                      n_grid=[60, 120, 240], reps=50, seed=3)
    return _digest(*[f.bias_by_n[n] for n in f.n_grid], *[f.mse_by_n[n] for n in f.n_grid],
                   np.array(f.bias_coeffs), np.array(f.mse_coeffs))


# theta_bar/theta_central digests of replications 0-1 (base_seed=11); each theta_bar
# equals the one-by-one fits of the sample's row blocks (conftest's shard_loop), and
# theta_central solves the summed shard statistics, which
# test_central_fit_from_shard_statistics_matches_fit_closed holds to fit_closed
FROZEN_REPLICATIONS = {
    ('sim_linear', 'ols', 'gaussian', 'diagonal'): ['986a49977456443d', '2241f50e891f1f80'],
    ('sim_linear', 'ols', 'gaussian', 'identity'): ['599e1ebead8a8f86', '7f442701c68c36ea'],
    ('sim_linear', 'ols', 'laplace', 'diagonal'): ['33d798e3e4646b17', 'f449cb0078ad6a77'],
    ('sim_linear', 'ols', 'laplace', 'identity'): ['03c652ee20f3cb00', '06828e31a602fe29'],
    ('sim_linear', 'ridge', 'gaussian', 'diagonal'): ['9a6311472a23eec0', '38e4b5eabb2358fd'],
    ('sim_linear', 'ridge', 'gaussian', 'identity'): ['be860344fec89fc2', 'ae5d5c31a91a1116'],
    ('sim_linear', 'ridge', 'laplace', 'diagonal'): ['237a9a81d32bf23e', 'd0c032a2eb5775cd'],
    ('sim_linear', 'ridge', 'laplace', 'identity'): ['b8f29d981ba2ce09', '35f488d255fd7e50'],
    ('small', 'ols', 'gaussian', 'diagonal'): ['d548ab7bdf153fb8', 'b2844aa4e473263a'],
    ('small', 'ols', 'gaussian', 'identity'): ['1d4ac237fa919221', 'fe00558e3a76b96d'],
    ('small', 'ols', 'laplace', 'diagonal'): ['f134ad1e2157f8ef', '90f5d7e007541578'],
    ('small', 'ols', 'laplace', 'identity'): ['ca4712d35567e66b', 'b4d5c82be0530ebe'],
    ('small', 'ridge', 'gaussian', 'diagonal'): ['ffa91a842c04a319', '40d7ba18da8b7631'],
    ('small', 'ridge', 'gaussian', 'identity'): ['0b44c3b751b470ed', '3d7d536fd855bb7f'],
    ('small', 'ridge', 'laplace', 'diagonal'): ['c0992b64de24d7f0', '486b3b97abc324fe'],
    ('small', 'ridge', 'laplace', 'identity'): ['f492c9aca4dedabd', '70ea4af5335171bb'],
}

# per-n bias and second-moment arrays and both coefficient pairs; the gaussian
# entries solve exact (X'X, X'y) draws (model._gram_draw), the laplace ones drawn designs;
# the second moments re-pinned when they came to be summed as errs.T @ errs (oracles._mean_se)
FROZEN_MOMENT_FITS = {
    ('ols', 'gaussian', 'diagonal'): '458e4360c4c24c8a',
    ('ols', 'gaussian', 'identity'): '48716c03dc516364',
    ('ols', 'laplace', 'diagonal'): 'f9ca3e20d13dfaee',
    ('ols', 'laplace', 'identity'): '39058befa03156e8',
    ('ridge', 'gaussian', 'diagonal'): '7460728938f24973',
    ('ridge', 'gaussian', 'identity'): '6130819d786fc267',
    ('ridge', 'laplace', 'diagonal'): '4b887f51b8fbb1da',
    ('ridge', 'laplace', 'identity'): 'eebe42ad1b59cc5b',
}


@pytest.mark.parametrize("key", sorted(FROZEN_REPLICATIONS), ids="-".join)
def test_closed_form_replications_match_frozen_shard_loop(key):
    assert replication_digests(*key) == FROZEN_REPLICATIONS[key]


@pytest.mark.parametrize("key", sorted(FROZEN_MOMENT_FITS), ids="-".join)
def test_closed_form_moment_fits_match_frozen_draws(key):
    assert moment_fit_digest(*key) == FROZEN_MOMENT_FITS[key]


def _sample(cfg, rep):
    """The sample ``run_replication(cfg, rep)`` draws."""
    return sample_dataset(cfg.gen, cfg.N, parallel._rep_seed(cfg.base_seed, rep))


@pytest.mark.parametrize("m", [2, 40])
@pytest.mark.parametrize("sigma_name", ["identity", "diagonal", "dense"])
@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_central_fit_from_shard_statistics_matches_fit_closed(model_name, noise_name,
                                                              sigma_name, m):
    # the summed shard Grams differ from the full-sample Gram by rounding only
    cfg = ExperimentConfig(gen=_gen(10, noise_name, sigma_name), model=MODELS[model_name],
                           N=4000, m=m, replications=3, base_seed=7)
    for r in range(3):
        got = run_replication(cfg, r).theta_central
        want = fit_closed(_sample(cfg, r), cfg.model.penalty)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("sigma_name", ["identity", "dense"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_single_machine_linear_replication_is_fit_closed_bitwise(model_name, sigma_name):
    cfg = ExperimentConfig(gen=_gen(5, "laplace", sigma_name), model=MODELS[model_name],
                           N=500, m=1, replications=3, base_seed=7)
    for r in range(3):
        res = run_replication(cfg, r)
        want = fit_closed(_sample(cfg, r), cfg.model.penalty)
        assert res.theta_central.tobytes() == want.tobytes()
        assert res.theta_bar.tobytes() == res.theta_central.tobytes()


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_linear_run_is_bitwise_equal_on_two_threads(model_name):
    cfg = ExperimentConfig(gen=_gen(20, "gaussian", "dense"), model=MODELS[model_name],
                           N=20000, m=40, replications=6, base_seed=7)
    runs = [[(r.theta_bar.tobytes(), r.theta_central.tobytes(), r.err_bar, r.err_central)
             for r in run_experiment(cfg, threads=t)] for t in (1, 2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_linear_replication_forms_no_full_sample_gram(monkeypatch, model_name):
    # the central fit solves the summed shard statistics; fit_closed would form
    # a second, full-sample Gram
    cfg = ExperimentConfig(gen=_gen(4, "gaussian", "diagonal"), model=MODELS[model_name],
                           N=400, m=4, replications=1, base_seed=7)
    want = run_replication(cfg, 0)

    def no_full_gram(*args, **kwargs):
        raise AssertionError("a linear replication called fit_closed")

    monkeypatch.setattr(parallel, "fit_closed", no_full_gram)
    got = run_replication(cfg, 0)
    assert got.theta_central.tobytes() == want.theta_central.tobytes()
    assert got.theta_bar.tobytes() == want.theta_bar.tobytes()


@pytest.mark.parametrize("model", [ModelSpec.ols(), ModelSpec.ridge(0.0)], ids=["ols", "ridge0"])
def test_middle_singular_linear_shard_is_named(monkeypatch, model):
    gen = _gen(4, "gaussian", "identity")
    cfg = ExperimentConfig(gen=gen, model=model, N=400, m=8, replications=1, base_seed=2)
    real = parallel.sample_dataset

    def zero_column_in_shard3(g, n, seed):
        d = real(g, n, seed)
        X = d.X.copy()
        X[3 * cfg.n:4 * cfg.n, 1] = 0.0  # only shard 3 loses the column; the central fit keeps it
        return Dataset(X, d.y)

    monkeypatch.setattr(parallel, "sample_dataset", zero_column_in_shard3)
    with pytest.raises(MachineFitError) as info:
        run_replication(cfg, 0)
    assert info.value.machine_index == 3
    assert type(info.value.__cause__) is RankError
    assert str(info.value) == ("machine 3 failed: normal equations are singular "
                               "(rank-deficient design)")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("model", [ModelSpec.ols(), ModelSpec.ridge(1.0)], ids=["ols", "ridge"])
def test_non_finite_shard_is_named(model, bad):
    # LAPACK factors a NaN Gram without complaint; the shard fit must still fail
    gen = _gen(4, "gaussian", "identity")
    cfg = ExperimentConfig(gen=gen, model=model, N=400, m=8, replications=1, base_seed=2)
    d = parallel.sample_dataset(gen, cfg.N, 0)
    X = d.X.copy()
    X[5 * cfg.n:6 * cfg.n, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the failure is reported once, by the fit check
        with pytest.raises(MachineFitError) as info:
            parallel._shard_fits(Dataset(X, d.y), cfg)
    assert info.value.machine_index == 5
    assert type(info.value.__cause__) is RankError
    assert str(info.value) == ("machine 5 failed: normal equations are not finite "
                               "(NaN or inf in the data)")
