"""One shard path for every model: closed-form replications and moment fits, bit for bit.

The replication digests below were frozen from the per-shard ``fit_closed``
loop, which the stacked shard fit replaced, and the laplace moment-fit digests
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
    mc_moment_fit,
    run_replication,
)
from splitavg.model import split_rows

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
    sigma = None if sigma_name == "identity" else np.linspace(0.5, 2.0, p)
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


# theta_bar/theta_central digests of replications 0-1 (base_seed=11)
FROZEN_REPLICATIONS = {
    ('sim_linear', 'ols', 'gaussian', 'diagonal'): ['2b4c92bfef7b9f3e', '503826c32fe8eacb'],
    ('sim_linear', 'ols', 'gaussian', 'identity'): ['5546ad12699b77ab', '36b07be761d415c3'],
    ('sim_linear', 'ols', 'laplace', 'diagonal'): ['bd4095f52fb60b91', 'f66225d92cf8a8a2'],
    ('sim_linear', 'ols', 'laplace', 'identity'): ['513bb229d26aa555', '6a8e8054445439df'],
    ('sim_linear', 'ridge', 'gaussian', 'diagonal'): ['60e2cb268a08688a', 'fef0d333e7a680f8'],
    ('sim_linear', 'ridge', 'gaussian', 'identity'): ['4afce15e8a8632aa', '5aab8c60c6285064'],
    ('sim_linear', 'ridge', 'laplace', 'diagonal'): ['b46bedcba74afa5b', '132e9210d8be13e1'],
    ('sim_linear', 'ridge', 'laplace', 'identity'): ['7071d119e30edab0', 'ae21f2d165289310'],
    ('small', 'ols', 'gaussian', 'diagonal'): ['fa1d9bda0c66d80f', 'f4fcb3b96a79f6d8'],
    ('small', 'ols', 'gaussian', 'identity'): ['a2963bcc71159ef5', 'd24439002dc11402'],
    ('small', 'ols', 'laplace', 'diagonal'): ['7e91e89c2bb23766', 'f1fbfdfa389d9459'],
    ('small', 'ols', 'laplace', 'identity'): ['33f72bc20cf527a2', '36124baabca8945c'],
    ('small', 'ridge', 'gaussian', 'diagonal'): ['cec402921252fe6a', 'e4e29afd109138af'],
    ('small', 'ridge', 'gaussian', 'identity'): ['e6412629de4d4770', 'd96434d0426f6b1f'],
    ('small', 'ridge', 'laplace', 'diagonal'): ['32bdd938c0024772', 'f2f9021b6bb51da0'],
    ('small', 'ridge', 'laplace', 'identity'): ['be3aaadb9cb5a1ae', '1a6eeae83b69fc2a'],
}

# per-n bias and second-moment arrays and both coefficient pairs; the gaussian
# entries solve exact (X'X, X'y) draws (model._gram_draw), the laplace ones drawn designs
FROZEN_MOMENT_FITS = {
    ('ols', 'gaussian', 'diagonal'): '60c0d7cd8e1bf262',
    ('ols', 'gaussian', 'identity'): '76c88e32772d68c9',
    ('ols', 'laplace', 'diagonal'): 'ccca3e87a39f951c',
    ('ols', 'laplace', 'identity'): '9d70181d787afd56',
    ('ridge', 'gaussian', 'diagonal'): '0a8fd8cbe61698fd',
    ('ridge', 'gaussian', 'identity'): 'fc951e3080e9f234',
    ('ridge', 'laplace', 'diagonal'): '89aad9570b58728c',
    ('ridge', 'laplace', 'identity'): '460d56ba5a42e7b0',
}


@pytest.mark.parametrize("key", sorted(FROZEN_REPLICATIONS), ids="-".join)
def test_closed_form_replications_match_frozen_shard_loop(key):
    assert replication_digests(*key) == FROZEN_REPLICATIONS[key]


@pytest.mark.parametrize("key", sorted(FROZEN_MOMENT_FITS), ids="-".join)
def test_closed_form_moment_fits_match_frozen_draws(key):
    assert moment_fit_digest(*key) == FROZEN_MOMENT_FITS[key]


@pytest.mark.parametrize("model", [ModelSpec.ols(), ModelSpec.ridge(0.0)], ids=["ols", "ridge0"])
def test_middle_singular_linear_shard_is_named(monkeypatch, model):
    gen = _gen(4, "gaussian", "identity")
    cfg = ExperimentConfig(gen=gen, model=model, N=400, m=8, replications=1, base_seed=2)
    _, split_seed = parallel._rep_seeds(cfg.base_seed, 0)
    shard3 = split_rows(cfg.N, cfg.m, split_seed)[3]
    real = parallel.sample_dataset

    def zero_column_in_shard3(g, n, seed):
        d = real(g, n, seed)
        X = d.X.copy()
        X[shard3, 1] = 0.0  # only shard 3 loses the column; the central fit keeps it
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
    X[split_rows(cfg.N, cfg.m, 7)[5], 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the failure is reported once, by the fit check
        with pytest.raises(MachineFitError) as info:
            parallel._shard_fits(Dataset(X, d.y), cfg, 7)
    assert info.value.machine_index == 5
    assert type(info.value.__cause__) is RankError
    assert str(info.value) == ("machine 5 failed: normal equations are singular "
                               "(rank-deficient design)")
