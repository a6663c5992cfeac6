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
    mc_moment_fit,
    run_replication,
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


# theta_bar/theta_central digests of replications 0-1 (base_seed=11); each theta_bar
# equals the one-by-one fits of the sample's row blocks (conftest's shard_loop)
FROZEN_REPLICATIONS = {
    ('sim_linear', 'ols', 'gaussian', 'diagonal'): ['05851ac94a9f60e7', 'dda2e38bc12726f0'],
    ('sim_linear', 'ols', 'gaussian', 'identity'): ['dbdf091884b3e7c6', '00d90b6a205f7e00'],
    ('sim_linear', 'ols', 'laplace', 'diagonal'): ['19ed81b237c97395', '57754f9d74810c43'],
    ('sim_linear', 'ols', 'laplace', 'identity'): ['614f0eaa7595e532', '61fc9f7549da02e4'],
    ('sim_linear', 'ridge', 'gaussian', 'diagonal'): ['6e477b03d1ab89a1', '28b4118ee0069eb5'],
    ('sim_linear', 'ridge', 'gaussian', 'identity'): ['7427fc9ce5f8549d', '88056244123972fa'],
    ('sim_linear', 'ridge', 'laplace', 'diagonal'): ['76bdc5ea08993f1a', 'b6f34d165c1d6982'],
    ('sim_linear', 'ridge', 'laplace', 'identity'): ['fb2b75fc1357a77b', 'a92aabdff1fcb2bc'],
    ('small', 'ols', 'gaussian', 'diagonal'): ['5f23b36510407248', 'b78ea154932a8d8f'],
    ('small', 'ols', 'gaussian', 'identity'): ['1a90b91dfa66f218', '7bb61384e561adda'],
    ('small', 'ols', 'laplace', 'diagonal'): ['8d0f0c64d69be889', '9bfc843d3472f814'],
    ('small', 'ols', 'laplace', 'identity'): ['04092ef08c598783', 'eb14fd2749a8bf38'],
    ('small', 'ridge', 'gaussian', 'diagonal'): ['2014a3aac5e826cb', 'd8f6737e3eac8c36'],
    ('small', 'ridge', 'gaussian', 'identity'): ['abe3f08e078d318e', '30d501a9d22fa1c9'],
    ('small', 'ridge', 'laplace', 'diagonal'): ['1c73a721f829b17c', '84786296e00addb8'],
    ('small', 'ridge', 'laplace', 'identity'): ['505ba315f3936d1c', '334407ce9822ef3f'],
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
    assert str(info.value) == ("machine 5 failed: normal equations are singular "
                               "(rank-deficient design)")
