"""Shards as views of the sample: no state between replications, never visible in results.

``parallel._shard_fits`` fits each replication's shards as (m, n, p) and
(m, n) views of its own sample.  Outputs must not depend on the replications
run before, on the thread that ran a replication, or on a failed fit before
it; and no result may alias the sample.
"""

import platform
import resource
import sys
import threading

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
    run_experiment,
    run_replication,
    sample_dataset,
)

FIELDS = ("theta_bar", "theta_central", "per_coordinate_bias_sample")


def _cfg(model, p, N, m, reps=3, seed=5):
    raw = np.arange(1.0, p + 1.0)
    link = "logistic" if model == "logistic" else "linear"
    gen = GenerativeConfig(p=p, theta0=raw / np.linalg.norm(raw),
                           noise=NoiseDist.gaussian(1.0), link=link)
    spec = {"ols": ModelSpec.ols(), "ridge": ModelSpec.ridge(1.0),
            "logistic": ModelSpec.logistic()}[model]
    return ExperimentConfig(gen=gen, model=spec, N=N, m=m, replications=reps, base_seed=seed)


def _bytes(res) -> tuple:
    return tuple(getattr(res, f).tobytes() for f in FIELDS) + (res.err_bar, res.err_central)


def _in_fresh_thread(fn):
    """fn() on a new thread, which has run no replication before."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and len(out) == 1
    return out[0]


# two models on one (m, n, p), one shape of the same m n with another m, and a new p
CONFIGS = [_cfg("ridge", 4, 400, 4), _cfg("logistic", 4, 400, 4), _cfg("ols", 4, 400, 8),
           _cfg("ridge", 3, 600, 6), _cfg("logistic", 2, 300, 3)]


def test_interleaved_shapes_and_models_match_each_run_alone():
    alone = [_in_fresh_thread(lambda c=c: [_bytes(run_replication(c, r)) for r in range(3)])
             for c in CONFIGS]
    interleaved = [[] for _ in CONFIGS]
    for r in range(3):
        for i, c in enumerate(CONFIGS):
            interleaved[i].append(_bytes(run_replication(c, r)))
    assert interleaved == alone


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("model", ["ridge", "logistic"])
def test_threaded_run_equals_serial_run_replication_by_replication(model, threads):
    cfg = _cfg(model, 3, 600, 6, reps=16)
    serial = [_bytes(res) for res in run_experiment(cfg)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-sample and mid-fit
    try:
        threaded = [_bytes(res) for res in run_experiment(cfg, threads=threads)]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.mark.parametrize("model", ["ridge", "logistic"])
def test_failed_shard_fit_leaves_the_next_replication_unchanged(model):
    cfg = _cfg(model, 4, 400, 4)
    want = _bytes(run_replication(cfg, 1))
    d = parallel.sample_dataset(cfg.gen, cfg.N, 0)
    X = d.X.copy()
    X[2 * cfg.n:3 * cfg.n, 1] = np.nan  # same shape, shard 2 fails
    with np.errstate(all="ignore"), pytest.raises(MachineFitError) as info:
        parallel._shard_fits(Dataset(X, d.y), cfg)
    assert info.value.machine_index == 2
    assert _bytes(run_replication(cfg, 1)) == want


@pytest.mark.parametrize("model", ["ridge", "logistic"])
def test_results_do_not_alias_the_sample(monkeypatch, model):
    cfg = _cfg(model, 4, 400, 4)
    samples = []

    def recording_sample(gen, n, seed):
        samples.append(sample_dataset(gen, n, seed))
        return samples[-1]

    monkeypatch.setattr(parallel, "sample_dataset", recording_sample)
    results = [run_replication(cfg, r) for r in range(2)]
    results += run_experiment(cfg)
    shard_fits = parallel._shard_fits(samples[0], cfg)
    assert len(samples) == len(results) == 5
    for d, res in zip(samples, results):
        for arr in (d.X, d.y):
            assert not np.shares_memory(shard_fits, arr)
            for f in FIELDS:
                assert not np.shares_memory(getattr(res, f), arr)


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc heap trimming through Linux per-thread rusage")
def test_linear_replication_does_not_refault_its_shards():
    # The sim_linear shape: a fresh 3.2 MB (m, n, p) stack per replication
    # lifted the heap over glibc's trim threshold, so each replication gave
    # about 7 MB back to the kernel and took ~1750 minor faults to get it back.
    cfg = _cfg("ridge", 20, 20000, 40, reps=23)
    for r in range(3):
        run_replication(cfg, r)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for r in range(3, 23):
        run_replication(cfg, r)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults / 20 < 100
