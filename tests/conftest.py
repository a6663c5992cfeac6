"""Suite-wide checks that run around every test."""

import threading

import pytest

import splitavg.parallel as parallel
from splitavg import (
    Dataset,
    MachineFitError,
    SplitAvgError,
    average_estimate,
    fit_closed,
    fit_erm,
    sample_dataset,
)


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread running: worker pools must be joined on every path."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for t in left:
        t.join(timeout=1.0)  # one that is already ending gets a moment to finish
    alive = [t.name for t in left if t.is_alive()]
    if alive:
        pytest.fail(f"test left threads running: {alive}")


def _fit_blocks_one_by_one(cfg, rep):
    """theta_bar of ``run_replication(cfg, rep)`` from a loop over its shards.

    Shard j is rows j n ... (j + 1) n - 1 of the replication's sample, fitted
    alone with ``fit_closed`` or ``fit_erm(tol=1e-6)``.  The first shard whose
    fit raises or does not converge raises ``MachineFitError`` with its index.
    """
    d = sample_dataset(cfg.gen, cfg.N, parallel._rep_seed(cfg.base_seed, rep))
    n, model, thetas = cfg.n, cfg.model, []
    for j in range(cfg.m):
        block = Dataset(d.X[j * n:(j + 1) * n], d.y[j * n:(j + 1) * n])
        try:
            if model.is_closed_form:
                thetas.append(fit_closed(block, model.penalty))
                continue
            report = fit_erm(block, model, tol=1e-6)
        except SplitAvgError as exc:
            raise MachineFitError(f"machine {j} failed: {exc}", machine_index=j) from exc
        if not report.converged:
            raise MachineFitError(f"machine {j} failed: no convergence", machine_index=j)
        thetas.append(report.theta_hat)
    return average_estimate(thetas)


@pytest.fixture
def shard_loop():
    """The one-by-one reference for the replication engine's stacked shard fits."""
    return _fit_blocks_one_by_one
