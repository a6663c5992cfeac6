"""Loss derivatives against finite differences; prox against scalar minimization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from splitavg import losses
from splitavg import (
    ConfigError,
    LossSpec,
    ModelSpec,
    NonDifferentiableError,
    UnsupportedDerivativeError,
    loss_derivative,
    prox_eval,
)
from splitavg.losses import prox_array

SMOOTH_SPECS = [
    LossSpec.squared(),
    LossSpec.pseudo_huber(3.0),
    LossSpec.pseudo_huber(0.8),
    LossSpec.logistic(),
]

SYMMETRIC_SPECS = [LossSpec.squared(), LossSpec.pseudo_huber(3.0), LossSpec.absolute()]


def prox_oracle(spec, c, z):
    """Independent scalar minimization of f(x) + (x - z)^2 / (2c)."""
    obj = lambda x: loss_derivative(spec, x, 0) + (x - z) ** 2 / (2 * c)
    res = minimize_scalar(obj, bracket=(z - 3 - abs(z), z, z + 3 + abs(z)),
                          method="golden", options={"xtol": 1e-12})
    return res.x


def test_pseudo_huber_point_values():
    assert loss_derivative(LossSpec.pseudo_huber(3.0), 0.0, 2) == pytest.approx(1.0)
    # f1(4) = 4 / sqrt(1 + 16/9) = 2.4 exactly; cross-check by finite difference
    assert loss_derivative(LossSpec.pseudo_huber(3.0), 4.0, 1) == pytest.approx(2.4, abs=1e-12)
    h = 1e-6
    fd = (loss_derivative(LossSpec.pseudo_huber(3.0), 4.0 + h, 0)
          - loss_derivative(LossSpec.pseudo_huber(3.0), 4.0 - h, 0)) / (2 * h)
    assert fd == pytest.approx(2.4, rel=1e-8)


def test_squared_third_derivative_vanishes():
    assert loss_derivative(LossSpec.squared(), 1.7, 3) == 0.0


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=lambda s: f"{s.kind}-{s.delta}")
def test_derivatives_match_finite_differences(spec):
    # Order k checked against a central difference of the analytic order k-1.
    rng = np.random.default_rng(42)
    points = rng.uniform(-4, 4, size=20)
    h = 1e-6
    for order in range(1, 5):
        for t in points:
            fd = (loss_derivative(spec, t + h, order - 1)
                  - loss_derivative(spec, t - h, order - 1)) / (2 * h)
            exact = loss_derivative(spec, t, order)
            assert exact == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_absolute_derivatives_and_errors():
    assert loss_derivative(LossSpec.absolute(), -2.5, 0) == 2.5
    assert loss_derivative(LossSpec.absolute(), -2.5, 1) == -1.0
    with pytest.raises(NonDifferentiableError):
        loss_derivative(LossSpec.absolute(), 0.0, 1)
    with pytest.raises(UnsupportedDerivativeError):
        loss_derivative(LossSpec.absolute(), 1.0, 2)


def test_order_out_of_range():
    with pytest.raises(UnsupportedDerivativeError):
        loss_derivative(LossSpec.squared(), 0.0, 5)


def test_prox_squared_closed_form_and_oracle():
    prox, dprox = prox_eval(LossSpec.squared(), 1.0, 2.0)
    assert prox == pytest.approx(1.0)
    assert dprox == pytest.approx(0.5)
    assert prox == pytest.approx(prox_oracle(LossSpec.squared(), 1.0, 2.0), abs=1e-6)


def test_prox_absolute_soft_threshold():
    prox, dprox = prox_eval(LossSpec.absolute(), 0.5, 0.2)
    assert prox == 0.0
    assert dprox == 0.0
    assert abs(prox_oracle(LossSpec.absolute(), 0.5, 0.2)) < 1e-6
    prox, dprox = prox_eval(LossSpec.absolute(), 0.5, -1.7)
    assert prox == pytest.approx(-1.2)
    assert dprox == 1.0


@pytest.mark.parametrize("spec", SYMMETRIC_SPECS, ids=lambda s: s.kind)
def test_prox_at_zero_is_zero(spec):
    for c in (0.1, 1.0, 7.0):
        prox, _ = prox_eval(spec, c, 0.0)
        assert prox == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("spec", [LossSpec.pseudo_huber(3.0), LossSpec.logistic()],
                         ids=lambda s: s.kind)
def test_prox_newton_matches_scalar_minimization(spec):
    rng = np.random.default_rng(3)
    for _ in range(15):
        c = float(rng.uniform(0.05, 5.0))
        z = float(rng.uniform(-6, 6))
        prox, dprox = prox_eval(spec, c, z)
        assert prox == pytest.approx(prox_oracle(spec, c, z), abs=1e-6)
        # implicit-function derivative against finite difference in z
        h = 1e-6
        up, _ = prox_eval(spec, c, z + h)
        down, _ = prox_eval(spec, c, z - h)
        assert dprox == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-8)


@given(
    kind=st.sampled_from(["squared", "pseudo_huber", "absolute", "logistic"]),
    c=st.floats(0.01, 10.0),
    z1=st.floats(-50, 50),
    z2=st.floats(-50, 50),
)
@settings(max_examples=150, deadline=None)
def test_prox_firmly_nonexpansive(kind, c, z1, z2):
    spec = LossSpec(kind) if kind != "pseudo_huber" else LossSpec.pseudo_huber(2.0)
    p1, _ = prox_eval(spec, c, z1)
    p2, _ = prox_eval(spec, c, z2)
    assert abs(p1 - p2) <= abs(z1 - z2) + 1e-9


@pytest.mark.parametrize("spec", [LossSpec.pseudo_huber(3.0), LossSpec.logistic()],
                         ids=lambda s: s.kind)
def test_prox_small_c_expansion_order(spec):
    # |prox_c(z) - (z - c f1 + c^2 f1 f2)| should shrink like c^3.
    zs = [-1.3, 0.7, 2.9]
    cs = np.array([1e-1, 1e-2, 1e-3])
    worst_slope = np.inf
    for z in zs:
        f1 = loss_derivative(spec, z, 1)
        f2 = loss_derivative(spec, z, 2)
        errs = []
        for c in cs:
            prox, _ = prox_eval(spec, c, z)
            errs.append(abs(prox - (z - c * f1 + c * c * f1 * f2)))
        errs = np.array(errs)
        if np.all(errs > 1e-15):
            slope = np.polyfit(np.log(cs), np.log(errs), 1)[0]
            worst_slope = min(worst_slope, slope)
    assert worst_slope >= 2.9


@pytest.mark.parametrize("spec", [LossSpec.pseudo_huber(3.0), LossSpec.logistic()],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("c", [1e-3, 0.5, 10.0])
def test_prox_stops_at_round_off_within_eight_iterations(spec, c, monkeypatch):
    # Newton iterations are counted through the g' = 1 + c f'' evaluations:
    # one per iteration, plus one for the start and one for the returned
    # derivative.
    real = losses.derivative_array
    second = []

    def counting(spec_, t, order):
        if order == 2:
            second.append(1)
        return real(spec_, t, order)

    monkeypatch.setattr(losses, "derivative_array", counting)
    z = np.linspace(-60.0, 60.0, 24001)
    x, dprox = prox_array(spec, c, z)
    g = x - z + c * real(spec, x, 1)
    assert np.all(np.abs(g) <= 1e-12 * (1.0 + np.abs(x)))
    assert len(second) - 2 <= 8
    assert np.array_equal(dprox, 1.0 / (1.0 + c * real(spec, x, 2)))


def test_prox_rejects_nonpositive_c():
    with pytest.raises(ConfigError):
        prox_eval(LossSpec.squared(), 0.0, 1.0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        LossSpec("huber")
    for delta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            LossSpec.pseudo_huber(delta)
    with pytest.raises(ConfigError):
        ModelSpec.ridge(-0.1)
    assert LossSpec.absolute().smooth_order == 1
    assert LossSpec.logistic().smooth_order == 4


def test_sigmoid_is_the_two_branch_formula_bitwise():
    # reference: 1/(1 + e^-t) on t >= 0 and e^t/(1 + e^t) elsewhere (NaN included)
    edges = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
    t = np.concatenate([edges, 30.0 * np.random.default_rng(5).standard_normal(100_000)])
    want = np.empty_like(t)
    pos = t >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    want[~pos] = e / (1.0 + e)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = losses._sigmoid(t)
    nan = np.isnan(want)  # a NaN is a NaN: its sign bit carries nothing
    assert got.dtype == want.dtype and np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
