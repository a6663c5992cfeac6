"""Generative data models and uniform random splitting across machines.

Linear, exponential-nonlinear and logistic responses over Gaussian designs,
with seeded, bit-reproducible sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivisibilityError
from .losses import _sigmoid

LINKS = ("linear", "exp_nonlinear", "logistic")


@dataclass(frozen=True)
class NoiseDist:
    """Additive noise: gaussian(variance) or laplace(scale).

    ``variance`` is the distribution variance in both cases (laplace variance
    is 2 b^2).  A zero-variance gaussian is allowed as the noiseless
    degenerate case.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "laplace"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and not 0 <= self.param < np.inf:
            raise ConfigError("gaussian variance must be finite and >= 0")
        if self.kind == "laplace" and not 0 < self.param < np.inf:
            raise ConfigError("laplace scale must be finite and > 0")

    @property
    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.param
        return 2.0 * self.param * self.param

    @staticmethod
    def gaussian(variance: float) -> "NoiseDist":
        return NoiseDist("gaussian", variance)

    @staticmethod
    def laplace(scale: float) -> "NoiseDist":
        return NoiseDist("laplace", scale)


def _covariance(sigma_spec, p: int):
    """The one covariance rule: a spec's checked p x p matrix and its lower Cholesky factor.

    The dimension p must be >= 1.  A spec (None = identity, 1-d diagonal, 2-d
    dense) must be finite, symmetric and positive definite.  The factor is None
    for an exact identity.
    """
    if p < 1:
        raise ConfigError("dimension p must be >= 1")
    arr = np.eye(p) if sigma_spec is None else np.asarray(sigma_spec, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (p,):
            raise ConfigError(f"diagonal covariance must have length {p}")
        arr = np.diag(arr)
    elif arr.shape != (p, p):
        raise ConfigError(f"covariance must be {p} x {p}")
    if not np.isfinite(arr).all():
        raise ConfigError("covariance must be finite")
    if not np.allclose(arr, arr.T, atol=1e-12):
        raise ConfigError("covariance must be symmetric")
    if np.array_equal(arr, np.eye(p)):
        return arr, None
    try:
        return arr, np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        raise ConfigError("covariance must be positive definite") from None


def sigma_as_matrix(sigma_spec, p: int) -> np.ndarray:
    """Expand a covariance spec (None = identity, 1-d diagonal, 2-d dense) to p x p, checked."""
    return _covariance(sigma_spec, p)[0]


def _rng(seed: int) -> np.random.Generator:
    """``default_rng(seed)`` for a seed that must be >= 0."""
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    return np.random.default_rng(seed)


def _gaussian(shape: tuple, chol, rng: np.random.Generator) -> np.ndarray:
    """Rows x ~ N(0, chol chol') of ``shape`` (last axis p); chol None is the identity."""
    x = rng.standard_normal(shape)
    return x if chol is None else x @ chol.T


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GenerativeConfig:
    """True model: design covariance, coefficients, noise and response link."""

    p: int
    theta0: np.ndarray
    noise: NoiseDist
    link: str = "linear"
    sigma_spec: object = None  # None (identity), length-p diagonal, or dense PSD
    sigma: np.ndarray = field(init=False, repr=False, compare=False, default=None)  # p x p
    _chol: np.ndarray = field(init=False, repr=False, compare=False, default=None)  # None: I

    def __post_init__(self):
        # Private read-only copies: a caller's later edit cannot reach theta0,
        # nor move sigma_spec away from the sigma and factor checked here.
        spec = None if self.sigma_spec is None else _frozen(self.sigma_spec)
        sigma, chol = _covariance(spec, self.p)
        if self.link not in LINKS:
            raise ConfigError(f"unknown link {self.link!r}")
        theta0 = _frozen(self.theta0)
        if theta0.shape != (self.p,):
            raise ConfigError(f"theta0 must have shape ({self.p},)")
        sigma.setflags(write=False)
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "sigma_spec", spec)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n x p design with its n-vector response."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or min(X.shape) < 1:
            raise ConfigError("X must be n x p with n, p >= 1 and y length n")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def sample_noise(noise: NoiseDist, n: int | tuple, rng: np.random.Generator) -> np.ndarray:
    if noise.kind == "gaussian":
        return np.sqrt(noise.param) * rng.standard_normal(n)
    # Laplace by inverse CDF keeps the draw deterministic and quadrature-friendly.
    q = np.clip(rng.random(n) - 0.5, -0.5 * (1 - 1e-16), 0.5 * (1 - 1e-16))
    return -noise.param * np.sign(q) * np.log1p(-2.0 * np.abs(q))


def _draw(cfg: GenerativeConfig, shape: tuple, rng: np.random.Generator):
    """Designs X (*shape, p) and responses y ``shape``: the package's one draw rule.

    Draw order is fixed (design, then noise/uniforms) so results are
    bit-reproducible for a given (cfg, shape, rng state).
    """
    X = _gaussian((*shape, cfg.p), cfg._chol, rng)
    s = X @ cfg.theta0
    if cfg.link == "linear":
        y = s + sample_noise(cfg.noise, shape, rng)
    elif cfg.link == "exp_nonlinear":
        y = np.exp(s) + sample_noise(cfg.noise, shape, rng)
    else:  # logistic: Bernoulli responses in {0, 1}; noise is ignored
        y = (rng.random(shape) < _sigmoid(s)).astype(float)
    return X, y


def _gram_draw(cfg: GenerativeConfig, c: int, n: int, rng: np.random.Generator):
    """Exact joint draws of (X'X, X'y) for c replications of n rows, shapes (c, p, p), (c, p).

    Linear link and Gaussian noise only.  X'X = (L A)(L A)' with L the
    covariance factor and A the lower-triangular Bartlett factor
    (A_dd^2 ~ chi2(n - d), N(0, 1) below the diagonal; Smith & Hocking 1972),
    and X'y = X'X theta0 + sigma L A z with z ~ N(0, I_p), since
    X'eps | X ~ N(0, sigma^2 X'X).  Draw order: the diagonal, the entries
    below it, then z.
    """
    p = cfg.p
    if cfg.link != "linear" or cfg.noise.kind != "gaussian":
        raise ConfigError("exact (X'X, X'y) draws need a linear link and gaussian noise")
    if n < p:
        raise ConfigError(f"exact (X'X, X'y) draws need n >= p = {p}")
    A = np.zeros((c, p, p))
    diag = np.arange(p)
    A[:, diag, diag] = np.sqrt(rng.chisquare(n - diag, size=(c, p)))
    below = np.tril_indices(p, -1)
    A[:, below[0], below[1]] = rng.standard_normal((c, below[0].size))
    F = A if cfg._chol is None else cfg._chol @ A
    G = F @ np.swapaxes(F, -1, -2)
    z = rng.standard_normal((c, p, 1))
    b = G @ cfg.theta0 + np.sqrt(cfg.noise.param) * (F @ z)[..., 0]
    return G, b


def sample_dataset(cfg: GenerativeConfig, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. samples from the generative model, deterministically in seed."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    return Dataset(*_draw(cfg, (n,), _rng(seed)))


def split_uniform(d: Dataset, m: int, seed: int) -> list[Dataset]:
    """Partition d uniformly at random into m shards of exactly n/m rows.

    A seeded permutation of the rows cut into m contiguous chunks, so the
    shards form an exact partition of the input rows.
    """
    if m < 1:
        raise ConfigError("machine count m must be >= 1")
    if d.n % m != 0:
        raise DivisibilityError(f"m = {m} does not divide n = {d.n}")
    rows = _rng(seed).permutation(d.n).reshape(m, d.n // m)
    return [Dataset(d.X[r], d.y[r]) for r in rows]


def error_ratio(err_bar: float, err_central: float) -> float:
    """err_bar / err_central, with 0/0 = 1 (both exact) and x/0 = inf."""
    if err_central == 0.0:
        return 1.0 if err_bar == 0.0 else float("inf")
    return err_bar / err_central
