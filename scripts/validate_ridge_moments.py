#!/usr/bin/env python3
"""Validate the ridge second-order moment coefficients against exact finite-n laws.

With identity design covariance the ridge conditional bias and covariance are
spectral functions of S = X'X/n, and the eigenvectors of nS ~ Wishart_p(n, I)
are Haar distributed and independent of its eigenvalues (Muirhead, Aspects of
Multivariate Statistical Theory, 1982, sec. 3.2).  So the average over the
eigenvectors is closed form, and the exact finite-n bias and MSE are integrals
over the eigenvalue law, done here by Gauss-Legendre quadrature with each
density normalized on its own nodes in log space:

  * p = 1: nS ~ chi2(n).
  * p = 2: with w1 > w2 the eigenvalues of nS, u = w1 + w2 ~ chi2(2n) and
    t = (w1 - w2)/u, whose density is proportional to t (1 - t^2)^((n-3)/2)
    on [0, 1], are independent.

With theta0 = tau e1, s_i = w_i/n and g_i = s_i/(s_i+lam) - 1/(1+lam), the
averages of the conditional bias b over the rotation angle are

    E[b1 | s] = tau (g1 + g2)/2,             E[b2 | s] = 0,
    E[b1^2 | s] = tau^2 (3 g1^2 + 3 g2^2 + 2 g1 g2)/8,
    E[b2^2 | s] = tau^2 (g1 - g2)^2/8,       E[b1 b2 | s] = 0,

and the conditional covariance averages to sigma2/n (e1 + e2)/2 I with
e_i = s_i/(s_i+lam)^2.  At p = 1 the one eigenvalue is s1 = s2, where these
are the scalar laws.

Fitting a/n + b/n^2 + c/n^3 to the bias and to the MSE diagonal (after
removing the known gamma1/n) across an n-grid recovers the delta and
second-order-sum coefficients to many digits.  Both are compared against the
implemented coefficient set (splitavg.ridge_gammas) and against two alternate
sets one finds in circulation for these moments: one differing only in the
gamma2 trace weight ((3+p) instead of (2+p)), and one with a larger gamma3
cross-term weight plus one less shrinkage factor on gamma4.  Only the
implemented set matches the finite-n laws.

Run:  python scripts/validate_ridge_moments.py
"""

import numpy as np

from splitavg import lam_kl, ridge_gammas

LAM = 1.0
NODES = 100  # Gauss-Legendre nodes per axis
WIDTH = 14.0  # each axis spans this many standard deviations of its law either side


def alternate_sums(sigma2, theta0, which):
    """Second-order sums for the two alternate coefficient sets."""
    p = theta0.size
    B = np.outer(theta0, theta0)
    A = float(theta0 @ theta0) * np.eye(p)
    eye = np.eye(p)
    l = lambda k, j: lam_kl(LAM, k, j)
    if which == "alt_gamma2":
        # the implemented set with gamma2's trace weight (2+p) replaced by (3+p)
        gam = ridge_gammas(theta0, sigma2, LAM)
        g2 = -l(2, 5) * ((4 + p) * B + (3 + p) * A) - l(0, 3) * sigma2 * (1 + p) * eye
        return g2 + g2.T + gam.gamma3 + gam.gamma4 + gam.gamma4.T
    # "uncorrected": smaller gamma3 B-weight, one less shrinkage on gamma4
    g2 = -l(2, 5) * ((4 + p) * B + (2 + p) * A) - l(0, 3) * sigma2 * (1 + p) * eye
    g3 = l(2, 6) * ((5 + p + p * p) * B + (2 + p) * A) + l(0, 4) * sigma2 * (1 + p) * eye
    g4 = l(2, 5) * ((5 + 2 * p) * B + (3 + 2 * p) * A) + l(0, 3) * sigma2 * (1 + p) * eye
    return g2 + g2.T + g3 + g4 + g4.T


def quadrature(lo, hi, log_density):
    """Gauss-Legendre nodes on [lo, hi] and weights of the density normalized on them."""
    x, w = np.polynomial.legendre.leggauss(NODES)
    x = lo + (hi - lo) * (x + 1) / 2
    log_w = np.log(w) + log_density(x)
    w = np.exp(log_w - log_w.max())
    return x, w / w.sum()


def chi2_quadrature(k):
    half = WIDTH * np.sqrt(2 * k)
    return quadrature(max(k - half, 0.0), k + half, lambda x: (k / 2 - 1) * np.log(x) - x / 2)


def eigenvalues(n, p):
    """Nodes (s1, s2) of the eigenvalues of S = X'X/n, s1 = s2 at p = 1, and their weights."""
    if p == 1:
        w, weight = chi2_quadrature(n)
        return w / n, w / n, weight
    u, u_weight = chi2_quadrature(2 * n)
    t, t_weight = quadrature(0.0, min(WIDTH / np.sqrt(n), 1.0),
                             lambda t: np.log(t) + (n - 3) / 2 * np.log1p(-t * t))
    u, t = u[:, None] / n, t[None, :]
    weight = u_weight[:, None] * t_weight
    return (u * (1 + t) / 2).ravel(), (u * (1 - t) / 2).ravel(), weight.ravel()


def exact_moments(n, p, sigma2, tau):
    """Exact first bias coordinate and MSE diagonal of ridge at sample size n, theta0 = tau e1."""
    s1, s2, weight = eigenvalues(n, p)
    g1, g2 = (LAM * (s - 1) / ((s + LAM) * (1 + LAM)) for s in (s1, s2))
    noise = sigma2 / n * (s1 / (s1 + LAM) ** 2 + s2 / (s2 + LAM) ** 2) / 2
    signal = np.array([(3 * g1 ** 2 + 3 * g2 ** 2 + 2 * g1 * g2) / 8, (g1 - g2) ** 2 / 8])
    return weight @ (tau * (g1 + g2) / 2), (tau ** 2 * signal[:p] + noise) @ weight


def fit_coefficient(ns, values, lead, order=2):
    """Least-squares 1/n^order coefficient after removing the known lead/n term."""
    ns = np.asarray(ns, dtype=float)
    y = np.asarray(values) - lead / ns
    basis = np.vstack([ns ** -k for k in range(order, order + 3)]).T
    return np.linalg.lstsq(basis, y, rcond=None)[0][0]


P1_CASES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]  # (sigma2, tau), theta0 = tau
P2_CASES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]  # (sigma2, tau), theta0 = tau e1


def fit(p, sigma2, tau, ns=(400, 800, 1600, 3200)):
    """Implemented moments, and the first delta coordinate and second-order-sum
    diagonal fitted to the exact laws."""
    gam = ridge_gammas(tau * np.eye(p)[0], sigma2, LAM)
    biases, mses = zip(*(exact_moments(n, p, sigma2, tau) for n in ns))
    delta_hat = fit_coefficient(ns, biases, 0.0, order=1)
    sum_hat = np.array([fit_coefficient(ns, column, lead)
                        for column, lead in zip(np.transpose(mses), np.diag(gam.gamma1))])
    return gam, delta_hat, sum_hat


def run(p, cases):
    print(f"== p = {p}, penalty = 1: exact eigenvalue quadrature ==")
    entries = lambda v: " ".join(f"{x:+.6f}" for x in v)
    for sigma2, tau in cases:
        gam, delta_hat, sum_hat = fit(p, sigma2, tau)
        row = (f"sigma2={sigma2} tau={tau}: "
               f"delta {delta_hat:+.6f} (implemented {gam.delta[0]:+.6f})  "
               f"sum diag {entries(sum_hat)} "
               f"(implemented {entries(np.diag(gam.second_order_sum()))}")
        for which in ("alt_gamma2", "uncorrected"):
            alt = alternate_sums(sigma2, tau * np.eye(p)[0], which)
            row += f", {which} {entries(np.diag(alt))}"
        print(row + ")")


if __name__ == "__main__":
    run(1, P1_CASES)
    run(2, P2_CASES)
