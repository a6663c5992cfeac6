#!/usr/bin/env python3
"""Validate the ridge second-order moment coefficients against exact finite-n laws.

The implemented closed forms (splitavg.ridge_gammas) are checked two ways:

  * p = 1: the conditional bias/MSE of the ridge estimator depend on the
    design only through S = X'X/n ~ Gamma(n/2, 2/n), so the exact finite-n
    bias and MSE are one-dimensional integrals.  Fitting a/n + b/n^2 (+c/n^3)
    across an n-grid recovers the delta and second-order-sum coefficients to
    many digits.
  * p = 2: the same conditional decomposition with S drawn by the Bartlett
    construction (no data matrices needed), averaged over millions of draws.

Both are compared against the implemented coefficient set and against two
alternate sets one finds in circulation for these moments: one differing only
in the gamma2 trace weight ((3+p) instead of (2+p)), and one with a larger
gamma3 cross-term weight plus one less shrinkage factor on gamma4.  Only the
implemented set matches the finite-n laws.

Run:  python scripts/validate_ridge_moments.py
"""

import numpy as np
from scipy import integrate, stats

from splitavg import lam_kl, ridge_gammas

LAM = 1.0


def alternate_sums(p, sigma2, theta0, which):
    """Second-order sums for the two alternate coefficient sets."""
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


def exact_p1_moments(n, sigma2, theta0):
    """Exact bias and MSE of the p = 1 ridge estimator at sample size n."""
    dist = stats.gamma(a=n / 2.0, scale=2.0 / n)

    def column(f):
        return integrate.quad(lambda s: f(s) * dist.pdf(s), 0, np.inf,
                              limit=400, epsabs=1e-15, epsrel=1e-13)[0]

    b = lambda s: s * theta0 / (s + LAM) - theta0 / (1 + LAM)
    bias = column(b)
    mse = column(lambda s: b(s) ** 2) + sigma2 / n * column(
        lambda s: s / (s + LAM) ** 2)
    return bias, mse


def fit_coefficient(ns, values, lead, order=2):
    """Least-squares 1/n^order coefficient after removing the known lead/n term."""
    ns = np.asarray(ns, dtype=float)
    y = np.asarray(values) - lead / ns
    basis = np.vstack([ns ** -k for k in range(order, order + 3)]).T
    return np.linalg.lstsq(basis, y, rcond=None)[0][0]


P1_CASES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]  # (sigma2, theta0)


def fit_p1(sigma2, theta0, ns=(400, 800, 1600, 3200)):
    """Implemented moments and the delta, second-order sum fitted to the exact p = 1 laws."""
    gam = ridge_gammas(np.array([theta0]), sigma2, LAM)
    biases, mses = zip(*(exact_p1_moments(n, sigma2, theta0) for n in ns))
    delta_hat = fit_coefficient(ns, biases, 0.0, order=1)
    sum_hat = fit_coefficient(ns, mses, gam.gamma1[0, 0], order=2)
    return gam, delta_hat, sum_hat


def run_p1():
    print("== p = 1, penalty = 1: exact quadrature ==")
    for sigma2, theta0 in P1_CASES:
        gam, delta_hat, sum_hat = fit_p1(sigma2, theta0)
        row = (f"sigma2={sigma2} theta0={theta0}: "
               f"delta {delta_hat:+.6f} (implemented {gam.delta[0]:+.6f})  "
               f"sum {sum_hat:+.6f} (implemented {gam.second_order_sum()[0, 0]:+.6f}")
        for which in ("alt_gamma2", "uncorrected"):
            row += f", {which} {alternate_sums(1, sigma2, np.array([theta0]), which)[0, 0]:+.6f}"
        print(row + ")")


def bartlett_s_matrices(rng, n, count):
    """Draws of S = X'X/n for p = 2 via the Bartlett construction."""
    c11 = np.sqrt(rng.chisquare(n, count))
    c22 = np.sqrt(rng.chisquare(n - 1, count))
    c21 = rng.standard_normal(count)
    s11 = c11 ** 2 / n
    s21 = c11 * c21 / n
    s22 = (c21 ** 2 + c22 ** 2) / n
    return s11, s21, s22


def run_p2(reps=20_000_000, seed=11):
    print("== p = 2, penalty = 1, theta0 = e1, sigma2 = 1: Bartlett MC ==")
    theta0 = np.array([1.0, 0.0])
    sigma2 = 1.0
    gam = ridge_gammas(theta0, sigma2, LAM)
    ns = [100, 200, 400]
    mse_by_n = {}
    rng = np.random.default_rng(seed)
    for n in ns:
        acc_bb = np.zeros((2, 2))
        acc_var = np.zeros((2, 2))
        done = 0
        while done < reps:
            c = min(2_000_000, reps - done)
            s11, s21, s22 = bartlett_s_matrices(rng, n, c)
            det = (s11 + LAM) * (s22 + LAM) - s21 ** 2
            i11, i21, i22 = (s22 + LAM) / det, -s21 / det, (s11 + LAM) / det
            # conditional bias  b = (S+I)^-1 S theta0 - theta0 / 2
            b1 = i11 * s11 + i21 * s21 - 0.5
            b2 = i21 * s11 + i22 * s21
            acc_bb += [[b1 @ b1, b1 @ b2], [b1 @ b2, b2 @ b2]]
            # conditional covariance  (sigma2/n) (S+I)^-1 S (S+I)^-1
            q11, q12 = i11 * s11 + i21 * s21, i11 * s21 + i21 * s22
            q21, q22 = i21 * s11 + i22 * s21, i21 * s21 + i22 * s22
            acc_var += [[q11 @ i11 + q12 @ i21, q11 @ i21 + q12 @ i22],
                        [q21 @ i11 + q22 @ i21, q21 @ i21 + q22 @ i22]]
            done += c
        mse_by_n[n] = acc_bb / reps + sigma2 / n * acc_var / reps
    ns_arr = np.array(ns, dtype=float)
    sum_hat = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            y = np.array([mse_by_n[n][i, j] for n in ns]) - gam.gamma1[i, j] / ns_arr
            basis = np.vstack([ns_arr ** -2.0, ns_arr ** -3.0]).T
            sum_hat[i, j] = np.linalg.lstsq(basis, y, rcond=None)[0][0]
    print("fitted second-order sum diag:", np.round(np.diag(sum_hat), 4))
    print("implemented:", np.round(np.diag(gam.second_order_sum()), 4))
    for which in ("alt_gamma2", "uncorrected"):
        print(f"{which}:", np.round(np.diag(alternate_sums(2, sigma2, theta0, which)), 4))


if __name__ == "__main__":
    run_p1()
    run_p2()
