"""Fit and certify the rows of degenlab.evolve.CONTOUR_ROWS.

A row (Lambda, n, mu t0, alpha, h n, bound) is the hyperbolic rule of
evolve._hyperbola for t0 = 1; it scales with t0, so it serves every
t in [t0, Lambda t0].  Its bound is the max over tau = t / t0 in
geomspace(1, Lambda, 1 + ceil(400 log10 Lambda)) and x in {0} and
geomspace(1e-8, 1e16, 4801) of |e^{-tau x} - r_tau(x)| plus the roundoff
2 eps sum_k |w_k e^{tau s_k}|, times 1.05, rounded up to two digits.

    python tools/contour_rows.py check
        re-measures the bound of every row of the table and exits 1 when
        a row's worst error, before the 1.05 margin, exceeds its bound
    python tools/contour_rows.py fit LAMBDA N [MU_T0]
        fits (mu t0, alpha, h n) for n shifts over [1, LAMBDA] by
        Nelder-Mead on the log of the bound at 100 values of tau a decade
        and 601 of x, holding mu t0 fixed when MU_T0 is given (the
        single-time rows: mu t0 sets the roundoff of large-time
        conservation), and prints the certified row

Run from the repository root with src on the path (PYTHONPATH=src).
"""

import sys

import numpy as np
from scipy.optimize import minimize

from degenlab.evolve import CONTOUR_ROWS, _hyperbola

EPS = np.finfo(float).eps
X_FIT = np.concatenate([[0.0], np.geomspace(1e-8, 1e16, 601)])
X_CERT = np.concatenate([[0.0], np.geomspace(1e-8, 1e16, 4801)])


def taus(lam, per_decade):
    return np.geomspace(1.0, lam, 1 + int(np.ceil(per_decade * np.log10(lam)))) if lam > 1 else np.ones(1)


def worst(n, mu, alpha, hn, tau, x):
    """Max of the scalar error plus roundoff over the times tau and points x."""
    s, w = _hyperbola(n, mu, alpha, hn / n)
    resolvents = 1.0 / (s + x[:, None])
    out = 0.0
    for chunk in np.array_split(tau, max(1, tau.size // 200)):
        v = w[:, None] * np.exp(np.outer(s, chunk))
        err = np.abs(np.exp(-np.outer(x, chunk)) - (resolvents @ v).real).max(axis=0)
        out = max(out, float((err + 2.0 * EPS * np.abs(v).sum(axis=0)).max()))
    return out


def measured(lam, n, mu, alpha, hn):
    """The worst error of a row over the certification grid."""
    return worst(n, mu, alpha, hn, taus(lam, 400), X_CERT)


def certified(lam, n, mu, alpha, hn):
    b = 1.05 * measured(lam, n, mu, alpha, hn)
    digit = 10.0 ** (np.floor(np.log10(b)) - 1)
    return float(np.ceil(b / digit) * digit)


def fit(lam, n, mu_fixed=None):
    near = min(CONTOUR_ROWS, key=lambda row: (abs(np.log(row[0] / lam)), abs(row[1] - n)))
    start = np.array(near[2:5])
    tau = taus(lam, 100)

    def objective(p):
        mu, alpha, hn = (mu_fixed, *p) if mu_fixed else p
        if not (mu > 0 and 0.01 < alpha < 1.55 and hn > 0):
            return 100.0
        return np.log10(worst(n, mu, alpha, hn, tau, X_FIT))

    best = None
    for scale in (1.0, 0.6, 1.6):
        x0 = start * [scale, 1.0, 1.0]
        res = minimize(objective, x0[1:] if mu_fixed else x0, method="Nelder-Mead",
                       options={"xatol": 1e-4, "fatol": 1e-3, "maxiter": 800})
        if best is None or res.fun < best.fun:
            best = res
    mu, alpha, hn = (mu_fixed, *best.x) if mu_fixed else best.x
    return lam, n, round(float(mu), 4), round(float(alpha), 4), round(float(hn), 4)


def main(argv):
    if argv[:1] == ["check"]:
        failed = 0
        for row in CONTOUR_ROWS:
            err = measured(*row[:5])
            failed += err > row[5]
            print(row, f"worst error {err:.3g}", "ok" if err <= row[5] else "EXCEEDS BOUND")
        sys.exit(1 if failed else 0)
    elif argv[:1] == ["fit"] and len(argv) in (3, 4):
        row = fit(float(argv[1]), int(argv[2]), float(argv[3]) if len(argv) == 4 else None)
        print(row + (float(f"{certified(*row):.2g}"),))
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
