"""Non-negative least squares for the calibration fits, in pure Python.

Lawson and Hanson's active-set method (Solving Least Squares Problems,
1974, ch. 23) on Householder least squares. The fits are small (2 or 4
columns, a few dozen rows), so every step triangularizes the passive
columns afresh instead of updating a factorization.
"""

from __future__ import annotations

import math

from .errors import CalibrationError

# A column joins the passive set only when its gradient exceeds this share
# of |a_j| * |r|, and counts as independent only when this share of its
# norm lies outside the span of the columns before it. Rounding leaves
# about 1e-15 of either; an absolute threshold would stop early on flux
# columns, whose entries are as small as 1e-20.
_TOL = 1e-10


def _reflect(columns, passive):
    """Copies of the columns with the Householder reflections that make the
    passive ones upper triangular applied, in passive order."""
    cols = [list(c) for c in columns]
    for k, p in enumerate(passive):
        v = cols[p][k:]
        alpha = -math.copysign(math.hypot(*v), v[0])  # the new diagonal
        # H = I - tau u u^T with u[0] = 1: u lies in [-1, 1] and tau in
        # [1, 2] however small the column is, so nothing underflows
        tau = (alpha - v[0]) / alpha
        u = [1.0] + [vi / (v[0] - alpha) for vi in v[1:]]
        for c in cols:
            s = tau * math.fsum(ui * ci for ui, ci in zip(u, c[k:]))
            for i, ui in enumerate(u, k):
                c[i] -= s * ui
    return cols


def nnls(columns, b):
    """Minimise |A x - b| over x >= 0, where A is given by its columns.

    Returns (x, |A x - b|) as lists and a float. The residual norm is read
    from the untouched tail of Q^T b, so a fit with as many passive columns
    as rows reports exactly 0.
    """
    n, m = len(columns), len(b)
    norms = [math.hypot(*c) for c in columns]
    x, passive = [0.0] * n, []
    cols = _reflect([*columns, b], passive)
    for _ in range(3 * n):
        r = cols[-1][len(passive):]
        rnorm = math.hypot(*r)
        grad = {j: math.fsum(a * ri for a, ri in zip(cols[j][len(passive):], r))
                for j in range(n) if j not in passive}
        grad = {j: g for j, g in grad.items() if g > _TOL * norms[j] * rnorm}
        if len(passive) == m or not grad:
            return x, rnorm
        passive.append(max(grad, key=grad.get))
        while True:
            cols = _reflect([*columns, b], passive)
            z = [0.0] * len(passive)  # least squares on the passive columns
            for k in reversed(range(len(passive))):
                z[k] = (cols[-1][k] - math.fsum(
                    cols[passive[i]][k] * z[i]
                    for i in range(k + 1, len(passive)))) / cols[passive[k]][k]
            if min(z) > 0.0:
                break
            # step from x toward z until the first coefficient reaches zero
            alpha, out = min((x[p] / (x[p] - zk), p)
                             for p, zk in zip(passive, z) if zk <= 0.0)
            for p, zk in zip(passive, z):
                x[p] += alpha * (zk - x[p])
            x[out] = 0.0
            passive = [p for p in passive if x[p] > 0.0]
        x = [0.0] * n
        for p, zk in zip(passive, z):
            x[p] = zk
    raise CalibrationError("non-negative least squares did not converge")


def independent(columns) -> bool:
    """True when no column lies, to within rounding, in the span of the
    columns before it."""
    for k, col in enumerate(columns):
        tail = _reflect(columns, range(k))[k][k:]
        if math.hypot(*tail) <= _TOL * math.hypot(*col):
            return False
    return True
