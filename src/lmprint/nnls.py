"""Non-negative least squares for the calibration fits, in pure Python.

Lawson and Hanson's active-set method (Solving Least Squares Problems,
1974, ch. 23) on Householder least squares. The fits are small (2 or 4
columns, a few dozen rows), so every step triangularizes the passive
columns afresh instead of updating a factorization. Residuals are summed
exactly, as integers over a power of two: each solve takes one step of
iterative refinement on them, and the final coefficients are moved by
ulps while that lowers the residual they leave.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys

from .errors import CalibrationError

# A column joins the passive set only when its gradient exceeds this share
# of |a_j| * |r|, and counts as independent only when this share of its
# norm lies outside the span of the columns before it. Rounding leaves
# about 1e-15 of either; an absolute threshold would stop early on flux
# columns, whose entries are as small as 1e-20.
_TOL = 1e-10
# rounds of ulp steps over the final coefficients; each tries 3**k moves
# for k passive columns
_POLISH_ROUNDS = 8


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


def _fixed(values):
    """(ints, k) with values[i] == ints[i] / 2**k exactly. Floats over one
    power of two multiply and add as exact integers."""
    ratios = [v.as_integer_ratio() for v in values]
    k = max((d.bit_length() - 1 for _, d in ratios), default=0)
    return [n << (k - d.bit_length() + 1) for n, d in ratios], k


def _fixed_columns(columns, which):
    """The chosen columns as lists of integers over one 2**k, and k."""
    flat, k = _fixed([v for j in which for v in columns[j]])
    m = len(flat) // max(len(which), 1)
    return [flat[t * m:(t + 1) * m] for t in range(len(which))], k


def _residuals(a, ka, xs, kx, b):
    """The rows of b - A x, exactly, as integers over 2**k, and k, for the
    columns a over 2**ka and the coefficients xs over 2**kx."""
    bs, kb = _fixed(b)
    k = max(ka + kx, kb)
    return [(bi << (k - kb)) - (sum(c[i] * xj for c, xj in zip(a, xs))
                                << (k - ka - kx))
            for i, bi in enumerate(bs)], k


def _residual_norm(columns, b, x) -> float:
    """|A x - b| from the exact rows, to within an ulp; the scaled square
    root cannot underflow on the way."""
    used = [j for j, v in enumerate(x) if v]
    a, ka = _fixed_columns(columns, used)
    xs, kx = _fixed([x[j] for j in used])
    rows, k = _residuals(a, ka, xs, kx, b)
    square = sum(ri * ri for ri in rows)  # over 4**k
    e = max(square.bit_length() // 2 - 60, 0)
    return math.ldexp(math.sqrt(square >> 2 * e), e - k)


def _polish(columns, b, x, passive):
    """x with its passive coefficients stepped an ulp at a time, together,
    while that lowers the exact residual. Nearly collinear columns leave
    many floats near the optimum, along which the rounding errors of the
    coefficients cancel to different degrees."""
    a, ka = _fixed_columns(columns, passive)
    gram = [[sum(map(operator.mul, u, v)) for v in a] for u in a]
    for _ in range(_POLISH_ROUNDS):
        # the first move, of no steps, is x itself
        moves = [[math.nextafter(x[p], s * math.inf) if s else x[p]
                  for p, s in zip(passive, steps)]
                 for steps in itertools.product((0.0, -1.0, 1.0),
                                                repeat=len(passive))]
        moves = [z for z in moves if min(z, default=1.0) > 0.0]
        flat, kx = _fixed([v for z in moves for v in z])
        n = len(passive)
        ints = [flat[t * n:(t + 1) * n] for t in range(len(moves))]
        rows, k = _residuals(a, ka, ints[0], kx, b)
        shift = k - ka - kx
        grad = [sum(map(operator.mul, u, rows)) for u in a]

        def change(zs):
            """|r - A d|^2 - |r|^2 = d.A^T A d - 2 d.A^T r, over 4**k."""
            d = [zj - xj for zj, xj in zip(zs, ints[0])]
            quad = sum(di * dj * gram[i][j] for i, di in enumerate(d) if di
                       for j, dj in enumerate(d) if dj)
            return (quad << 2 * shift) - (
                2 * sum(map(operator.mul, d, grad)) << shift)

        changes = [change(zs) for zs in ints]
        best = min(range(len(moves)), key=changes.__getitem__)
        if changes[best] >= 0:
            break
        for p, zk in zip(passive, moves[best]):
            x[p] = zk
    return x


def _lstsq(columns, rhs, passive):
    """Least squares of rhs on the passive columns, by back substitution on
    the reflected copies, which it also returns."""
    cols = _reflect([*columns, rhs], passive)
    z = [0.0] * len(passive)
    for k in reversed(range(len(passive))):
        z[k] = (cols[-1][k] - math.fsum(
            cols[passive[i]][k] * z[i]
            for i in range(k + 1, len(passive)))) / cols[passive[k]][k]
    return z, cols


def _solve(columns, b, passive):
    """Least squares of b on the passive columns with one step of iterative
    refinement. Nearly collinear columns make z large, and its rounding
    errors leave a residual far above eps * |b|; solving again for the
    exact residual of z takes most of that back."""
    z, cols = _lstsq(columns, b, passive)
    a, ka = _fixed_columns(columns, passive)
    xs, kx = _fixed(z)
    rows, k = _residuals(a, ka, xs, kx, b)
    dz, _ = _lstsq(columns, [ri / (1 << k) for ri in rows], passive)
    return [zk + dk for zk, dk in zip(z, dz)], cols


def _finish(columns, b, x, passive):
    """The polished x and the residual it leaves, read as 0 under eps * |b|."""
    x = _polish(columns, b, x, passive)
    rnorm = _residual_norm(columns, b, x)
    return x, rnorm if rnorm > sys.float_info.epsilon * math.hypot(*b) else 0.0


def nnls(columns, b):
    """Minimise |A x - b| over x >= 0, where A is given by its columns.

    Returns (x, |A x - b|) as lists and a float. The residual norm is the
    one the returned x leaves, not the tail of Q^T b: that belongs to the
    exact solution, which the rounded x misses by about cond(A) * eps * |x|.
    A residual under eps * |b|, the rounding of b itself, reads 0, so an
    exact fit reports 0.
    """
    n, m = len(columns), len(b)
    norms = [math.hypot(*c) for c in columns]
    x, passive = [0.0] * n, []
    cols = _reflect([*columns, b], passive)
    for _ in range(3 * n):
        if len(passive) == m:
            return _finish(columns, b, x, passive)
        r = cols[-1][len(passive):]
        rnorm = math.hypot(*r)
        grad = {j: math.fsum(a * ri for a, ri in zip(cols[j][len(passive):], r))
                for j in range(n) if j not in passive}
        grad = {j: g for j, g in grad.items() if g > _TOL * norms[j] * rnorm}
        while grad:
            j = max(grad, key=grad.get)
            z, cols = _solve(columns, b, passive + [j])
            if z[-1] > 0.0:
                break
            # a column whose own coefficient would not grow had a gradient
            # of rounding noise; taking it in and out again would cycle
            del grad[j]
        if not grad:
            return _finish(columns, b, x, passive)
        passive.append(j)
        while min(z) <= 0.0:
            # step from x toward z until the first coefficient reaches zero
            alpha, out = min((x[p] / (x[p] - zk), p)
                             for p, zk in zip(passive, z) if zk <= 0.0)
            for p, zk in zip(passive, z):
                x[p] += alpha * (zk - x[p])
            x[out] = 0.0
            passive = [p for p in passive if x[p] > 0.0]
            z, cols = _solve(columns, b, passive)
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
