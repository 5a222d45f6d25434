"""Non-negative least squares for the calibration fits, in pure Python.

The fits are small (2 or 4 columns, a few dozen rows), so every support,
a set of columns allowed to be nonzero, is solved by Householder least
squares and kept when its coefficients are all positive. The least
residual wins, then the fewest columns, then the smallest |x|. At most
MAX_COLUMNS columns are taken. Residuals are summed exactly, as integers
over a power of two: each solve takes one step of iterative refinement
on them, and the winner's coefficients are moved by ulps while that
lowers the residual they leave.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys

from .errors import CalibrationError

# the most columns nnls takes: n columns make 2**n - 1 supports
MAX_COLUMNS = 8
# A column counts as independent only when this share of its norm lies
# outside the span of the columns before it. Rounding leaves about 1e-15;
# an absolute threshold would fail flux columns, whose entries are as
# small as 1e-20.
_TOL = 1e-10
# rounds of ulp steps over the winner's coefficients; each tries 3**k
# moves for a support of k columns
_POLISH_ROUNDS = 8


def _reflect(columns, count):
    """Copies of the columns with the Householder reflections that make the
    first count of them upper triangular applied."""
    cols = [list(c) for c in columns]
    for k in range(count):
        v = cols[k][k:]
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


def _fixed_lists(lists):
    """Float lists of one length as integer lists over one 2**k, and k."""
    flat, k = _fixed([v for values in lists for v in values])
    m = len(flat) // max(len(lists), 1)
    return [flat[t * m:(t + 1) * m] for t in range(len(lists))], k


def _residuals(a, ka, xs, kx, b):
    """The rows of b - A x, exactly, as integers over 2**k, and k, for the
    columns a over 2**ka and the coefficients xs over 2**kx."""
    bs, kb = _fixed(b)
    k = max(ka + kx, kb)
    return [(bi << (k - kb)) - (sum(c[i] * xj for c, xj in zip(a, xs))
                                << (k - ka - kx))
            for i, bi in enumerate(bs)], k


def _residual_norm(columns, b, z) -> float:
    """|A z - b| from the exact rows, to within an ulp, read as 0 under
    eps * |b|, the rounding of b itself; the scaled square root cannot
    underflow on the way."""
    a, ka = _fixed_lists(columns)
    xs, kx = _fixed(z)
    rows, k = _residuals(a, ka, xs, kx, b)
    square = sum(ri * ri for ri in rows)  # over 4**k
    e = max(square.bit_length() // 2 - 60, 0)
    rnorm = math.ldexp(math.sqrt(square >> 2 * e), e - k)
    return rnorm if rnorm > sys.float_info.epsilon * math.hypot(*b) else 0.0


def _polish(columns, b, z):
    """z with its coefficients stepped an ulp at a time, together, while
    that lowers the exact residual. Nearly collinear columns leave many
    floats near the optimum, along which the rounding errors of the
    coefficients cancel to different degrees."""
    a, ka = _fixed_lists(columns)
    gram = [[sum(map(operator.mul, u, v)) for v in a] for u in a]
    for _ in range(_POLISH_ROUNDS):
        # the first move, of no steps, is z itself
        moves = [[math.nextafter(zj, s * math.inf) if s else zj
                  for zj, s in zip(z, steps)]
                 for steps in itertools.product((0.0, -1.0, 1.0),
                                                repeat=len(z))]
        moves = [m for m in moves if min(m, default=1.0) > 0.0]
        ints, kx = _fixed_lists(moves)
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
        z = moves[best]
    return z


def _lstsq(columns, rhs):
    """Least squares of rhs on the columns, by back substitution on their
    reflected copies, up to a coefficient past the float range."""
    n = len(columns)
    *cols, r = _reflect([*columns, rhs], n)
    z = [0.0] * n
    for k in reversed(range(n)):
        z[k] = (r[k] - math.fsum(cols[i][k] * z[i]
                                 for i in range(k + 1, n))) / cols[k][k]
        if not math.isfinite(z[k]):  # columns near 1e-318 overflow z
            break
    return z


def _solve(columns, b):
    """Least squares of b on the columns with one step of iterative
    refinement. Nearly collinear columns make z large, and its rounding
    errors leave a residual far above eps * |b|; solving again for the
    exact residual of z takes most of that back."""
    z = _lstsq(columns, b)
    if not all(map(math.isfinite, z)):
        return z
    a, ka = _fixed_lists(columns)
    xs, kx = _fixed(z)
    rows, k = _residuals(a, ka, xs, kx, b)
    dz = _lstsq(columns, [ri / (1 << k) for ri in rows])
    return [zk + dk for zk, dk in zip(z, dz)]


def nnls(columns, b):
    """Minimise |A x - b| over x >= 0, where A is given by its columns.

    Returns (x, |A x - b|) as lists and a float. The residual norm is the
    one the returned x leaves, not the tail of Q^T b: that belongs to the
    exact solution, which the rounded x misses by about cond(A) * eps * |x|.
    A residual under eps * |b|, the rounding of b itself, reads 0, so an
    exact fit reports 0, and supports that fit exactly are told apart by
    their size and then by |x|. More than MAX_COLUMNS columns raise
    CalibrationError.
    """
    n = len(columns)
    if n > MAX_COLUMNS:
        raise CalibrationError(f"non-negative least squares takes at most "
                               f"{MAX_COLUMNS} columns, not {n}")
    # (residual, size, |z|), support, its columns, z: first the empty one
    best = (_residual_norm([], b, []), 0, 0.0), (), [], []
    for size in range(1, min(n, len(b)) + 1):
        for support in itertools.combinations(range(n), size):
            chosen = [columns[j] for j in support]
            if not independent(chosen):
                continue
            z = _solve(chosen, b)
            if all(0.0 < zj < math.inf for zj in z):
                key = (_residual_norm(chosen, b, z), size, math.hypot(*z))
                if key < best[0]:
                    best = key, support, chosen, z
    _, support, chosen, z = best
    z = _polish(chosen, b, z)
    x = dict(zip(support, z))
    return [x.get(j, 0.0) for j in range(n)], _residual_norm(chosen, b, z)


def independent(columns) -> bool:
    """True when no column lies, to within rounding, in the span of the
    columns before it."""
    for k, col in enumerate(columns):
        tail = _reflect(columns, k)[k][k:]
        if math.hypot(*tail) <= _TOL * math.hypot(*col):
            return False
    return True
