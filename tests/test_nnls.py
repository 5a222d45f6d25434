"""The pure-Python calibration solver against scipy's, on the shapes of
both calibration fits. It tries every support (set of columns allowed to
be nonzero) and keeps the least residual, then the fewest columns, then
the smallest |x|; it takes at most MAX_COLUMNS columns."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

import lmprint.nnls as solver
from lmprint import CalibrationError, fit_width_model
from lmprint.nnls import MAX_COLUMNS, independent, nnls


def _scipy(columns, b) -> list[float]:
    x, _ = scipy_nnls(np.array(columns, dtype=float).T,
                      np.array(b, dtype=float))
    return [float(v) for v in x]


def _residual(columns, b, x) -> float:
    """|A x - b| computed exactly from x, rounded once at the end."""
    square = sum((sum(Fraction(col[i]) * Fraction(v)
                      for col, v in zip(columns, x)) - Fraction(bi)) ** 2
                 for i, bi in enumerate(b))
    # scaled by 4**k so that no tiny square underflows on its way to float
    k = max(0, square.denominator.bit_length()
            - square.numerator.bit_length()) // 2 + 60
    return math.ldexp(math.sqrt(square * 4 ** k), -k)


def _assert_no_worse_residual(columns, b, x, rnorm, ref):
    """lmprint's x leaves a residual no larger than scipy's x does, and
    its rnorm is that residual, each recomputed exactly from x. scipy's own
    rnorm is not trusted: it can read 0 where its x leaves 1e-9. Rounding
    leaves an exact fit about 1e-16 of |b|."""
    slack = 1e-13 * math.hypot(*b)
    mine, theirs = _residual(columns, b, x), _residual(columns, b, ref)
    assert mine <= theirs * (1 + 1e-9) + slack
    assert abs(rnorm - mine) <= 1e-9 * mine + slack


def _stable(columns, b, x, constrained):
    """Whether the problem has a well-conditioned full column rank and every
    constrained coefficient of the solution x is clearly positive or
    clearly held at zero, so rounding cannot move which ones are zero."""
    a = np.array(columns, dtype=float).T
    # math.hypot, as np.linalg.norm squares entries of 1e-200 to zero
    norms = np.array([math.hypot(*c) for c in columns])
    scale = math.hypot(*b)
    if a.shape[0] < a.shape[1] or not norms.all() or not scale or \
            np.linalg.cond(a / norms) > 1e3:
        return False
    # in units where each column and b have norm 1, so nothing underflows
    a, b = a / norms, np.asarray(b) / scale
    x = np.asarray(x) * norms / scale
    grad = a.T @ (b - a @ x)
    return all(x[j] > 1e-4 if x[j] > 0.0 else grad[j] < -1e-4
               for j in constrained)


@st.composite
def flux_problems(draw):
    """Two columns >= 0 at scales 1e-20 to 1e-8, as the flux fit builds
    them, and fluxes from constants of either sign plus noise."""
    m = draw(st.integers(1, 12))
    scales = [10.0 ** draw(st.floats(-20.0, -8.0)) for _ in range(2)]
    columns = [[s * draw(st.floats(0.0, 1.0)) for _ in range(m)]
               for s in scales]
    kappa = [draw(st.floats(-1.0, 1.0)) for _ in range(2)]
    b = [kappa[0] * p + kappa[1] * c + 0.1 * max(scales) * draw(
        st.floats(-1.0, 1.0)) for p, c in zip(*columns)]
    return columns, b


@st.composite
def width_samples(draw):
    """(speed, pressure, width) samples from a power law whose exponents
    may have either sign, with noise."""
    m = draw(st.integers(3, 12))
    log_a = draw(st.floats(-12.0, -4.0))
    b, c = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    samples = []
    for _ in range(m):
        v, f = draw(st.floats(1.0, 400.0)), draw(st.floats(1.0, 800.0))
        noise = draw(st.floats(-0.2, 0.2))
        samples.append((v, f, math.exp(log_a + noise) * f ** b / v ** c))
    return samples


@settings(max_examples=400, deadline=None)
@given(flux_problems())
@example(([[0.0], [8.724484470149369e-177]], [1e-09]))  # |v|^2 underflows
# the first coefficient is held at zero, so the least residual is
# 1e-9/sqrt(2), which nnls leaves; scipy reports rnorm 0, but its x
# leaves 1e-9
@example(([[0.0, 1e-08], [4.0997635936137906e-139, 4.0997635936137906e-139]],
          [1e-09, 4.0997635936137906e-139]))
# |b| squares to zero in np.linalg.norm, which made a coefficient of 3e-14
# of |b| look clearly positive
@example(([[1e-08, 0.0], [0.0, 1e-08]],
          [6.515508074434467e-248, -2.2790692972472672e-234]))
# the second column's gradient is rounding noise: a refined solve gives it
# a coefficient <= 0
@example(([[6.6210937500000005e-18, 1e-17], [0.0, 1e-08]],
          [1.241455078125e-18, 1.875e-18]))
# a lone column near 1e-318 would fit with a coefficient past the float
# range, so x stays 0
@example(([[1.112537e-318], [0.0]], [1e-09]))
def test_flux_shaped_matches_scipy(problem):
    columns, b = problem
    x, rnorm = nnls(columns, b)
    ref = _scipy(columns, b)
    _assert_no_worse_residual(columns, b, x, rnorm, ref)
    assert all(type(v) is float and v >= 0.0 for v in x)
    if _stable(columns, b, ref, constrained=(0, 1)):
        assert [v == 0.0 for v in x] == [v == 0.0 for v in ref]
        assert x == pytest.approx(ref, rel=1e-8)


@settings(max_examples=400, deadline=None)
@given(width_samples())
# with the intercept, both exponents of the unconstrained fit are negative,
# but the optimum keeps one of them
@example([(379.0, 657.0, 9.2), (161.0, 207.0, 1.27), (252.0, 362.0, 3.66)])
# log F varies by 4e-4 and log v not at all, so x is near 2300 and its
# rounding leaves 8e-13 where the tail of Q^T b reads 1e-14
@example([(1.0, 697.5, 0.01831563888873418),
          (1.0, 697.25, 0.016163494588165874),
          (1.0, 697.5, 0.01831563888873418)])
# a square fit with x near 84485: no float within 5 ulps of each
# coefficient leaves under 8e-13, and that is the residual reported, not
# the 0 of an exact fit
@example([(398.6015625, 549.0, 0.01831563888873418),
          (326.4921875, 2.0, 0.020754337873699742),
          (351.140625, 15.5, 0.01831563888873418)])
# -log v enters with a gradient of rounding noise, as in the flux case
@example([(1.0, 692.0, 0.01831563888873418),
          (1.0, 691.0, 0.016163494588165874),
          (2.0, 692.0, 0.01831563888873418)])
def test_width_shaped_matches_scipy(samples):
    ones = [1.0] * len(samples)
    log_f = [math.log(f) for _, f, _ in samples]
    minus_log_v = [-math.log(v) for v, _, _ in samples]
    columns = [ones, [-1.0] * len(samples), log_f, minus_log_v]
    b = [math.log(w) for _, _, w in samples]
    x, rnorm = nnls(columns, b)
    ref = _scipy(columns, b)
    _assert_no_worse_residual(columns, b, x, rnorm, ref)
    ref_abc = [ref[0] - ref[1], ref[2], ref[3]]
    if _stable([ones, log_f, minus_log_v], b, ref_abc, constrained=(1, 2)):
        model = fit_width_model(samples)
        assert model.residual == rnorm
        assert model.a == pytest.approx(math.exp(ref_abc[0]), rel=1e-8)
        assert [model.b == 0.0, model.c == 0.0] == \
            [ref[2] == 0.0, ref[3] == 0.0]
        assert [model.b, model.c] == pytest.approx(ref_abc[1:], rel=1e-8)


def test_worked_cases():
    # scipy's documented examples: an interior optimum and a clamped one
    x, rnorm = nnls([[1, 1, 0], [0, 0, 1]], [2, 1, 1])
    assert x == pytest.approx([1.5, 1.0], rel=1e-15)
    assert rnorm == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert nnls([[1, 1, 0], [0, 0, 1]], [-1, -1, -1]) == \
        ([0.0, 0.0], math.sqrt(3.0))
    # three columns near 1e-318: every support needs coefficients past the
    # float range, some of either sign, so x stays 0
    t = 1e-318
    x, rnorm = nnls([[t, 0.0, 0.0], [-t, t, 0.0], [t, -t, t]], [1e-9] * 3)
    assert x == [0.0] * 3
    assert rnorm == pytest.approx(math.sqrt(3.0) * 1e-9, rel=1e-15)
    # one row: either column alone fits exactly, the one with the smaller
    # coefficient takes the fit, and the residual reads 0
    x, rnorm = nnls([[1e-11], [3e-10]], [6e-11])
    assert x[0] == 0.0 and x[1] == pytest.approx(0.2, rel=1e-15)
    assert rnorm == 0.0


def test_independent():
    assert independent([[1.0, 1.0, 1.0], [0.0, 1.0, 3.0]])
    assert not independent([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    assert not independent([[1.0, 2.0], [0.0, 1.0], [5.0, 1.0]])  # 3 in 2-D
    logs = [[1.0] * 3, [math.log(f) for f in (50, 100, 200)],
            [-math.log(v) for v in (10, 20, 40)]]  # F = 5 v
    assert not independent(logs)


def test_columns_past_max_columns_raise_before_any_solve(monkeypatch):
    n = MAX_COLUMNS
    identity = [[float(i == j) for i in range(n)] for j in range(n)]
    assert nnls(identity, [2.0] * n) == ([2.0] * n, 0.0)

    def solve(*args):
        raise AssertionError("a support was solved")

    monkeypatch.setattr(solver, "_solve", solve)
    monkeypatch.setattr(solver, "independent", solve)
    with pytest.raises(CalibrationError,
                       match=f"at most {n} columns, not {n + 1}$"):
        nnls([*identity, [1.0] * n], [2.0] * n)
