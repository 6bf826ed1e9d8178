"""rank and solve against sympy's exact elimination on rational matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from voa import linalg  # noqa: E402
from voa.scalars import Context  # noqa: E402

CONTEXTS = [Context(N=1), Context(N=2, conductor=8), Context(N=3, conductor=12)]


def _frac(rng, num, den) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def _random_system(rng, nrows, ncols):
    """A rational system with zero rows, repeated rows and combinations of rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            row = [Fraction(0)] * ncols
        elif kind < 0.45 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = _frac(rng, 3, 3), _frac(rng, 3, 1)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [_frac(rng, 4, 4) if rng.random() < 0.6 else Fraction(0) for _ in range(ncols)]
        rows.append(row)
    rhs = [_frac(rng, 5, 3) if rng.random() < 0.8 else Fraction(0) for _ in rows]
    if rows and rng.random() < 0.5:
        # a consistent right-hand side: the image of a random point
        point = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        rhs = [sum((a * x for a, x in zip(row, point)), Fraction(0)) for row in rows]
    return rows, rhs


def _oracle_solve(rows, rhs, ncols):
    """The solution with free variables zero, read off sympy's rref, or None."""
    red, pivots = _matrix([row + [b] for row, b in zip(rows, rhs)]).rref()
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        v = red[r, ncols]
        x[p] = Fraction(int(v.p), int(v.q))
    return x


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"N{c.N}-n{c.conductor}")
def test_rank_and_solve_match_sympy(ctx):
    rng = random.Random(2024 + ctx.conductor)
    inconsistent = free = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows, rhs = _random_system(rng, nrows, ncols)
        scalars = [[ctx.from_fraction(x) for x in row] for row in rows]
        matrix = _matrix(rows)
        assert linalg.rank(scalars, ncols) == matrix.rank()
        got = linalg.solve(scalars, [ctx.from_fraction(b) for b in rhs], ncols, ctx)
        want = _oracle_solve(rows, rhs, ncols)
        if want is None:
            assert got is None
            inconsistent += 1
            continue
        assert [x.as_fraction() for x in got] == want
        free += matrix.rank() < ncols
    # the grid reaches inconsistent and underdetermined systems
    assert inconsistent and free


def test_rank_and_solve_without_rows():
    ctx = Context(N=1)
    assert linalg.rank([], 3) == sympy.zeros(0, 3).rank() == 0
    assert [x.as_fraction() for x in linalg.solve([], [], 3, ctx)] == [0, 0, 0]
    assert linalg.solve([], [], 0, ctx) == []
