"""The scalar field against an independent sympy oracle.

The oracle computes in Q[x, r] modulo Phi_n(x) and r^2 - 2N, which form a
Groebner basis (their leading monomials are coprime), so the remainder of
sympy's multivariate division is a normal form.  Where sqrt(2N) lies in
Q(zeta_n) the oracle substitutes an explicit root for r first: the
integer root of a perfect square, or zeta_8 + zeta_8^{-1} = sqrt(2) (written
in zeta_24 at conductor 24).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from voa.scalars import Context  # noqa: E402

x, r = sympy.symbols("x r")

# (conductor, N, the root substituted for r where sqrt(2N) folds, else None)
CASES = [
    (4, 1, None),
    (4, 3, None),
    (8, 2, 2),
    (8, 3, None),
    (12, 3, None),
    (8, 1, x + x**7),
    # unit groups of order 8, none cyclic: inverses multiply seven conjugates
    (16, 3, None),
    (20, 1, None),
    (24, 1, x**3 + x**21),
]


def _normal(expr, n: int, n_lat: int, root):
    if root is not None:
        expr = expr.subs(r, root)
    gens = [sympy.cyclotomic_poly(n, x), r**2 - 2 * n_lat]
    _, rem = sympy.reduced(sympy.expand(expr), gens, x, r, domain=sympy.QQ)
    return sympy.expand(rem)


def _oracle(s, root):
    """The scalar as an expression in x = zeta_n and r = sqrt(2N)."""
    def poly(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs))

    ctx = s.ctx
    return _normal(poly(s.rat) + r * poly(s.rad), ctx.conductor, ctx.N, root)


def _same(s, expr, root) -> bool:
    return sympy.expand(_oracle(s, root) - expr) == 0


def _oracle_inverse(expr, n: int, n_lat: int, root):
    # solve expr * f = 1 for the coordinates of f in the normal-form basis
    phi = sympy.totient(n)
    basis = [x**i * r**j for j in range(1 if root is not None else 2) for i in range(phi)]
    columns = []
    for b in basis:
        prod = sympy.Poly(_normal(expr * b, n, n_lat, root), x, r)
        columns.append([prod.coeff_monomial(m) for m in basis])
    matrix = sympy.Matrix(columns).T
    rhs = sympy.Matrix([1] + [0] * (len(basis) - 1))
    coords = matrix.LUsolve(rhs)
    return sympy.expand(sum(c * b for c, b in zip(coords, basis)))


def _random_scalar(ctx, rng):
    deg = sympy.totient(ctx.conductor) + 2  # longer than phi(n), so reduction runs

    def poly():
        return [
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rng.randint(0, deg))
        ]

    return ctx.scalar(poly(), poly() if rng.random() < 0.6 else 0)


@pytest.mark.parametrize("conductor,n_lat,root", CASES)
def test_scalar_ops_match_sympy_oracle(conductor, n_lat, root):
    ctx = Context(N=n_lat, conductor=conductor)
    assert (ctx.sqrt_2n().rad == ()) == (root is not None)
    rng = random.Random(8000 + 100 * conductor + n_lat)
    for _ in range(8):
        a, b = _random_scalar(ctx, rng), _random_scalar(ctx, rng)
        ea, eb = _oracle(a, root), _oracle(b, root)
        assert _same(a * b, _normal(ea * eb, conductor, n_lat, root), root)
        assert _same(a + b, _normal(ea + eb, conductor, n_lat, root), root)
        # complex conjugation sends zeta_n to zeta_n^{n-1} and fixes the real sqrt(2N)
        conj = _normal(ea.subs(x, x ** (conductor - 1)), conductor, n_lat, root)
        assert _same(a.conjugate(), conj, root)
        if not a.is_zero():
            assert _same(a.inverse(), _oracle_inverse(ea, conductor, n_lat, root), root)
