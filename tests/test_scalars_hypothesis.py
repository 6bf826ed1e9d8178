"""Property tests of the scalar field at conductors 4, 8 and 12.

Each conductor is taken with a radical that folds into Q(zeta_n) and one
that does not, so both canonical forms are exercised.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from voa.scalars import Context, scalar_from_json  # noqa: E402

# (conductor, N): sqrt(2N) folds at (4, 2), (8, 1) and (12, 6), not at the others
CONTEXTS = [(4, 1), (4, 2), (8, 1), (8, 3), (12, 3), (12, 6)]

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

coefficients = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=6
)


@st.composite
def scalars(draw, ctx):
    return ctx.scalar(draw(coefficients), draw(st.one_of(st.just(0), coefficients)))


@st.composite
def triples(draw):
    conductor, n_lat = draw(st.sampled_from(CONTEXTS))
    ctx = Context(N=n_lat, conductor=conductor)
    return ctx, draw(scalars(ctx)), draw(scalars(ctx)), draw(scalars(ctx))


@PROPERTY
@given(triples())
def test_field_axioms(case):
    ctx, a, b, c = case
    zero, one = ctx.zero(), ctx.one()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero
    if not a.is_zero():
        assert a * a.inverse() == one
    assert ctx.sqrt_2n() * ctx.sqrt_2n() == ctx.from_fraction(2 * ctx.N)


@PROPERTY
@given(triples())
def test_json_round_trip(case):
    ctx, a, b, _ = case
    for s in (a, b * ctx.sqrt_2n(), a.conjugate()):
        assert scalar_from_json(s.to_json()) == s
        assert scalar_from_json(s.to_json(), ctx) == s


@PROPERTY
@given(triples(), st.booleans())
def test_equality_is_vanishing_difference(case, same_value):
    _, a, b, c = case
    if same_value:
        # the same value reached along another path must compare equal
        b = (a + c) - c if c.is_zero() else (a * c) / c
    assert (a == b) == (a - b).is_zero()
    if a == b:
        assert hash(a) == hash(b)
    if same_value:
        assert a == b
