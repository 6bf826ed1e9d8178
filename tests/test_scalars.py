"""Tests for the exact coefficient field."""

from __future__ import annotations

import cmath
import random
from fractions import Fraction

import pytest

from voa.scalars import (
    MAX_CONDUCTOR,
    ConductorError,
    Context,
    ContextMismatchError,
    Scalar,
    _cyclotomic,
    _sqrt_fold,
    scalar_from_json,
)


def test_rational_arithmetic():
    ctx = Context(N=2)
    half = ctx.from_fraction(Fraction(1, 2))
    assert half + half == ctx.one()
    assert (half * 4).as_fraction() == 2
    assert (half - half).is_zero()


def test_i_squares_to_minus_one():
    ctx = Context(N=2)
    i = ctx.i()
    assert i * i == ctx.from_fraction(-1)
    assert i ** 4 == ctx.one()


def test_radical_squares_to_2n():
    ctx = Context(N=3)
    r = ctx.sqrt_2n()
    assert r.rad and not r.rat
    assert (r * r).as_fraction() == 6


def test_perfect_square_folds_to_rational():
    for n_lat, root in [(2, 2), (8, 4), (18, 6)]:
        ctx = Context(N=n_lat)
        r = ctx.sqrt_2n()
        assert r.is_rational()
        assert r.as_fraction() == root


def test_conjugate_of_zeta8():
    ctx = Context(N=2, conductor=8)
    z = ctx.zeta()
    assert z.conjugate() == ctx.zeta(7)


def test_embed_root_errors_with_conductor_hint():
    ctx = Context(N=2)
    with pytest.raises(ConductorError, match="12"):
        ctx.embed_root_of_unity(1, 3)


def test_embed_root_of_unity_values():
    ctx = Context(N=1, conductor=8)
    assert ctx.embed_root_of_unity(1, 4) == ctx.i()
    assert ctx.embed_root_of_unity(3, 4) == -ctx.i()
    assert ctx.embed_root_of_unity(2, 2) == ctx.one()
    assert ctx.embed_root_of_unity(1, 8) == ctx.zeta()


def test_inverse_of_zero_raises():
    ctx = Context(N=1)
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inverse()


def test_invalid_context_parameters():
    with pytest.raises(ConductorError):
        Context(N=1, conductor=6)
    with pytest.raises(ConductorError):
        Context(N=1, conductor=2)
    with pytest.raises(ValueError):
        Context(N=0)


def test_context_mismatch_raises():
    a = Context(N=1).one()
    b = Context(N=2).one()
    with pytest.raises(ContextMismatchError):
        a + b
    with pytest.raises(ContextMismatchError):
        Context(N=1, conductor=8).one() * a


# sqrt(2) lies in Q(zeta_8) and Q(zeta_24) but not in Q(zeta_4) or Q(zeta_12);
# canonical forms must fold it exactly in the former cases.
@pytest.mark.parametrize("conductor,folds", [(4, False), (8, True), (12, False), (24, True)])
def test_sqrt2_folding_by_conductor(conductor, folds):
    ctx = Context(N=1, conductor=conductor)
    r = ctx.sqrt_2n()
    assert (not r.rad) == folds
    sq = r * r
    assert sq.is_rational() and sq.as_fraction() == 2


@pytest.mark.parametrize(
    "conductor,n_lat",
    [(4, 1), (4, 2), (4, 3), (8, 1), (8, 3), (12, 3), (12, 6), (20, 10), (24, 3), (24, 6), (40, 5)],
)
def test_radical_square_is_2n_everywhere(conductor, n_lat):
    ctx = Context(N=n_lat, conductor=conductor)
    r = ctx.sqrt_2n()
    assert (r * r).as_fraction() == 2 * n_lat


@pytest.mark.parametrize("conductor,n_lat", [(8, 1), (12, 6), (20, 10), (24, 3), (40, 5)])
def test_folded_radical_is_the_positive_root(conductor, n_lat):
    # numeric sanity on the Gauss-sum embedding: evaluate at zeta = e^{2 pi i/n}
    ctx = Context(N=n_lat, conductor=conductor)
    r = ctx.sqrt_2n()
    assert not r.rad
    z = cmath.exp(2j * cmath.pi / conductor)
    val = sum(complex(c) * z**k for k, c in enumerate(r.rat))
    assert abs(val - (2 * n_lat) ** 0.5) < 1e-9


def _squarefree_split_by_trial_division(m):
    """m = s^2 d with d squarefree, by trial division up to sqrt(m)."""
    s, d, k = 1, m, 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1
    return s, d


def test_fold_matches_factoring_reference():
    # the fold tests only the squarefree divisors of the conductor; the
    # reference factors 2N and folds sqrt(d) iff (d or 4d) divides n
    folded = 0
    for conductor in range(4, MAX_CONDUCTOR + 1, 4):
        for n_lat in range(1, 301):
            s, d = _squarefree_split_by_trial_division(2 * n_lat)
            fold = _sqrt_fold(conductor, 2 * n_lat)
            if conductor % (d if d % 4 == 1 else 4 * d):
                assert fold is None, (conductor, n_lat)
            else:
                assert fold == tuple(s * c for c in _sqrt_fold(conductor, d)), (conductor, n_lat)
                folded += 1
    assert folded == 2957


@pytest.mark.parametrize("conductor,d", [(8, 2), (24, 6)])
def test_fold_of_a_huge_lattice(conductor, d):
    # 2N = d t^2 folds to t sqrt(d) with no factoring of 2N
    t = 10**30 + 57
    ctx = Context(N=d * t * t // 2, conductor=conductor)
    assert ctx.fold == tuple(t * c for c in _sqrt_fold(conductor, d))
    r = ctx.sqrt_2n()
    assert not r.rad and (r * r).as_fraction() == d * t * t
    assert Context(N=10**20 + 39, conductor=conductor).fold is None


def _random_scalar(ctx, rng, allow_zero=True):
    deg = len(ctx.fold or (0, 0))  # small degree; exact size is unimportant
    def poly():
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
    s = ctx.scalar(poly(), poly() if rng.random() < 0.5 else 0)
    if not allow_zero and s.is_zero():
        return s + 1
    return s


@pytest.mark.parametrize("conductor,n_lat", [(4, 1), (4, 2), (8, 2), (12, 3), (24, 3)])
def test_field_axioms_on_random_samples(conductor, n_lat):
    ctx = Context(N=n_lat, conductor=conductor)
    rng = random.Random(20260821 + conductor + n_lat)
    for _ in range(25):
        a = _random_scalar(ctx, rng)
        b = _random_scalar(ctx, rng)
        c = _random_scalar(ctx, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ctx.zero()
        d = _random_scalar(ctx, rng, allow_zero=False)
        assert d * d.inverse() == ctx.one()
        assert (a / d) * d == a


@pytest.mark.parametrize("conductor,n_lat", [(4, 1), (8, 2), (12, 3)])
def test_conjugation_properties(conductor, n_lat):
    ctx = Context(N=n_lat, conductor=conductor)
    rng = random.Random(77 + conductor)
    assert ctx.i().conjugate() == -ctx.i()
    assert ctx.sqrt_2n().conjugate() == ctx.sqrt_2n()
    for _ in range(20):
        a = _random_scalar(ctx, rng)
        b = _random_scalar(ctx, rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    z = ctx.zeta()
    assert z * z.conjugate() == ctx.one()


def test_canonical_form_is_unique():
    ctx = Context(N=1)
    # zeta_4^2 = -1 must reduce structurally
    assert ctx.scalar([0, 0, 1]) == ctx.from_fraction(-1)
    assert ctx.zeta(2) == ctx.from_fraction(-1)
    # trailing zeros never survive
    s = ctx.scalar([Fraction(1, 2), 0])
    assert s.rat == (Fraction(1, 2),)


def test_json_round_trip():
    ctx = Context(N=2, conductor=8)
    s = ctx.scalar([Fraction(1, 2), 0, Fraction(-3, 4)], [2])
    data = s.to_json()
    assert data["n"] == 8 and data["N"] == 2
    # 2N = 4 is a perfect square: the radical folds as 2*sqrt(4) = 4
    assert data["rat"] == [[9, 2], [0, 1], [-3, 4]]
    assert data["rad"] == []
    assert scalar_from_json(data) == s

    ctx2 = Context(N=3)
    t = ctx2.scalar(1, [Fraction(2, 3)])
    assert t.to_json()["rad"] == [[2, 3]]
    assert scalar_from_json(t.to_json(), ctx2) == t
    with pytest.raises(ContextMismatchError):
        scalar_from_json(t.to_json(), ctx)
    with pytest.raises(ValueError, match="pairs"):
        scalar_from_json({"N": 3, "n": 4, "rat": [[1, 1, 1]], "rad": []})


def test_str_of_zero_and_of_both_parts():
    ctx = Context(N=3)
    assert str(ctx.zero()) == "0"
    assert str(ctx.scalar(1, [Fraction(2, 3)])) == "1 + (2/3)*r"


def test_as_fraction_rejects_irrational():
    ctx = Context(N=3)
    with pytest.raises(ValueError):
        ctx.sqrt_2n().as_fraction()
    with pytest.raises(ValueError):
        ctx.i().as_fraction()


def test_division_and_powers():
    ctx = Context(N=3, conductor=8)
    z = ctx.zeta()
    r = ctx.sqrt_2n()
    x = (z + r) / (1 - z)
    assert x * (1 - z) == z + r
    assert (r ** 3) == r * 6
    assert (z ** -1) == z.conjugate()


def test_conductor_cap_refuses_before_building_the_field():
    # every conductor a test or a documented command uses lies below the cap
    assert 24 < MAX_CONDUCTOR and MAX_CONDUCTOR % 4 == 0
    assert (Context(N=1, conductor=MAX_CONDUCTOR).zeta() ** MAX_CONDUCTOR).is_one()
    before = _cyclotomic.cache_info().misses
    for conductor in (MAX_CONDUCTOR + 4, 10**8):
        with pytest.raises(ConductorError, match="at most"):
            Context(N=1, conductor=conductor)
    assert _cyclotomic.cache_info().misses == before
