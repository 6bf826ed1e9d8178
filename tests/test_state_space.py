"""Tests for basis combinatorics, gradings, PCT, automorphisms, scalar product."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest

from voa import linalg
from voa.scalars import Context, ContextMismatchError
from voa.state_space import (
    BasisMonomial,
    GradedSubspace,
    Vector,
    _mk_mono,
    apply_flip,
    apply_torus,
    charge_pair_vector,
    charged_vacuum,
    conformal_vector,
    enumerate_basis,
    gram_matrix,
    inner_product,
    partition_count,
    partitions_of,
    pct,
    split_virasoro_vector,
    vacuum,
    vector_from_json,
    vector_to_json,
    weight4_primary,
)
from voa.structure_analysis import fixed_point_subspace


def _partition_count_oracle(n: int) -> int:
    # Euler's pentagonal-number recurrence, independent of the enumerator
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def test_partition_enumeration_matches_recurrence():
    for n in range(13):
        assert partition_count(n) == _partition_count_oracle(n)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_monomial_validation_and_weight():
    with pytest.raises(ValueError):
        BasisMonomial(0, (1,))
    with pytest.raises(ValueError):
        BasisMonomial(0, (-1, -3))
    m = BasisMonomial(2, (-3, -1))
    assert m.weight(1) == 8
    assert m.weight(2) == 12
    assert BasisMonomial(1, ()).weight(5) == 5


def test_monomial_rejects_malformed_partitions():
    for partition in ((0,), (-1, 0), (2, -1), (-1, -2), (-1, -3, -2)):
        with pytest.raises(ValueError):
            BasisMonomial(0, partition)
    assert BasisMonomial(-2, (-3, -1, -1)).partition == (-3, -1, -1)


def test_set_up_constructors_leave_the_intern_cache_cold():
    # a fresh process that only builds inputs starts its timed engine call
    # with every engine cache empty, _mk_mono included
    _mk_mono.cache_clear()
    ctx = Context(N=3)
    conformal_vector(ctx)
    charge_pair_vector(ctx, 1, -ctx.one())
    split_virasoro_vector(Context(N=2, conductor=8), 1, 8)
    Vector.monomial(ctx, (-2, -1), 1)
    weight4_primary(ctx)
    assert _mk_mono.cache_info().currsize == 0
    # the flip interns its output monomials
    (m,) = apply_flip(Vector.monomial(ctx, (-2, -1), 1)).terms
    assert m is _mk_mono(-1, (-2, -1))


def test_interned_monomial_equals_validated_one():
    for charge, partition in ((0, ()), (3, (-1,)), (-1, (-4, -2, -2, -1))):
        fast = _mk_mono(charge, partition)
        checked = BasisMonomial(charge, partition)
        assert type(fast) is BasisMonomial
        assert fast == checked and hash(fast) == hash(checked)
        assert (fast.charge, fast.partition) == (charge, partition)
        # a monomial is the tuple of its fields, charge first
        assert fast == (charge, partition) and hash(fast) == hash((charge, partition))


def test_monomial_copies_and_pickles_as_itself():
    for mono in (BasisMonomial(0, ()), BasisMonomial(-2, (-3, -1, -1)), _mk_mono(1, (-1,))):
        twins = [copy.copy(mono), copy.deepcopy(mono)]
        twins += [pickle.loads(pickle.dumps(mono, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is BasisMonomial
            assert twin == mono and hash(twin) == hash(mono)
            assert (twin.charge, twin.partition) == (mono.charge, mono.partition)
        assert mono == (mono.charge, mono.partition)


def test_monomial_order_is_tuple_order():
    # charge first, then partition: at N = 1, weight 1, the charge-0 J_{-1}
    # sits between the charged vacua, and a plain sort is canonical
    ctx = Context(N=1)
    assert [tuple(m) for m in enumerate_basis(ctx, 1)] == [(-1, ()), (0, (-1,)), (1, ())]
    for n_lat in (1, 2, 3, 5):
        for w in range(9):
            basis = enumerate_basis(Context(N=n_lat), w)
            assert list(basis) == sorted(basis), (n_lat, w)
    v = Vector.monomial(ctx, (), 1) + Vector.monomial(ctx, (-1,), 0)
    terms = vector_to_json(v)["terms"]
    assert [(t["charge"], t["partition"]) for t in terms] == [(0, [-1]), (1, [])]
    assert [m for m, _ in v.items()] == sorted(v.terms)


def test_enumerate_basis_small_cases():
    ctx = Context(N=1)
    w1 = enumerate_basis(ctx, 1)
    assert [(m.partition, m.charge) for m in w1] == [((), -1), ((-1,), 0), ((), 1)]

    ctx2 = Context(N=2)
    w2 = enumerate_basis(ctx2, 2)
    assert [(m.partition, m.charge) for m in w2] == [
        ((), -1),
        ((-2,), 0),
        ((-1, -1), 0),
        ((), 1),
    ]

    ctx5 = Context(N=5)
    assert [(m.partition, m.charge) for m in enumerate_basis(ctx5, 0)] == [((), 0)]
    assert enumerate_basis(ctx5, -1) == ()


@pytest.mark.parametrize("n_lat", [1, 2, 3, 5])
def test_graded_dimensions_against_charge_sum(n_lat):
    ctx = Context(N=n_lat)
    for w in range(9):
        expect = 0
        k = 0
        while n_lat * k * k <= w:
            expect += _partition_count_oracle(w - n_lat * k * k)
            if k:
                expect += _partition_count_oracle(w - n_lat * k * k)
            k += 1
        assert len(enumerate_basis(ctx, w)) == expect


def test_vector_basic_algebra():
    ctx = Context(N=2)
    v = Vector.monomial(ctx, (-1,), 0, Fraction(1, 2))
    w = Vector.monomial(ctx, (-1,), 0, Fraction(-1, 2))
    assert (v + w).is_zero()
    assert (v - v).is_zero()
    assert v.scale(2) == Vector.monomial(ctx, (-1,), 0)
    assert (v * 0).is_zero()
    combo = v + Vector.monomial(ctx, (), 1)
    assert combo.weights() == {1, 2}
    with pytest.raises(ValueError):
        combo.weight()
    comps = combo.weight_components()
    assert set(comps) == {1, 2} and comps[1] == v
    with pytest.raises(ContextMismatchError):
        v + Vector.monomial(Context(N=1), (-1,), 0)


def test_named_vectors_are_homogeneous():
    ctx = Context(N=2)
    assert conformal_vector(ctx).weight() == 2
    assert weight4_primary(ctx).weight() == 4
    assert vacuum(ctx).weight() == 0
    assert charged_vacuum(ctx, 2).weight() == 8
    assert charge_pair_vector(ctx).weight() == 2
    assert charge_pair_vector(Context(N=3)).weight() == 3


def test_split_virasoro_vectors():
    ctx = Context(N=2)
    w0 = split_virasoro_vector(ctx, 0, 1)
    wpi = split_virasoro_vector(ctx, 1, 2)
    assert w0 + wpi == conformal_vector(ctx)
    assert w0.weight() == 2
    # the angle pi/2 vector carries phase i on the positive charge
    wq = split_virasoro_vector(ctx, 1, 4)
    assert wq.coeff(BasisMonomial(1, ())) == ctx.i() * Fraction(1, 4)
    assert wq.coeff(BasisMonomial(-1, ())) == -ctx.i() * Fraction(1, 4)
    with pytest.raises(ValueError):
        split_virasoro_vector(Context(N=3))


def test_pct_on_monomials():
    ctx = Context(N=1)
    v = Vector.monomial(ctx, (-1,), 1)
    assert pct(v) == Vector.monomial(ctx, (-1,), -1, -1)
    # antilinear: conjugates coefficients
    iv = v.scale(ctx.i())
    assert pct(iv) == Vector.monomial(ctx, (-1,), -1, -1).scale(-ctx.i())


def test_flip_is_linear():
    ctx = Context(N=1)
    v = Vector.monomial(ctx, (-2, -1), 1).scale(ctx.i())
    assert apply_flip(v) == Vector.monomial(ctx, (-2, -1), -1).scale(ctx.i())
    assert apply_flip(apply_flip(v)) == v


def _random_vector(ctx, rng, max_weight=5):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = rng.randint(0, max_weight)
        basis = enumerate_basis(ctx, w)
        mono = basis[rng.randrange(len(basis))]
        coeff = ctx.scalar(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)],
            [Fraction(rng.randint(-2, 2))],
        )
        terms[mono] = coeff
    return Vector(ctx, terms)


@pytest.mark.parametrize("n_lat,conductor", [(1, 4), (2, 8), (3, 12)])
def test_involutions_and_dihedral_relation(n_lat, conductor):
    ctx = Context(N=n_lat, conductor=conductor)
    rng = random.Random(991 + n_lat)
    q = conductor
    for _ in range(12):
        v = _random_vector(ctx, rng)
        assert pct(pct(v)) == v
        assert apply_flip(apply_flip(v)) == v
        assert apply_torus(v, 0, 1) == v
        # phi g_t phi = g_{-t}
        lhs = apply_flip(apply_torus(apply_flip(v), 3, q))
        assert lhs == apply_torus(v, -3, q)
    # theta and phi agree on rational vectors; theta is antilinear on top
    u = Vector.monomial(ctx, (-2, -1), 1, Fraction(3, 7))
    assert pct(u) == apply_flip(u)
    assert pct(u.scale(ctx.i())) == apply_flip(u).scale(-ctx.i())


def test_torus_phases():
    ctx = Context(N=2)
    v = Vector.monomial(ctx, (), 1) + Vector.monomial(ctx, (-1,), -2) + vacuum(ctx)
    g = apply_torus(v, 1, 4)
    assert g.coeff(BasisMonomial(1, ())) == ctx.i()
    assert g.coeff(BasisMonomial(-2, (-1,))) == ctx.from_fraction(-1)
    assert g.coeff(BasisMonomial(0, ())) == ctx.one()


def test_inner_product_norms():
    ctx = Context(N=1)
    assert inner_product(vacuum(ctx), vacuum(ctx)) == ctx.one()
    j1 = Vector.monomial(ctx, (-1,), 0)
    assert inner_product(j1, j1).as_fraction() == 1
    assert inner_product(Vector.monomial(ctx, (-2,), 0), Vector.monomial(ctx, (-2,), 0)).as_fraction() == 2
    m = Vector.monomial(ctx, (-1, -1), 0)
    assert inner_product(m, m).as_fraction() == 2
    m = Vector.monomial(ctx, (-3, -1), 0)
    assert inner_product(m, m).as_fraction() == 3
    m = Vector.monomial(ctx, (-2, -1, -1), 0)
    assert inner_product(m, m).as_fraction() == 4
    assert inner_product(charged_vacuum(ctx, 3), charged_vacuum(ctx, 3)).as_fraction() == 1
    # distinct monomials are orthogonal
    assert inner_product(j1, charged_vacuum(ctx, 1)).is_zero()
    assert inner_product(Vector.monomial(ctx, (-2,), 0), m).is_zero()


def test_inner_product_sesquilinear():
    ctx = Context(N=2)
    rng = random.Random(55)
    for _ in range(10):
        u = _random_vector(ctx, rng)
        v = _random_vector(ctx, rng)
        c = ctx.scalar([1, 2], 0)
        assert inner_product(u.scale(c), v) == c.conjugate() * inner_product(u, v)
        assert inner_product(u, v.scale(c)) == c * inner_product(u, v)
        assert inner_product(u, v) == inner_product(v, u).conjugate()


@pytest.mark.parametrize("n_lat,conductor", [(1, 4), (2, 8)])
def test_automorphisms_preserve_scalar_product(n_lat, conductor):
    ctx = Context(N=n_lat, conductor=conductor)
    rng = random.Random(13)
    for _ in range(8):
        u = _random_vector(ctx, rng)
        v = _random_vector(ctx, rng)
        assert inner_product(apply_flip(u), apply_flip(v)) == inner_product(u, v)
        g = lambda x: apply_torus(x, 1, conductor)
        assert inner_product(g(u), g(v)) == inner_product(u, v)
        # theta is antiunitary
        assert inner_product(pct(u), pct(v)) == inner_product(v, u)


def test_gram_matrix_examples():
    ctx3 = Context(N=3)
    g = gram_matrix(ctx3, 2)
    assert [[x.as_fraction() for x in row] for row in g] == [[2, 0], [0, 2]]

    ctx1 = Context(N=1)
    g = gram_matrix(ctx1, 1)
    assert [[x.as_fraction() for x in row] for row in g] == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def _diagonal(g) -> list:
    """The diagonal of a Gram matrix, after checking that it has no other entry."""
    assert all(x.is_zero() for i, row in enumerate(g) for j, x in enumerate(row) if i != j)
    return [row[i].as_fraction() for i, row in enumerate(g)]


@pytest.mark.parametrize("n_lat", [1, 2, 3, 5])
def test_gram_positive_definite(n_lat):
    # distinct monomials are orthogonal, so the Gram matrix is diagonal and
    # positive definite exactly when its diagonal is positive
    ctx = Context(N=n_lat)
    for w in range(7):
        assert all(d > 0 for d in _diagonal(gram_matrix(ctx, w))), w


def test_gram_matrix_of_a_subspace_is_positive_definite():
    # the scalar product restricted to the flip-fixed subspace of V_{L_4};
    # D1's rows have disjoint supports, so its Gram matrix is diagonal too
    ctx = Context(N=2)
    d1 = fixed_point_subspace(ctx, "D1", 4)
    for w in range(5):
        g = gram_matrix(ctx, w, subspace=d1)
        assert len(g) == len(d1.weight_basis(w))
        diagonal = _diagonal(g)
        assert all(d > 0 for d in diagonal), (w, diagonal)
    assert diagonal == [4, 4, 3, 8, 24]
    # the leading principal minors of a diagonal matrix
    assert list(accumulate(diagonal, mul)) == [4, 16, 48, 384, 9216]


def test_graded_subspace_dims():
    ctx = Context(N=2)
    sub = GradedSubspace(
        ctx,
        3,
        {0: [vacuum(ctx)], 2: [conformal_vector(ctx)]},
    )
    assert sub.dims() == [1, 0, 1, 0]
    assert sub.total_dim() == 2
    assert sub.weight_basis(2) == [conformal_vector(ctx)]


def test_vector_json_round_trip():
    ctx = Context(N=2)
    v = conformal_vector(ctx) + Vector.monomial(ctx, (), -1, ctx.i())
    data = vector_to_json(v)
    assert data["N"] == 2
    # canonical term order: charge ascending, then partition
    assert [t["charge"] for t in data["terms"]] == [-1, 0]
    assert vector_from_json(data) == v
    assert vector_from_json(data, ctx) == v
    with pytest.raises(ContextMismatchError):
        vector_from_json(data, Context(N=3))

    empty = vector_to_json(Vector.zero(ctx))
    assert empty["terms"] == []
    assert vector_from_json(empty, ctx).is_zero()
    # without a context, an empty term list is zero at Context(N) and the
    # coefficients must carry the vector's N
    assert vector_from_json(empty) == Vector.zero(Context(N=2))
    for term in data["terms"]:
        term["coeff"]["N"] = 3
    with pytest.raises(ContextMismatchError, match="disagrees with vector N"):
        vector_from_json(data)


def test_zero_vector_prints_zero():
    assert str(Vector.zero(Context(N=2))) == "0"


def test_vector_json_canonical_numbers():
    ctx = Context(N=2)
    v = Vector.monomial(ctx, (-1, -1), 0, Fraction(1, 2))
    data = vector_to_json(v)
    term = data["terms"][0]
    assert term == {
        "partition": [-1, -1],
        "charge": 0,
        "coeff": {"rat": [[1, 2]], "rad": [], "n": 4, "N": 2},
    }


def test_linalg_rank_kernel_solve():
    ctx = Context(N=1)
    s = ctx.from_fraction
    rows = [[s(1), s(2), s(3)], [s(2), s(4), s(6)], [s(1), s(0), s(1)]]
    assert linalg.rank(rows, 3) == 2
    assert linalg.rank([], 3) == linalg.rank([[s(0), s(0)]], 2) == 0
    # the same matrix as a map on the charged vacua e^{k alpha}, k = 0, 1, 2,
    # to J_{-1-r}; the kernel vector has coefficient one at its last vector
    domain = [charged_vacuum(ctx, k) for k in range(3)]

    def apply(v):
        x = [v.coeff(BasisMonomial(k, ())) for k in range(3)]
        images = (sum((a * b for a, b in zip(row, x)), ctx.zero()) for row in rows)
        return Vector(ctx, {BasisMonomial(0, (-1 - r,)): y for r, y in enumerate(images)})

    ker = linalg.operator_kernel(ctx, domain, [apply])
    assert ker == [domain[2] - domain[1] - domain[0]]

    sol = linalg.solve([[s(2), s(0)], [s(0), s(4)]], [s(6), s(2)], 2, ctx)
    assert [x.as_fraction() for x in sol] == [3, Fraction(1, 2)]
    assert linalg.solve([[s(1), s(1)], [s(1), s(1)]], [s(0), s(1)], 2, ctx) is None
    # free variables are zero, and with no rows every variable is free
    sol = linalg.solve([[s(1), s(1), s(2)]], [s(5)], 3, ctx)
    assert [x.as_fraction() for x in sol] == [5, 0, 0]
    assert [x.as_fraction() for x in linalg.solve([], [], 2, ctx)] == [0, 0]


def test_echelon_span_membership():
    ctx = Context(N=2)
    span = linalg.EchelonSpan(ctx)
    v1 = conformal_vector(ctx)
    v2 = Vector.monomial(ctx, (-2,), 0)
    assert span.add(v1)
    assert not span.add(v1.scale(3))
    assert span.add(v2)
    assert span.rank == 2
    assert span.contains(v1 + v2.scale(Fraction(7, 3)))
    assert not span.contains(Vector.monomial(ctx, (), 1))
    # deterministic reduced basis
    def basis(vectors):
        other = linalg.EchelonSpan(ctx)
        for v in vectors:
            other.add(v)
        return other.vectors()

    vecs = basis([v1 + v2, v2, v1.scale(5)])
    assert vecs == basis([v2.scale(2), v1 + v2, v1])


@pytest.mark.parametrize("n_lat,conductor", [(1, 4), (2, 8), (3, 12)])
def test_echelon_span_invariant(n_lat, conductor):
    # every row has coefficient one at its pivot, its minimum key, and no
    # row holds another row's pivot; reduce relies on the second
    ctx = Context(N=n_lat, conductor=conductor)
    rng = random.Random(71 + n_lat)
    span = linalg.EchelonSpan(ctx)
    inserted = []

    def combination():
        picks = rng.sample(inserted, min(3, len(inserted)))
        return sum((u.scale(rng.randint(-2, 2)) for u in picks), Vector.zero(ctx))

    for step in range(40):
        v = combination() if inserted and step % 3 == 0 else _random_vector(ctx, rng, 3)
        before, new = span.rank, not span.contains(v)
        assert span.add(v) == new and span.rank == before + new
        inserted.append(v)
        for p, row in span.rows.items():
            assert p == min(row.terms) and row.terms[p].is_one()
            assert not any(q in row.terms for q in span.rows if q != p)
        assert all(span.contains(u) for u in inserted)
        # contains agrees with the rank of the span with the probe added
        probe = combination() if step % 2 else _random_vector(ctx, rng, 3)
        grown = linalg.EchelonSpan(ctx)
        for u in [probe] + inserted[::-1]:
            grown.add(u)
        assert span.contains(probe) == (grown.rank == span.rank)


def test_operator_kernel_simple():
    ctx = Context(N=1)
    domain = [Vector.monomial(ctx, m.partition, m.charge) for m in enumerate_basis(ctx, 1)]
    # operator sending charge k to k * itself has kernel = charge-zero piece
    def charge_op(v):
        return Vector(ctx, {m: c * m.charge for m, c in v.terms.items()})

    ker = linalg.operator_kernel(ctx, domain, [charge_op])
    assert len(ker) == 1
    assert ker[0] == Vector.monomial(ctx, (-1,), 0)
