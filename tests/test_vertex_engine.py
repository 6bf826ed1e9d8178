"""Tests for fields, modes, normal ordering, and the Virasoro action."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd

import pytest

from voa import vertex_engine
from voa.scalars import Context
from voa.state_space import (
    BasisMonomial,
    Vector,
    apply_flip,
    charge_pair_vector,
    charged_vacuum,
    conformal_vector,
    enumerate_basis,
    inner_product,
    partitions_of,
    vacuum,
    vector_to_json,
    weight4_primary,
    z_lambda,
)
from voa.vertex_engine import (
    WindowSum,
    _alpha_terms,
    _eplus_pairs,
    _exp_series,
    _mk_mono,
    _mono_products,
    _mono_products_direct,
    _window_ints,
    find_locality_order,
    heis_apply,
    vertex_mode,
    vertex_window,
    virasoro_apply,
    virasoro_field_of,
    window_sums,
)


def mono(ctx, parts, charge, coeff=1):
    return Vector.monomial(ctx, parts, charge, coeff)


def basis_vectors(ctx, max_weight):
    return [
        mono(ctx, m.partition, m.charge)
        for w in range(max_weight + 1)
        for m in enumerate_basis(ctx, w)
    ]


# ---------------------------------------------------------------- Heisenberg


def test_heis_apply_basics():
    ctx = Context(N=2)
    assert heis_apply(-2, vacuum(ctx)) == mono(ctx, (-2,), 0)
    assert heis_apply(1, mono(ctx, (-1, -1), 0)) == mono(ctx, (-1,), 0, 2)
    assert heis_apply(3, mono(ctx, (-3, -1), 0)) == mono(ctx, (-1,), 0, 3)
    assert heis_apply(2, mono(ctx, (-3, -1), 0)).is_zero()
    assert heis_apply(1, vacuum(ctx)).is_zero()
    # J_0 is charge * sqrt(2N)
    assert heis_apply(0, charged_vacuum(ctx, 3)) == charged_vacuum(ctx, 3).scale(
        ctx.sqrt_2n() * 3
    )
    assert heis_apply(0, vacuum(ctx)).is_zero()
    ctx3 = Context(N=3)
    v = heis_apply(0, charged_vacuum(ctx3, -1))
    assert v == charged_vacuum(ctx3, -1).scale(-ctx3.sqrt_2n())


@pytest.mark.parametrize("n_lat", [1, 3])
def test_heisenberg_commutation_on_low_weights(n_lat):
    ctx = Context(N=n_lat)
    for v in basis_vectors(ctx, 4):
        for m in range(-3, 4):
            for n in range(-3, 4):
                lhs = heis_apply(m, heis_apply(n, v)) - heis_apply(n, heis_apply(m, v))
                rhs = v.scale(m) if m == -n else Vector.zero(ctx)
                assert lhs == rhs, (m, n, v)


# ------------------------------------------------------------------ Virasoro


def test_virasoro_low_mode_values():
    ctx = Context(N=1)
    nu = conformal_vector(ctx)
    # L_{-2} vacuum recreates the conformal vector; L_2 nu reads off c/2
    assert virasoro_apply(-2, vacuum(ctx)) == nu
    assert virasoro_apply(2, nu) == vacuum(ctx).scale(Fraction(1, 2))
    assert virasoro_apply(1, mono(ctx, (-2,), 0)) == mono(ctx, (-1,), 0, 2)
    assert virasoro_apply(4, mono(ctx, (-3, -1), 0)) == vacuum(ctx).scale(3)
    assert virasoro_apply(1, nu).is_zero()
    assert virasoro_apply(3, nu).is_zero()
    # L_0 is the weight
    for v in basis_vectors(ctx, 5):
        assert virasoro_apply(0, v) == v.scale(v.weight())


def test_virasoro_on_charged_vacua():
    ctx = Context(N=3)
    e = charged_vacuum(ctx, 1)
    root = ctx.sqrt_2n()
    assert virasoro_apply(-1, e) == mono(ctx, (-1,), 1).scale(root)
    assert virasoro_apply(1, e).is_zero()
    assert virasoro_apply(0, e) == e.scale(3)
    # L_1 J_{-1} e^{alpha} = sqrt(2N) e^{alpha}
    assert virasoro_apply(1, mono(ctx, (-1,), 1)) == e.scale(root)


def test_weight4_vector_is_killed_by_positive_virasoro():
    for n_lat in (1, 2, 5):
        ctx = Context(N=n_lat)
        u = weight4_primary(ctx)
        for m in (1, 2, 3, 4):
            assert virasoro_apply(m, u).is_zero(), (n_lat, m)


def test_weight4_related_descendants():
    ctx = Context(N=1)
    nu = conformal_vector(ctx)
    assert virasoro_apply(-2, nu) == Vector(
        ctx,
        {
            BasisMonomial(0, (-1, -1, -1, -1)): Fraction(1, 4),
            BasisMonomial(0, (-3, -1)): 1,
        },
    )
    assert virasoro_apply(-4, vacuum(ctx)) == Vector(
        ctx,
        {
            BasisMonomial(0, (-2, -2)): Fraction(1, 2),
            BasisMonomial(0, (-3, -1)): 1,
        },
    )


@pytest.mark.parametrize("n_lat", [1, 2])
def test_virasoro_commutation_with_central_term(n_lat):
    ctx = Context(N=n_lat)
    vecs = basis_vectors(ctx, 4)
    for m in range(-2, 3):
        for n in range(m, 3):
            for v in vecs:
                lhs = virasoro_apply(m, virasoro_apply(n, v)) - virasoro_apply(
                    n, virasoro_apply(m, v)
                )
                rhs = virasoro_apply(m + n, v).scale(m - n)
                if m + n == 0:
                    rhs = rhs + v.scale(Fraction(m**3 - m, 12))
                assert lhs == rhs, (m, n, v)


def test_virasoro_heisenberg_mixed_commutator():
    ctx = Context(N=2)
    vecs = basis_vectors(ctx, 4)
    for m in range(-2, 3):
        for n in range(-2, 3):
            for v in vecs:
                lhs = virasoro_apply(m, heis_apply(n, v)) - heis_apply(
                    n, virasoro_apply(m, v)
                )
                assert lhs == heis_apply(m + n, v).scale(-n), (m, n, v)


# ------------------------------------------------------- exponential factors


def _eminus_pairs(k, q):
    """The partition formula for the z^{-q} coefficient of E_-(k alpha, z)
    times q!, as (annihilator modes, int) pairs: the weight of lambda is
    (-k)^{len(lambda)} q!/z_lambda.  It is the oracle for both exponentials,
    as E_+(k alpha, z) has the weights k^{len(lambda)}/z_lambda on the
    negated modes."""
    if k == 0 and q:
        return ()
    return tuple(
        (parts, (-k) ** len(parts) * (factorial(q) // z_lambda(parts)))
        for parts in partitions_of(q)
    )


def _alpha_product(modes, vec, norm):
    """alpha_{m_1} ... alpha_{m_s} on a {partition: coefficient} dict, one
    _alpha_terms step per mode."""
    for m in modes:
        vec = _alpha_terms(m, vec, norm)
    return vec


def _weights(table, k, order):
    """The (modes, weight) pairs of an E_+- table, each int weight read as
    the Fraction it stands for: the table holds weights times order!."""
    return tuple((modes, Fraction(w, factorial(order))) for modes, w in table(k, order))


def test_eplus_coefficients_low_orders():
    # alpha-basis: the z^m coefficient of E_+(k alpha, z) is k^len(lambda)/z_lambda
    assert _weights(_eplus_pairs, 1, 0) == (((), 1),)
    assert _weights(_eplus_pairs, 0, 3) == ()
    assert dict(_weights(_eplus_pairs, 1, 1)) == {(-1,): 1}

    quartic = dict(_weights(_eplus_pairs, 1, 4))
    assert quartic == {
        (-4,): Fraction(1, 4),
        (-3, -1): Fraction(1, 3),
        (-2, -2): Fraction(1, 8),
        (-2, -1, -1): Fraction(1, 4),
        (-1, -1, -1, -1): Fraction(1, 24),
    }
    # charge -1 flips the sign of odd-length partitions
    neg = dict(_weights(_eplus_pairs, -1, 4))
    assert neg == {parts: (-1) ** len(parts) * f for parts, f in quartic.items()}


def test_eminus_action_on_conformal_vector():
    # alpha-basis: the z^{-q} coefficient of E_-(k alpha, z) is (-k)^len(lambda)/z_lambda
    assert _weights(_eminus_pairs, 1, 0) == (((), 1),)
    assert _weights(_eminus_pairs, 0, 2) == ()
    assert dict(_weights(_eminus_pairs, 1, 2)) == {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
    assert dict(_weights(_eminus_pairs, -1, 1)) == {(1,): 1}

    # E_-(alpha, z)(nu (x) e^alpha) = nu e - 2 J_{-1} e z^{-1} + 2 e z^{-2} in V_{L_4},
    # with nu = J_{-1}^2 / 2 = alpha_{-1}^2 / 8, J_{-1} = alpha_{-1} / 2 and
    # [alpha_m, alpha_{-m}] = 4m; the carrier is keyed on partitions at charge 1
    carrier = {(-1, -1): Fraction(1, 8)}

    def coefficient(k, q):
        acc: dict = {}
        for modes, f in _weights(_eminus_pairs, k, q):
            for part, c in _alpha_product(modes, carrier, 4).items():
                m = BasisMonomial(1, part)
                acc[m] = acc.get(m, 0) + f * c
        return {m: c for m, c in acc.items() if c}

    assert coefficient(1, 0) == {BasisMonomial(1, (-1, -1)): Fraction(1, 8)}
    assert coefficient(1, 1) == {BasisMonomial(1, (-1,)): -1}
    assert coefficient(1, 2) == {BasisMonomial(1, ()): 2}
    assert coefficient(1, 3) == {}
    # negative charge flips the middle sign
    assert coefficient(-1, 1) == {BasisMonomial(1, (-1,)): 1}


@pytest.mark.parametrize("n_lat", [1, 2, 3])
def test_eminus_series_matches_partition_sum(n_lat):
    # T_q = q! E_q vec by the recurrence equals sum_lambda w_lambda alpha_lambda
    # vec over the partitions of q, on every partition of weight <= 7 and on
    # one vector that mixes them all
    norm = 2 * n_lat
    rng = random.Random(n_lat)
    singles = [{tuple(-p for p in lam): 1} for w in range(8) for lam in partitions_of(w)]
    assert len(singles) == 45
    mixed = {lam: rng.randint(-9, 9) or 1 for one in singles for lam in one}
    checks = 0
    for k in range(-3, 4):
        for vec in singles + [mixed]:
            series = _exp_series(-k, 1, vec, 7, norm)
            assert len(series) == 8 and series[0] is vec
            for q in range(8):
                expect: dict = {}
                for modes, w in _eminus_pairs(k, q):
                    for lam, c in _alpha_product(modes, vec, norm).items():
                        expect[lam] = expect.get(lam, 0) + w * c
                got = {lam: c for lam, c in series[q].items() if c}
                assert got == {lam: c for lam, c in expect.items() if c}, (k, vec, q)
                checks += 1
    assert checks == 7 * 46 * 8


def test_eplus_pairs_match_partition_formula():
    # E_+(k alpha, z) is the recurrence on the vacuum; the partition formula
    # gives the same pairs in the same order, the modes of E_- negated
    for k in range(-3, 4):
        for m in range(8):
            expect = tuple(
                (tuple(-p for p in parts), w) for parts, w in _eminus_pairs(-k, m)
            )
            assert _eplus_pairs(k, m) == expect, (k, m)


@pytest.mark.parametrize("n_lat", [1, 2, 3])
def test_heisenberg_modes_are_adjoint(n_lat):
    # <J_{-j} u, v> = <u, J_j v> on unit vectors, with the monomial norms
    # z_lambda of inner_product: ties the step's count * j * norm to z_lambda
    ctx = Context(N=n_lat)
    units = basis_vectors(ctx, 6)
    checks = 0
    for j in range(1, 5):
        raised = [heis_apply(-j, u) for u in units]
        lowered = [heis_apply(j, v) for v in units]
        for u, ju in zip(units, raised):
            for v, jv in zip(units, lowered):
                lhs = inner_product(ju, v)
                assert lhs == inner_product(u, jv), (j, u, v)
                checks += not lhs.is_zero()
    # the pairings that are not zero on both sides
    assert checks


# ------------------------------------------------------------- vertex modes


def test_vacuum_field_is_identity():
    ctx = Context(N=2)
    targets = [conformal_vector(ctx), charged_vacuum(ctx, -1), mono(ctx, (-2, -1), 1)]
    for b in targets:
        assert vertex_mode(vacuum(ctx), -1, b) == b
        assert vertex_mode(vacuum(ctx), 0, b).is_zero()
        assert vertex_mode(vacuum(ctx), -3, b).is_zero()


def test_creation_axiom():
    ctx = Context(N=2)
    states = [
        mono(ctx, (-1,), 0),
        mono(ctx, (-3, -1), 0),
        conformal_vector(ctx),
        charged_vacuum(ctx, 1),
        mono(ctx, (-2, -1, -1), -1),
        weight4_primary(ctx),
    ]
    for a in states:
        assert vertex_mode(a, -1, vacuum(ctx)) == a, a
        for n in range(0, 4):
            assert vertex_mode(a, n, vacuum(ctx)).is_zero(), (a, n)


def test_heisenberg_field_matches_mode_action():
    ctx = Context(N=3)
    j = mono(ctx, (-1,), 0)
    for b in basis_vectors(ctx, 4):
        for m in range(-3, 4):
            assert vertex_mode(j, m, b) == heis_apply(m, b), (m, b)


def test_conformal_field_matches_virasoro_action():
    for n_lat in (1, 2, 3):
        ctx = Context(N=n_lat)
        nu = conformal_vector(ctx)
        for b in basis_vectors(ctx, 4):
            for m in range(-3, 4):
                assert virasoro_field_of(nu, m, b) == virasoro_apply(m, b), (n_lat, m, b)


def test_virasoro_field_rejects_wrong_weight():
    ctx = Context(N=1)
    with pytest.raises(ValueError):
        virasoro_field_of(mono(ctx, (-1,), 0), 0, vacuum(ctx))


def test_charged_vacuum_pair_products():
    for n_lat in (2, 3):
        ctx = Context(N=n_lat)
        g = ctx.sqrt_2n()
        ep, em = charged_vacuum(ctx, 1), charged_vacuum(ctx, -1)
        n = 2 * n_lat - 2
        assert vertex_mode(ep, n, em) == mono(ctx, (-1,), 0).scale(g)
        assert vertex_mode(em, n, ep) == mono(ctx, (-1,), 0).scale(-g)
        # one mode deeper picks up the charge-zero vacuum
        assert vertex_mode(ep, n + 1, em) == vacuum(ctx)
        # the first mode below the pole is the full charge-2 vacuum
        assert vertex_mode(ep, -2 * n_lat - 1, ep) == charged_vacuum(ctx, 2)
        assert vertex_mode(ep, -2 * n_lat, ep).is_zero()
        assert vertex_mode(ep, -1, ep).is_zero()


def test_charge_pair_mode_gives_quartic_vector():
    # (e^g_b)_(g^2-5) (e^g_b) = b * v_g with v_g the quartic Heisenberg combination
    for n_lat, b_name in [(2, "one"), (2, "i"), (3, "one"), (3, "i")]:
        ctx = Context(N=n_lat)
        b = ctx.one() if b_name == "one" else ctx.i()
        gsq = 2 * n_lat
        e = charge_pair_vector(ctx, 1, b)
        got = vertex_mode(e, gsq - 5, e)
        vg = Vector(
            ctx,
            {
                BasisMonomial(0, (-1, -1, -1, -1)): Fraction(gsq * gsq, 12),
                BasisMonomial(0, (-3, -1)): Fraction(2 * gsq, 3),
                BasisMonomial(0, (-2, -2)): Fraction(gsq, 4),
            },
        )
        assert got == vg.scale(b), (n_lat, b_name)


def test_opposite_charge_weight2_products():
    # building blocks of the conformal-candidate equation at N = 2
    ctx = Context(N=2)
    ep, em = charged_vacuum(ctx, 1), charged_vacuum(ctx, -1)
    j2 = mono(ctx, (-2,), 0)
    j11 = mono(ctx, (-1, -1), 0)
    assert vertex_mode(ep, 1, em) == j2 + j11.scale(2)
    assert vertex_mode(em, 1, ep) == -j2 + j11.scale(2)
    # their sum is 8 nu: the J_{-2} parts cancel
    total = vertex_mode(ep, 1, em) + vertex_mode(em, 1, ep)
    assert total == conformal_vector(ctx).scale(8)
    # nu_(1) acts as L_0, reading off the weight N = 2
    assert vertex_mode(conformal_vector(ctx), 1, ep + em) == (ep + em).scale(2)
    assert vertex_mode(ep, 3, em) == vacuum(ctx)


def test_mode_grading_contract():
    rng = random.Random(2026)
    for n_lat in (1, 2, 3):
        ctx = Context(N=n_lat)
        pool = basis_vectors(ctx, 5)
        for _ in range(25):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            wa, wb = a.weight(), b.weight()
            for n in range(-4, wa + wb):
                out = vertex_mode(a, n, b)
                if not out.is_zero():
                    assert out.weight() == wa + wb - n - 1, (a, n, b)


def test_translation_covariance():
    rng = random.Random(31337)
    for n_lat in (1, 2):
        ctx = Context(N=n_lat)
        pool = basis_vectors(ctx, 4)
        for _ in range(15):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            for n in range(-3, 5):
                # (L_{-1} a)_(n) b = -n a_(n-1) b, one mode at a time
                shifted = vertex_mode(virasoro_apply(-1, a), n, b)
                assert shifted + vertex_mode(a, n - 1, b).scale(n) == Vector.zero(ctx), (a, n, b)


def test_vertex_window_agrees_with_single_modes():
    ctx = Context(N=2)
    a = conformal_vector(ctx) + charged_vacuum(ctx, 1)
    b = mono(ctx, (-2,), -1) + vacuum(ctx)
    # a_(-7) vacuum = L_{-1}^6 a / 6! is the lowest mode read, and every
    # mode from it on is whole
    win = vertex_window(a, b, lo=-7)
    assert min(win) == -7
    for n in range(-7, 8):
        assert win.get(n, Vector.zero(ctx)) == vertex_mode(a, n, b), n


def _unit_pairs(ctx, max_weight=3):
    units = [
        mono(ctx, m.partition, m.charge)
        for w in range(max_weight + 1)
        for m in enumerate_basis(ctx, w)
    ]
    return [(a, b) for a in units for b in units]


def test_kernel_golden_digest():
    # every window of every weight <= 3 monomial pair, in contexts where
    # sqrt(2N) folds into Q(zeta_n) (N = 2, and N = 1 at conductor 8) and
    # where it does not
    digest = hashlib.sha256()
    pairs = 0
    for n_lat in (1, 2, 3):
        for conductor in (4, 8):
            for a, b in _unit_pairs(Context(n_lat, conductor)):
                win = vertex_window(a, b, lo=-3)
                data = {str(n): vector_to_json(v) for n, v in win.items()}
                digest.update(json.dumps(data, sort_keys=True).encode("utf-8"))
                pairs += 1
    assert pairs == 854
    assert digest.hexdigest() == (
        "6909e9cdc823d5ca58ad7ae6c96efed7de4237680192181c4a6ee3f75bf9dd41"
    )


def test_kernel_golden_digest_wide_windows():
    # every weight <= 4 monomial pair at width +4, where stage 1 leaves many
    # entries that differ only in their pending creations; recorded before
    # stage 2 merged them into one state per z-exponent
    digest = hashlib.sha256()
    pairs = 0
    for n_lat in (1, 2, 3):
        for a, b in _unit_pairs(Context(n_lat), max_weight=4):
            win = vertex_window(a, b, lo=-5)
            data = {str(n): vector_to_json(v) for n, v in win.items()}
            digest.update(json.dumps(data, sort_keys=True).encode("utf-8"))
            pairs += 1
    assert pairs == 1440
    assert digest.hexdigest() == (
        "6c675179e981b310c5e08159dd62c187bcb5acdaaa0c685c50ff7ed08ad3ecbb"
    )


def test_skew_symmetry():
    # Y(b, z) a = e^{z L_{-1}} Y(a, -z) b, mode by mode:
    # b_(n) a = sum_j (-1)^(n+j+1) L_{-1}^j (a_(n+j) b) / j!
    checks = 0
    for n_lat in (1, 2, 3):
        ctx = Context(n_lat)
        zero = Vector.zero(ctx)
        for a, b in _unit_pairs(ctx):
            ab = vertex_window(a, b, lo=-3)
            ba = vertex_window(b, a, lo=-3)
            for n in range(-3, 4):
                rhs = zero
                for m, v in ab.items():
                    if m < n:
                        continue
                    j = m - n
                    for _ in range(j):
                        v = virasoro_apply(-1, v)
                    sign = -1 if (n + j) % 2 == 0 else 1
                    rhs = rhs + v.scale(Fraction(sign, factorial(j)))
                assert ba.get(n, zero) == rhs, (a, b, n)
                checks += 1
    assert checks == 2989


def test_borcherds_identity():
    # for p, r >= 0 both sides are finite sums:
    # sum_i C(p,i) (a_(r+i) b)_(p+q-i) c
    #   = sum_i (-1)^i C(r,i) [a_(p+r-i) b_(q+i) c - (-1)^r b_(q+r-i) a_(p+i) c]
    checks = 0
    for n_lat in (1, 2, 3):
        ctx = Context(n_lat)
        zero = Vector.zero(ctx)
        for a, b, c in product(basis_vectors(ctx, 2), repeat=3):
            for p, r, q in product(range(3), range(3), range(-1, 2)):
                lhs = zero
                for i in range(p + 1):
                    term = vertex_mode(vertex_mode(a, r + i, b), p + q - i, c)
                    lhs = lhs + term.scale(comb(p, i))
                rhs = zero
                for i in range(r + 1):
                    first = vertex_mode(a, p + r - i, vertex_mode(b, q + i, c))
                    second = vertex_mode(b, q + r - i, vertex_mode(a, p + i, c))
                    term = first - second if r % 2 == 0 else first + second
                    rhs = rhs + term.scale((-1) ** i * comb(r, i))
                assert lhs == rhs, (a, b, c, p, q, r)
                checks += 1
    assert checks == 21384


def test_vertex_mode_is_bilinear_across_components():
    # mixed weights and charges, with coefficients in zeta_8 and sqrt(6),
    # which does not fold at conductor 8
    ctx = Context(3, 8)
    z, root = ctx.zeta(), ctx.sqrt_2n()
    a_terms = [
        (z, mono(ctx, (-1,), 0)),
        (root, charged_vacuum(ctx, 1)),
        (z + ctx.from_fraction(Fraction(1, 3)), mono(ctx, (-2, -1), -1)),
    ]
    b_terms = [
        (ctx.from_fraction(2) - ctx.zeta(3), vacuum(ctx)),
        (root * z, mono(ctx, (-1, -1), 0)),
        (ctx.from_fraction(Fraction(-1, 2)), charged_vacuum(ctx, -1)),
    ]
    a = sum((u.scale(c) for c, u in a_terms), Vector.zero(ctx))
    b = sum((u.scale(c) for c, u in b_terms), Vector.zero(ctx))
    assert sorted(a.weight_components()) == [1, 3, 6]
    assert sorted(b.weight_components()) == [0, 2, 3]
    for n in range(-3, 4):
        expect = Vector.zero(ctx)
        for (c, u), (d, v) in product(a_terms, b_terms):
            expect = expect + vertex_mode(u, n, v).scale(c * d)
        assert vertex_mode(a, n, b) == expect, n


def _kernel_scalars(ctx, am, bm, lo):
    # the kernel's integer entries for the modes n >= lo, decoded by their
    # documented meaning: num/den * sqrt(2N)^r, r = (len out - len a - len b)
    # & 1, each Scalar built by ctx.scalar and not by engine code
    den, blocks = _mono_products(ctx, am, bm, lo)
    lab = len(am.partition) + len(bm.partition)
    return {
        n: {
            m: ctx.scalar(0, Fraction(num, den))
            if (len(m.partition) - lab) & 1
            else ctx.scalar(Fraction(num, den))
            for m, num in block.items()
        }
        for n, block in blocks.items()
    }


def _window_by_pairs(a, b, lo):
    # the per-pair Scalar sum: sum over monomial pairs of f * Vector(block)
    ctx = a.ctx
    acc = {}
    for (am, ca), (bm, cb) in product(a.terms.items(), b.terms.items()):
        for n, block in _kernel_scalars(ctx, am, bm, lo).items():
            acc[n] = acc.get(n, Vector.zero(ctx)) + Vector(ctx, block).scale(ca * cb)
    return {n: v for n, v in acc.items() if not v.is_zero()}


# (2, 8): sqrt 4 folds to 2, so every kernel entry is rational; (1, 8): sqrt 2
# folds into zeta_8, so odd-power entries are general cyclotomic numbers;
# (3, 4) and (3, 8): sqrt 6 stays a radical
ACCUMULATOR_CONTEXTS = [(2, 8), (1, 8), (3, 4), (3, 8)]


@pytest.mark.parametrize("n_lat, conductor", ACCUMULATOR_CONTEXTS)
def test_vertex_window_matches_per_pair_scalar_sum(n_lat, conductor):
    ctx = Context(n_lat, conductor)
    z, root = ctx.zeta(), ctx.sqrt_2n()
    third = ctx.from_fraction(Fraction(1, 3))
    a = (
        mono(ctx, (-1,), 0).scale(z)
        + charged_vacuum(ctx, 1).scale(root + third)
        + mono(ctx, (-2, -1), -1).scale(z * z - third)
        + mono(ctx, (-1,), 1).scale(Fraction(-5, 2))
    )
    b = (
        vacuum(ctx).scale(ctx.from_fraction(2) - z**3)
        + mono(ctx, (-1, -1), 0).scale(root * z)
        + charged_vacuum(ctx, -1).scale(Fraction(-1, 2))
        + mono(ctx, (-2,), 1).scale(root * third)
    )
    for lo in (-2, -4, -6):
        got = vertex_window(a, b, lo=lo)
        expect = _window_by_pairs(a, b, lo)
        assert got == expect, lo
        for n, v in got.items():
            assert vector_to_json(v) == vector_to_json(expect[n]), (lo, n)
            assert not any(c.is_zero() for c in v.terms.values()), (lo, n)


@pytest.mark.parametrize("n_lat, conductor", ACCUMULATOR_CONTEXTS)
def test_vertex_window_drops_cancelled_entries(n_lat, conductor):
    # J_(-1) e^a = J_{-1} e^a and e^a_(-1) J_{-1} vacuum = (1 - 2N) J_{-1} e^a,
    # so with b = e^a + J / (2N - 1) the n = -1 entry at J_{-1} e^a cancels;
    # at N = 1 the two n = 0 products, +-sqrt 2 e^a, cancel as well, and with
    # them the whole mode
    ctx = Context(n_lat, conductor)
    j, ep = mono(ctx, (-1,), 0), charged_vacuum(ctx, 1)
    a = j + ep
    b = ep + j.scale(Fraction(1, 2 * n_lat - 1))
    got = vertex_window(a, b, lo=-3)
    assert got == _window_by_pairs(a, b, -3)
    cancelled = BasisMonomial(1, (-1,))
    (jm,), (em,) = j.terms, ep.terms
    assert cancelled in _kernel_scalars(ctx, jm, em, -3)[-1]
    assert cancelled not in got[-1].terms
    assert (0 in got) == (n_lat != 1)


@pytest.mark.parametrize("n_lat, conductor", ACCUMULATOR_CONTEXTS)
def test_vertex_window_single_pair_with_non_unit_factor(n_lat, conductor):
    ctx = Context(n_lat, conductor)
    f = ctx.zeta() + ctx.sqrt_2n() * ctx.from_fraction(Fraction(2, 3))
    a, b = mono(ctx, (-2,), 1).scale(f), mono(ctx, (-1,), -1).scale(Fraction(3, 7))
    lo = a.weight() + b.weight() - 6  # the modes of output weight <= 5
    got = vertex_window(a, b, lo=lo)
    assert got and got == _window_by_pairs(a, b, lo)


# where sqrt(2N) is not in Q(zeta_n) or is an int there (2N = 4), a window
# whose factors are all rational sums one [rat, rad] int pair per entry; at
# (1, 8) sqrt 2 folds to a cyclotomic number, so every window takes the
# 2 phi(n) layout
RATIONAL_FOLD_CONTEXTS = [(3, 4), (3, 8), (2, 4), (2, 8)]


def _from_ints_calls(monkeypatch, a, b, lo):
    # the window and the number of Context.from_ints calls it made; the
    # two-int layout builds its Scalars without from_ints
    calls = []
    original = Context.from_ints

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Context, "from_ints", counting)
        win = vertex_window(a, b, lo=lo)
    return win, len(calls)


def _assert_same_bytes(got, expect):
    assert {str(n): vector_to_json(v) for n, v in got.items()} == {
        str(n): vector_to_json(v) for n, v in expect.items()
    }


def _rational_operands(ctx):
    third = Fraction(1, 3)
    a = (
        mono(ctx, (-1,), 0).scale(Fraction(-7, 4))
        + charged_vacuum(ctx, 1).scale(third)
        + mono(ctx, (-2, -1), -1).scale(6)
        + mono(ctx, (-1,), 1).scale(Fraction(-5, 2))
    )
    b = (
        vacuum(ctx).scale(2)
        + mono(ctx, (-1, -1), 0).scale(Fraction(3, 10))
        + charged_vacuum(ctx, -1).scale(Fraction(-1, 2))
        + mono(ctx, (-2,), 1).scale(third)
    )
    return a, b


@pytest.mark.parametrize("n_lat, conductor", RATIONAL_FOLD_CONTEXTS + [(1, 8)])
def test_rational_factor_window_matches_per_pair_sum(monkeypatch, n_lat, conductor):
    ctx = Context(n_lat, conductor)
    a, b = _rational_operands(ctx)
    two_int = (n_lat, conductor) != (1, 8)
    for lo in (-1, -3, -5, -7):
        got, calls = _from_ints_calls(monkeypatch, a, b, lo)
        assert got
        _assert_same_bytes(got, _window_by_pairs(a, b, lo))
        entries = sum(len(v.terms) for v in got.values())
        assert (calls == 0) if two_int else (calls >= entries), lo


@pytest.mark.parametrize("n_lat, conductor", RATIONAL_FOLD_CONTEXTS)
def test_one_zeta_factor_keeps_the_general_layout(monkeypatch, n_lat, conductor):
    ctx = Context(n_lat, conductor)
    a, b = _rational_operands(ctx)
    a = a + mono(ctx, (-3,), 0).scale(ctx.zeta())
    got, calls = _from_ints_calls(monkeypatch, a, b, -4)
    _assert_same_bytes(got, _window_by_pairs(a, b, -4))
    assert calls >= sum(len(v.terms) for v in got.values())


@pytest.mark.parametrize("n_lat, conductor", RATIONAL_FOLD_CONTEXTS + [(1, 8)])
def test_rational_window_drops_a_mode_that_cancels(monkeypatch, n_lat, conductor):
    # J_(0) e^a = sqrt(2N) e^a and, by skew symmetry, (e^a)_(0) J = -sqrt(2N)
    # e^a, the only entries of mode 0 in (J + e^a)_(0) (J + e^a): the entry
    # cancels and the mode is dropped, beside modes that survive
    ctx = Context(n_lat, conductor)
    j, ep = mono(ctx, (-1,), 0), charged_vacuum(ctx, 1)
    (jm,), (em,) = j.terms, ep.terms
    assert 0 in _kernel_scalars(ctx, jm, em, -2) and 0 in _kernel_scalars(ctx, em, jm, -2)
    for scale in (1, Fraction(-2, 3)):
        a = (j + ep).scale(scale)
        got, calls = _from_ints_calls(monkeypatch, a, j + ep, -2)
        assert 0 not in got and -1 in got, scale
        _assert_same_bytes(got, _window_by_pairs(a, j + ep, -2))
        assert (calls == 0) == ((n_lat, conductor) != (1, 8))


def _zeta_operands(ctx):
    z, root = ctx.zeta(), ctx.sqrt_2n()
    third = ctx.from_fraction(Fraction(1, 3))
    a = (
        mono(ctx, (-1,), 0).scale(z)
        + charged_vacuum(ctx, 1).scale(root + third)
        + mono(ctx, (-2, -1), -1).scale(z * z - third)
    )
    b = vacuum(ctx).scale(ctx.from_fraction(2) - z**3) + mono(ctx, (-2,), 1).scale(root * third)
    return a, b


@pytest.mark.parametrize("n_lat, conductor", ACCUMULATOR_CONTEXTS + [(2, 4)])
def test_window_sums_compare_equal_to_their_window(n_lat, conductor):
    # a WindowSum equals the Vector of its own window, in both orders, and
    # no Vector that differs from it in one entry
    ctx = Context(n_lat, conductor)
    for a, b in (_rational_operands(ctx), _zeta_operands(ctx)):
        for lo in (-2, -5):
            win = vertex_window(a, b, lo=lo)
            sums = window_sums(a, b, lo=lo)
            assert win and win.keys() <= sums.keys(), lo
            for n in sums.keys() - win.keys():
                assert sums[n] == Vector.zero(ctx), (lo, n)
            for n, v in win.items():
                s = sums[n]
                assert s == v and v == s and not s != v, (lo, n)
                assert vector_to_json(s.vector()) == vector_to_json(v)
                assert s.scale(3) - s == s.scale(2) and s - s == Vector.zero(ctx)
                assert s.scale(0) == Vector.zero(ctx) != s
                first, c = next(iter(v.terms.items()))
                for nudge in (ctx.from_ints((1,), (), c.den), ctx.zeta(), ctx.sqrt_2n()):
                    assert s != v + Vector(ctx, {first: nudge}), (lo, n, nudge)
                assert s != v + mono(ctx, (-9,), 4), (lo, n)
    # a mode whose entries all cancel (as in
    # test_rational_window_drops_a_mode_that_cancels) stays as a zero sum,
    # where vertex_window drops it
    j = mono(ctx, (-1,), 0) + charged_vacuum(ctx, 1)
    assert 0 not in vertex_window(j, j, lo=-2)
    assert window_sums(j, j, lo=-2)[0] == Vector.zero(ctx)


@pytest.mark.parametrize("n_lat, conductor", RATIONAL_FOLD_CONTEXTS)
def test_window_sums_compare_across_layouts(n_lat, conductor):
    # (a + u) - u reads u's zeta factor in the general layout, a alone the
    # two-int one: the two-int numerators widen into the general layout (rat
    # slot 0 stays, rad slot 1 moves to phi(n)), and the sums agree
    ctx = Context(n_lat, conductor)
    a, b = _rational_operands(ctx)
    u = mono(ctx, (-3,), 0).scale(ctx.zeta())
    plain, mixed, extra = (window_sums(x, b, lo=-4) for x in (a, a + u, u))
    empty = WindowSum(ctx)
    folds = ctx.fold is not None
    assert {w for s in plain.values() for _, _, w, _ in s.terms} == {1 if folds else 2}
    general = ctx.degree if folds else 2 * ctx.degree
    assert {w for s in mixed.values() for _, _, w, _ in s.terms} == {general}
    win = vertex_window(a, b, lo=-4)
    for n in plain.keys() | mixed.keys() | extra.keys():
        lhs = mixed.get(n, empty) - extra.get(n, empty)
        assert lhs == plain.get(n, empty) and plain.get(n, empty) == lhs, n
        assert lhs == win.get(n, Vector.zero(ctx)), n
        if n in win:
            # a Vector entry outside the two-int span is not equal to it
            assert plain[n] != win[n].scale(ctx.zeta()), n


@pytest.mark.parametrize(
    "n_lat, conductor, width", [(2, 8, 4), (2, 4, 2), (1, 8, 4), (3, 4, 4), (3, 8, 8)]
)
def test_general_window_layout_width_per_context(n_lat, conductor, width):
    # phi(n) slots where sqrt(2N) folds into Q(zeta_n), whose rad half would
    # stay zero, and 2 phi(n) where it does not
    ctx = Context(n_lat, conductor)
    a = mono(ctx, (-1,), 0).scale(ctx.zeta()) + charged_vacuum(ctx, 1)
    den, got, blocks = _window_ints(a, charged_vacuum(ctx, 1) + mono(ctx, (-1,), 0), -2)
    assert got == width and blocks
    assert all(len(nums) == width for b in blocks.values() for nums in b.values())


def test_single_unit_pair_window_does_not_share_the_cache():
    ctx = Context(3)
    a, b = charged_vacuum(ctx, 1), mono(ctx, (-1,), -1)
    (am,), (bm,) = a.terms, b.terms
    cached = _mono_products(ctx, am, bm, 1)
    before = (cached[0], {n: dict(block) for n, block in cached[1].items()})
    # the window from mode 1 reads the pair's kernel entry at lo = 1
    win = vertex_window(a, b, lo=1)
    original = {n: Vector(ctx, v.terms) for n, v in win.items()}
    assert original == {
        n: Vector(ctx, block) for n, block in _kernel_scalars(ctx, am, bm, 1).items()
    }
    for v in win.values():
        first = next(iter(v.terms))
        v.terms[first] = ctx.from_fraction(7)
        v.terms[BasisMonomial(4, (-9,))] = ctx.one()
    assert vertex_window(a, b, lo=1) == original
    assert _mono_products(ctx, am, bm, 1) is cached
    assert cached == before


@pytest.mark.parametrize("n_lat, conductor", [(1, 4), (3, 4), (3, 8)])
def test_kernel_coefficients_are_one_rational_times_a_root_power(n_lat, conductor):
    # in the alpha-basis every structure constant is rational, so a J-basis
    # coefficient is one rational times sqrt(2N)^(len out - len a - len b):
    # where sqrt(2N) does not fold, it sits on rad exactly when that is odd
    ctx = Context(n_lat, conductor)
    seen = {0: 0, 1: 0}
    for a, b in _unit_pairs(ctx):
        (am,), (bm,) = a.terms, b.terms
        den, blocks = _mono_products(ctx, am, bm, -3)
        assert type(den) is int and den > 0, (am, bm)
        for n, block in _kernel_scalars(ctx, am, bm, -3).items():
            for out, c in block.items():
                assert type(blocks[n][out]) is int, (am, bm, out)
                odd = (len(out.partition) - len(am.partition) - len(bm.partition)) % 2
                rat, rad = (c.rad, c.rat) if odd else (c.rat, c.rad)
                assert len(rat) == 1 and not rad, (am, bm, out, c)
                seen[odd] += 1
    assert seen[0] and seen[1]


@pytest.mark.parametrize("n_lat", [1, 2, 3])
@pytest.mark.parametrize("conductor", [4, 8])
def test_kernel_outputs_are_interned_and_valid(n_lat, conductor):
    # _mk_mono skips BasisMonomial's checks, so every output monomial must
    # pass them; and it interns, so windows that share an output monomial
    # share the key object
    _mono_products.cache_clear()
    _mk_mono.cache_clear()
    ctx = Context(n_lat, conductor)
    seen: dict = {}
    shared = 0
    for a, b in _unit_pairs(ctx):
        (am,), (bm,) = a.terms, b.terms
        for block in _kernel_scalars(ctx, am, bm, -3).values():
            for m in block:
                assert BasisMonomial(m.charge, m.partition) == m
                assert m is _mk_mono(m.charge, m.partition)
                key = (m.charge, m.partition)
                shared += key in seen
                assert seen.setdefault(key, m) is m
    assert shared


@pytest.mark.parametrize("n_lat, conductor", ACCUMULATOR_CONTEXTS)
def test_integer_kernel_entries_are_reduced_and_flip_by_parity(n_lat, conductor):
    # a cached entry is (den, {n: {monomial: num}}) with den > 0 coprime to
    # every num, no zero num and no empty block; a non-canonical key holds
    # its canonical partner's nums times (-1)^r over the same den; and the
    # decoded blocks are the window of the unit pair
    ctx = Context(n_lat, conductor)
    flipped = 0
    for a, b in _unit_pairs(ctx):
        (am,), (bm,) = a.terms, b.terms
        den, blocks = _mono_products(ctx, am, bm, -3)
        nums = [num for block in blocks.values() for num in block.values()]
        assert den > 0 and gcd(den, *nums) == 1, (am, bm)
        assert all(blocks.values()) and all(nums), (am, bm)
        if not _canonical(am, bm):
            partner = _mono_products(
                ctx,
                BasisMonomial(-am.charge, am.partition),
                BasisMonomial(-bm.charge, bm.partition),
                -3,
            )
            lab = len(am.partition) + len(bm.partition)
            assert (den, blocks) == (
                partner[0],
                {
                    n: {
                        BasisMonomial(-m.charge, m.partition): (
                            -num if (len(m.partition) - lab) & 1 else num
                        )
                        for m, num in block.items()
                    }
                    for n, block in partner[1].items()
                },
            ), (am, bm)
            flipped += 1
        win = vertex_window(a, b, lo=-3)
        assert {n: v.terms for n, v in win.items()} == _kernel_scalars(ctx, am, bm, -3)
    assert flipped


def _window_json(a, b, lo):
    win = vertex_window(a, b, lo=lo)
    return json.dumps({str(n): vector_to_json(v) for n, v in win.items()}, sort_keys=True)


def _window_keys(ctx, a, b, lo):
    return {
        (n, m.partition, m.charge): m
        for am in a.terms
        for bm in b.terms
        for n, block in _kernel_scalars(ctx, am, bm, lo).items()
        for m in block
    }


@pytest.mark.parametrize("n_lat, conductor", ACCUMULATOR_CONTEXTS)
def test_evicted_intern_entries_do_not_change_a_window(n_lat, conductor):
    # after _mk_mono.cache_clear() the cached kernel blocks of J against b
    # hold keys equal to, but not the same objects as, those of the blocks
    # of the other terms of a, computed afterwards; J_(-1) e^a and
    # e^a_(-1) J_{-1} vacuum share J_{-1} e^a, so the window must merge
    # equal keys by value
    ctx = Context(n_lat, conductor)
    z = ctx.zeta()
    j = mono(ctx, (-1,), 0)
    rest = charged_vacuum(ctx, 1).scale(z) + mono(ctx, (-2, -1), -1).scale(Fraction(-5, 2))
    a = j + rest
    b = charged_vacuum(ctx, 1) + j.scale(Fraction(1, 3)) + vacuum(ctx).scale(z)
    _mono_products.cache_clear()
    _mk_mono.cache_clear()
    fresh = _window_json(a, b, -6)

    _mono_products.cache_clear()
    _mk_mono.cache_clear()
    old = _window_keys(ctx, j, b, -6)
    _mk_mono.cache_clear()
    new = _window_keys(ctx, rest, b, -6)
    shared = old.keys() & new.keys()
    assert shared and all(old[k] is not new[k] for k in shared)
    assert _window_json(a, b, -6) == fresh


def _canonical(am, bm):
    return am.charge > 0 or (am.charge == 0 and bm.charge >= 0)


@pytest.mark.parametrize("n_lat", [1, 2, 3])
@pytest.mark.parametrize("conductor", [4, 8])
def test_flipped_kernel_entries_match_direct_computation(n_lat, conductor):
    # a non-canonical key is read as the flip of its canonical partner's
    # entry; it must equal the kernel body run on that key itself
    ctx = Context(n_lat, conductor)
    flipped = 0
    for a, b in _unit_pairs(ctx):
        (am,), (bm,) = a.terms, b.terms
        if _canonical(am, bm):
            continue
        for lo in range(-3, 1):
            assert _mono_products(ctx, am, bm, lo) == _mono_products_direct(
                ctx, am, bm, lo
            ), (am, bm, lo)
            flipped += 1
    assert flipped


def _virasoro_sum(m, v):
    # L_m = (1/2) sum_j :J_j J_{m-j}:, annihilator applied first; the range
    # is wider than the terms that can be nonzero
    fock = max(-sum(t.partition) for t in v.terms)
    acc = Vector.zero(v.ctx)
    for j in range(m - fock - 2, fock + 3):
        p, q = sorted((j, m - j))
        acc = acc + heis_apply(p, heis_apply(q, v))
    return acc.scale(Fraction(1, 2))


@pytest.mark.parametrize("n_lat", [1, 2, 3])
@pytest.mark.parametrize("conductor", [4, 8])
def test_flipped_virasoro_images_match_direct_sum(n_lat, conductor):
    ctx = Context(n_lat, conductor)
    negative = 0
    for w in range(4):
        for m in enumerate_basis(ctx, w):
            v = mono(ctx, m.partition, m.charge)
            negative += m.charge < 0
            for k in range(-3, 4):
                assert virasoro_apply(k, v) == _virasoro_sum(k, v), (m, k)
    assert negative


@pytest.mark.parametrize("n_lat, conductor", [(1, 4), (1, 8), (3, 4)])
def test_virasoro_mono_matches_kernel_mode(n_lat, conductor):
    # L_m = nu_(m+1) read through the mode-product kernel, which shares no
    # code with heis_apply or _virasoro_mono; conductor 8 at N = 1 folds
    # sqrt 2 into Q(zeta_8)
    ctx = Context(n_lat, conductor)
    nu = conformal_vector(ctx)
    for v in basis_vectors(ctx, 5):
        for m in range(-4, 5):
            got = virasoro_apply(m, v)
            assert got == vertex_mode(nu, m + 1, v), (v, m)
            assert not any(c.is_zero() for c in got.terms.values()), (v, m)


def _mixed_coefficients(ctx):
    # Scalars with a rational, a zeta and a sqrt(2N) part
    return [
        ctx.scalar((Fraction(1, 3), 2), (0, Fraction(-5, 7))),
        ctx.scalar((0, -1), (Fraction(3, 2),)),
        ctx.scalar(Fraction(-4, 9)),
    ]


def test_virasoro_apply_on_mixed_vectors_matches_direct_sum():
    ctx = Context(3)
    a, b, c = _mixed_coefficients(ctx)
    vecs = [
        mono(ctx, (-2, -1), 0, a) + mono(ctx, (-3,), 0, b) + mono(ctx, (-1,), 1, c),
        mono(ctx, (-1, -1), -1, b) + mono(ctx, (-2,), -1, a) + charged_vacuum(ctx, 1).scale(c),
    ]
    # 4 J_{-3} J_{-1} - 3 J_{-2}^2 is quasi-primary: the two L_1 images cancel
    quasi = mono(ctx, (-3, -1), 0, 4) + mono(ctx, (-2, -2), 0, -3)
    vecs.append(quasi.scale(a) + mono(ctx, (-2,), 0, b))
    for v in vecs:
        for m in range(-3, 4):
            got = virasoro_apply(m, v)
            assert got == _virasoro_sum(m, v), (v, m)
            assert not any(x.is_zero() for x in got.terms.values()), (v, m)
    assert virasoro_apply(1, quasi.scale(a)).is_zero()
    assert virasoro_apply(1, vecs[-1]) == mono(ctx, (-1,), 0, 2).scale(b)


@pytest.mark.parametrize("n_lat, conductor", [(1, 8), (3, 4)])
def test_virasoro_images_store_no_zero(n_lat, conductor):
    ctx = Context(n_lat, conductor)
    assert virasoro_apply(0, vacuum(ctx)).terms == {}
    assert virasoro_apply(1, mono(ctx, (-1,), 0)).terms == {}
    for v in basis_vectors(ctx, 4):
        (x,) = v.terms
        for m in range(-3, 4):
            img = vertex_engine._virasoro_mono(ctx, m, x)
            assert not any(c.is_zero() for c in img.terms.values()), (x, m)


def test_virasoro_apply_hands_out_no_cached_vector():
    ctx = Context(3)
    a, b, _ = _mixed_coefficients(ctx)
    checked = 0
    for v in (
        mono(ctx, (-2,), 0),
        charged_vacuum(ctx, -1),
        mono(ctx, (-2, -1), 1, a) + mono(ctx, (-1,), 0, b),
    ):
        for m in (-2, -1, 1, 2):
            cached = {x: dict(vertex_engine._virasoro_mono(ctx, m, x).terms) for x in v.terms}
            first = virasoro_apply(m, v)
            want = dict(first.terms)
            if not want:
                continue
            checked += 1
            for x in first.terms:
                first.terms[x] = ctx.one()
            first.terms[_mk_mono(0, (-5,))] = ctx.one()
            assert virasoro_apply(m, v).terms == want, (v, m)
            first.terms.clear()
            assert virasoro_apply(m, v).terms == want, (v, m)
            for x, terms in cached.items():
                assert vertex_engine._virasoro_mono(ctx, m, x).terms == terms, (x, m)
    assert checked == 9


def test_vertex_window_computes_only_canonical_keys(monkeypatch):
    ctx = Context(3)
    computed = []

    def counting(ctx_, am, bm, lo):
        computed.append((am, bm, lo))
        return _mono_products_direct(ctx_, am, bm, lo)

    monkeypatch.setattr(vertex_engine, "_mono_products_direct", counting)
    _mono_products.cache_clear()
    a = charged_vacuum(ctx, -1) + mono(ctx, (-1,), -1, 2)
    b = charged_vacuum(ctx, -1) + mono(ctx, (-2,), 1) + mono(ctx, (-1,), 0)
    got = vertex_window(a, b, lo=-3)
    assert computed and all(_canonical(am, bm) for am, bm, _ in computed)
    # each of the six monomial pairs maps to its own canonical key, computed once
    assert len(computed) == len(set(computed)) == 6
    flipped = vertex_window(apply_flip(a), apply_flip(b), lo=-3)
    assert got == {n: apply_flip(v) for n, v in flipped.items()}
    assert len(computed) == 6


@pytest.mark.parametrize("n_lat, conductor", [(1, 8), (3, 4)])
def test_kernel_window_bound_only_truncates(n_lat, conductor):
    # an entry at lo keeps exactly the modes n >= lo of a wider entry, also
    # where the kernel's E_+ order bound fmax = wt a + wt b - lo - 1 - N (ca +
    # cb)^2 is below the Fock weight of b, so that Fock weight and not fmax
    # sets the common denominator of the kernel's integer terms; the cached
    # den depends on lo too, so decoded values are compared
    ctx = Context(n_lat, conductor)
    below_fock = 0
    for a, b in _unit_pairs(ctx, max_weight=2):
        (am,), (bm,) = a.terms, b.terms
        wa, wb = a.weight(), b.weight()
        base = n_lat * (am.charge + bm.charge) ** 2
        full = _kernel_scalars(ctx, am, bm, -5)
        for lo in range(-4, min(wa + wb, 3)):
            expect = {n: block for n, block in full.items() if n >= lo}
            assert _kernel_scalars(ctx, am, bm, lo) == expect, (am, bm, lo)
            below_fock += wa + wb - lo - 1 - base < -sum(bm.partition)
    assert below_fock


@pytest.mark.parametrize("n_lat, conductor", [(1, 8), (3, 4)])
def test_pair_with_no_mode_from_lo_reads_empty(n_lat, conductor):
    # a nonzero a_(n) b has weight wt a + wt b - n - 1 >= 0, so a pair has no
    # mode n >= wt a + wt b: its kernel entry is (1, {}), canonical or
    # flipped, and its window is empty; one mode lower can be nonzero
    ctx = Context(n_lat, conductor)
    tight = 0
    for a, b in _unit_pairs(ctx, max_weight=2):
        (am,), (bm,) = a.terms, b.terms
        top = a.weight() + b.weight()
        for lo in (top, top + 1, top + 5):
            assert _mono_products(ctx, am, bm, lo) == (1, {}), (am, bm, lo)
            assert vertex_window(a, b, lo=lo) == {}, (am, bm, lo)
        tight += top - 1 in vertex_window(a, b, lo=top - 1)
    assert tight
    # in a window of several pairs, those with no mode from lo add nothing:
    # vacuum_(n) vacuum = 0 for n >= 0, while nu_(0) nu = L_{-1} nu
    mixed = vacuum(ctx) + conformal_vector(ctx)
    got = vertex_window(mixed, mixed, lo=0)
    assert got and got == _window_by_pairs(mixed, mixed, 0)
    assert got[0] == virasoro_apply(-1, conformal_vector(ctx))


def test_locality_orders():
    ctx = Context(N=2)
    j = mono(ctx, (-1,), 0)
    nu = conformal_vector(ctx)
    ep, em = charged_vacuum(ctx, 1), charged_vacuum(ctx, -1)
    assert find_locality_order(j, j) == 2
    assert find_locality_order(j, ep) == 1
    assert find_locality_order(nu, ep) == 2
    assert find_locality_order(ep, ep) == 0
    assert find_locality_order(ep, em) == 4
    assert find_locality_order(nu, nu) == 4


def test_locality_order_rejects_zero_operand():
    ctx = Context(N=2)
    ep, zero = charged_vacuum(ctx, 1), Vector.zero(ctx)
    for a, b in ((zero, ep), (ep, zero)):
        with pytest.raises(ValueError):
            find_locality_order(a, b)


LOCALITY_OPERANDS = ("Jm1", "Jm2", "nu", "ep", "em")


def _locality_operands(ctx):
    return {
        "Jm1": mono(ctx, (-1,), 0),
        "Jm2": mono(ctx, (-2,), 0),
        "nu": conformal_vector(ctx),
        "ep": charged_vacuum(ctx, 1),
        "em": charged_vacuum(ctx, -1),
    }


@pytest.mark.parametrize("n_lat", [1, 3])
@pytest.mark.parametrize("left,right", list(product(LOCALITY_OPERANDS, repeat=2)))
def test_locality_order_matches_commutator_formula(n_lat, left, right):
    # an order N is right when a_(N-1) b != 0 and the commutator formula
    # [a_(m), b_(n)] = sum_{j>=0} C(m, j) (a_(j) b)_(m+n-j) (Kac 1998) holds
    # with the sum cut at j < N, both read through vertex_mode alone
    ctx = Context(n_lat)
    ops = _locality_operands(ctx)
    a, b = ops[left], ops[right]
    order = find_locality_order(a, b)
    if order:
        assert not vertex_mode(a, order - 1, b).is_zero()
    products = [vertex_mode(a, j, b) for j in range(order)]
    for c in basis_vectors(ctx, 1):
        for m in range(order + 2):
            for n in range(-2, 2):
                lhs = vertex_mode(a, m, vertex_mode(b, n, c)) - vertex_mode(
                    b, n, vertex_mode(a, m, c)
                )
                rhs = Vector.zero(ctx)
                for j, u in enumerate(products):
                    rhs = rhs + vertex_mode(u, m + n - j, c).scale(comb(m, j))
                assert lhs == rhs, (m, n, c)


def test_locality_order_rejects_inhomogeneous_operand():
    ctx = Context(N=2)
    j, ep = mono(ctx, (-1,), 0), charged_vacuum(ctx, 1)
    for a, b in ((j + ep, ep), (ep, j + conformal_vector(ctx))):
        with pytest.raises(ValueError):
            find_locality_order(a, b)
