"""Tests for fields, modes, normal ordering, and the Virasoro action."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from voa.scalars import Context, ContextMismatchError
from voa.state_space import (
    BasisMonomial,
    Vector,
    charge_pair_vector,
    charged_vacuum,
    conformal_vector,
    enumerate_basis,
    vacuum,
    vector_to_json,
    weight4_primary,
)
from voa.vertex_engine import (
    _apply_annihilators,
    _eminus_pairs,
    _eplus_pairs,
    _mono_products,
    find_locality_order,
    heis_apply,
    mode_request,
    vertex_mode,
    vertex_mode_physics,
    vertex_window,
    virasoro_apply,
    virasoro_field_of,
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
            BasisMonomial((-1, -1, -1, -1), 0): Fraction(1, 4),
            BasisMonomial((-3, -1), 0): 1,
        },
    )
    assert virasoro_apply(-4, vacuum(ctx)) == Vector(
        ctx,
        {
            BasisMonomial((-2, -2), 0): Fraction(1, 2),
            BasisMonomial((-3, -1), 0): 1,
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


def test_eplus_coefficients_low_orders():
    # alpha-basis: the z^m coefficient of E_+(k alpha, z) is k^len(lambda)/z_lambda
    assert _eplus_pairs(1, 0) == (((), 1),)
    assert _eplus_pairs(0, 3) == ()
    assert dict(_eplus_pairs(1, 1)) == {(-1,): 1}

    quartic = dict(_eplus_pairs(1, 4))
    assert quartic == {
        (-4,): Fraction(1, 4),
        (-3, -1): Fraction(1, 3),
        (-2, -2): Fraction(1, 8),
        (-2, -1, -1): Fraction(1, 4),
        (-1, -1, -1, -1): Fraction(1, 24),
    }
    # charge -1 flips the sign of odd-length partitions
    neg = dict(_eplus_pairs(-1, 4))
    assert neg == {parts: (-1) ** len(parts) * f for parts, f in quartic.items()}


def test_eminus_action_on_conformal_vector():
    # alpha-basis: the z^{-q} coefficient of E_-(k alpha, z) is (-k)^len(lambda)/z_lambda
    assert _eminus_pairs(1, 0) == (((), 1),)
    assert _eminus_pairs(0, 2) == ()
    assert dict(_eminus_pairs(1, 2)) == {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
    assert dict(_eminus_pairs(-1, 1)) == {(1,): 1}

    # E_-(alpha, z)(nu (x) e^alpha) = nu e - 2 J_{-1} e z^{-1} + 2 e z^{-2} in V_{L_4},
    # with nu = J_{-1}^2 / 2 = alpha_{-1}^2 / 8, J_{-1} = alpha_{-1} / 2 and
    # [alpha_m, alpha_{-m}] = 4m
    carrier = {BasisMonomial((-1, -1), 1): Fraction(1, 8)}

    def coefficient(k, q):
        acc: dict = {}
        for modes, f in _eminus_pairs(k, q):
            for m, c in _apply_annihilators(modes, carrier, 4).items():
                acc[m] = acc.get(m, 0) + f * c
        return {m: c for m, c in acc.items() if c}

    assert coefficient(1, 0) == carrier
    assert coefficient(1, 1) == {BasisMonomial((-1,), 1): -1}
    assert coefficient(1, 2) == {BasisMonomial((), 1): 2}
    assert coefficient(1, 3) == {}
    # negative charge flips the middle sign
    assert coefficient(-1, 1) == {BasisMonomial((-1,), 1): 1}


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
                assert vertex_mode_physics(nu, m, b) == virasoro_apply(m, b)


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
                BasisMonomial((-1, -1, -1, -1), 0): Fraction(gsq * gsq, 12),
                BasisMonomial((-3, -1), 0): Fraction(2 * gsq, 3),
                BasisMonomial((-2, -2), 0): Fraction(gsq, 4),
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
    win = vertex_window(a, b, 8)
    lo = min(win)
    for n in range(lo, 8):
        expect = vertex_mode(a, n, b)
        got = win.get(n, Vector.zero(ctx))
        # entries above the weight window are simply absent
        if not expect.is_zero() and max(expect.weights()) <= 8:
            assert got == expect, n
    assert all(max(v.weights()) <= 8 for v in win.values())


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
                win = vertex_window(a, b, a.weight() + b.weight() + 2)
                data = {str(n): vector_to_json(v) for n, v in win.items()}
                digest.update(json.dumps(data, sort_keys=True).encode("utf-8"))
                pairs += 1
    assert pairs == 854
    assert digest.hexdigest() == (
        "6909e9cdc823d5ca58ad7ae6c96efed7de4237680192181c4a6ee3f75bf9dd41"
    )


def test_skew_symmetry():
    # Y(b, z) a = e^{z L_{-1}} Y(a, -z) b, mode by mode:
    # b_(n) a = sum_j (-1)^(n+j+1) L_{-1}^j (a_(n+j) b) / j!
    checks = 0
    for n_lat in (1, 2, 3):
        ctx = Context(n_lat)
        zero = Vector.zero(ctx)
        for a, b in _unit_pairs(ctx):
            wmax = a.weight() + b.weight() + 2
            ab = vertex_window(a, b, wmax)
            ba = vertex_window(b, a, wmax)
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


@pytest.mark.parametrize("n_lat, conductor", [(1, 4), (3, 4), (3, 8)])
def test_kernel_coefficients_are_one_rational_times_a_root_power(n_lat, conductor):
    # in the alpha-basis every structure constant is rational, so a J-basis
    # coefficient is one rational times sqrt(2N)^(len out - len a - len b):
    # where sqrt(2N) does not fold, it sits on rad exactly when that is odd
    ctx = Context(n_lat, conductor)
    seen = {0: 0, 1: 0}
    for a, b in _unit_pairs(ctx):
        (am,), (bm,) = a.terms, b.terms
        products = _mono_products(ctx, am, bm, a.weight() + b.weight() + 2)
        for block in products.values():
            for out, c in block.items():
                odd = (len(out.partition) - len(am.partition) - len(bm.partition)) % 2
                rat, rad = (c.rad, c.rat) if odd else (c.rat, c.rad)
                assert len(rat) == 1 and not rad, (am, bm, out, c)
                seen[odd] += 1
    assert seen[0] and seen[1]


@pytest.mark.parametrize("n_lat, conductor", [(1, 8), (3, 4)])
def test_kernel_window_bound_only_truncates(n_lat, conductor):
    # a bound w keeps exactly the modes of a wider window whose output weight
    # is <= w, also below the Fock weight of b, where that Fock weight and not
    # w sets the common denominator of the kernel's integer terms
    ctx = Context(n_lat, conductor)
    below_fock = 0
    for a, b in _unit_pairs(ctx, max_weight=2):
        (am,), (bm,) = a.terms, b.terms
        wa, wb = a.weight(), b.weight()
        base = n_lat * (am.charge + bm.charge) ** 2
        full = _mono_products(ctx, am, bm, wa + wb + 4)
        for w in range(max(0, wa + wb - 3), wa + wb + 4):
            expect = {n: block for n, block in full.items() if wa + wb - n - 1 <= w}
            assert _mono_products(ctx, am, bm, w) == expect, (am, bm, w)
            below_fock += w - base < -sum(bm.partition)
    assert below_fock


def test_locality_orders():
    ctx = Context(N=2)
    j = mono(ctx, (-1,), 0)
    nu = conformal_vector(ctx)
    ep, em = charged_vacuum(ctx, 1), charged_vacuum(ctx, -1)
    assert find_locality_order(j, j, test_weight=2) == 2
    assert find_locality_order(j, ep, test_weight=2) == 1
    assert find_locality_order(nu, ep, test_weight=2) == 2
    assert find_locality_order(ep, ep, test_weight=2) == 0
    assert find_locality_order(ep, em, test_weight=2) == 4
    assert find_locality_order(nu, nu, test_weight=2) == 4


def test_locality_order_rejects_zero_operand():
    ctx = Context(N=2)
    ep, zero = charged_vacuum(ctx, 1), Vector.zero(ctx)
    for a, b in ((zero, ep), (ep, zero)):
        with pytest.raises(ValueError):
            find_locality_order(a, b, test_weight=1)


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
    # [Y(a,z), Y(b,w)] = sum_{j>=0} Y(a_(j) b, w) d^(j) delta(z-w)  (Kac 1998), so
    # the locality order is 1 + the largest j >= 0 with a_(j) b != 0, or 0 if none
    ops = _locality_operands(Context(n_lat))
    a, b = ops[left], ops[right]
    products = vertex_window(a, b, a.weight() + b.weight() - 1)
    top = max((j for j in products if j >= 0), default=-1)
    assert find_locality_order(a, b, test_weight=2) == top + 1


def test_mode_request_round_trip():
    ctx = Context(N=2)
    ep = charged_vacuum(ctx, 1)
    em = charged_vacuum(ctx, -1)
    req = {
        "N": 2,
        "n": 2,
        "a": vector_to_json(ep),
        "b": vector_to_json(em),
    }
    out = mode_request(req)
    assert out["weight_check"] is True
    assert out["result"] == vector_to_json(mono(ctx, (-1,), 0, 2))

    with pytest.raises(ContextMismatchError):
        mode_request({"N": 3, "n": 0, "a": vector_to_json(ep), "b": vector_to_json(em)})


def test_mode_request_rejects_non_integer_mode():
    ctx = Context(N=2)
    ep, em = charged_vacuum(ctx, 1), charged_vacuum(ctx, -1)
    req = {"N": 2, "a": vector_to_json(ep), "b": vector_to_json(em)}
    with pytest.raises(ValueError):
        mode_request(req)
    for n in (1.5, "2", None, True):
        with pytest.raises(ValueError):
            mode_request({**req, "n": n})


@pytest.mark.parametrize(
    "request_",
    [[], "x", None, {"N": "2"}, {"N": None}, {"N": True}],
    ids=["list", "string", "null", "string-N", "null-N", "boolean-N"],
)
def test_mode_request_rejects_malformed_request(request_):
    # malformed input is a plain ValueError, not the context-error subclass
    ctx = Context(N=2)
    if isinstance(request_, dict):
        request_ = {
            "n": 1,
            "a": vector_to_json(charged_vacuum(ctx, 1)),
            "b": vector_to_json(charged_vacuum(ctx, -1)),
            **request_,
        }
    with pytest.raises(ValueError) as exc:
        mode_request(request_)
    assert not isinstance(exc.value, ContextMismatchError)


@pytest.mark.parametrize("missing", ["a", "b"])
def test_mode_request_rejects_missing_operand(missing):
    ctx = Context(N=2)
    req = {
        "N": 2,
        "n": 1,
        "a": vector_to_json(charged_vacuum(ctx, 1)),
        "b": vector_to_json(charged_vacuum(ctx, -1)),
    }
    del req[missing]
    with pytest.raises(ValueError, match="vector JSON"):
        mode_request(req)
