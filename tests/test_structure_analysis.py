"""Structure analysis: primaries, characters, fixed points, closure, certificates."""

import hashlib
import importlib
import json
import pkgutil
from fractions import Fraction
from itertools import product
from time import monotonic

import pytest

from voa.linalg import EchelonSpan, operator_kernel
from voa.scalars import ConductorError, Context, ContextMismatchError, scalar_from_json
from voa.state_space import (
    Vector,
    apply_flip,
    apply_torus,
    charge_pair_vector,
    charged_vacuum,
    conformal_vector,
    enumerate_basis,
    inner_product,
    partition_count,
    partitions_of,
    split_virasoro_vector,
    vacuum,
    vector_from_json,
    vector_to_json,
    weight4_primary,
)
from voa import structure_analysis, vertex_engine
from voa.structure_analysis import (
    CertificateRefused,
    _bracket_cases,
    _identity_row,
    _unit_pool,
    _virasoro_table,
    axiom_report,
    certify_virasoro_vector,
    close_subalgebra,
    fixed_point_subspace,
    omega_residuals,
    primary_basis,
    project_conformal,
    quasi_primary_basis,
    sl2_zero_mode_check,
    solve_omega_constraint,
    verify_decomposition,
    verify_w_tensor_split,
    virasoro_character,
)
from voa.vertex_engine import (
    _mk_mono,
    _mono_products,
    heis_apply,
    vertex_mode,
    vertex_window,
    virasoro_apply,
    virasoro_field_of,
)


def test_primary_basis_charge_vacua_at_weight_three():
    ctx = Context(N=3)
    vectors = primary_basis(ctx, 3)
    assert len(vectors) == 2
    span = EchelonSpan(ctx)
    for v in vectors:
        span.add(v)
    assert span.contains(charged_vacuum(ctx, 1))
    assert span.contains(charged_vacuum(ctx, -1))


def test_primary_basis_weight_four_is_the_quartic_line():
    ctx = Context(N=3)
    vectors = primary_basis(ctx, 4)
    assert len(vectors) == 1
    span = EchelonSpan(ctx)
    span.add(vectors[0])
    assert span.contains(weight4_primary(ctx))


def test_primary_basis_weight_two_is_empty_in_charge_zero_range():
    # no weight-2 primaries at N = 3: nu fails L_2 and nothing else survives L_1
    assert primary_basis(Context(N=3), 2) == []


def test_primaries_survive_higher_raising_modes():
    # found via L_1 and L_2 only; check L_3..L_6 kill them too
    for n_lat, weight in [(3, 3), (3, 4), (2, 4), (5, 5)]:
        ctx = Context(N=n_lat)
        for v in primary_basis(ctx, weight):
            for m in range(1, 7):
                assert virasoro_apply(m, v).is_zero(), (n_lat, weight, m)


@pytest.mark.parametrize("n_lat", [1, 3, 5])
def test_quasi_primary_weight_two_is_conformal_line(n_lat):
    ctx = Context(N=n_lat)
    vectors = quasi_primary_basis(ctx, 2)
    assert len(vectors) == 1
    span = EchelonSpan(ctx)
    span.add(vectors[0])
    assert span.contains(conformal_vector(ctx))


def test_quasi_primary_weight_two_splits_at_n_two():
    ctx = Context(N=2)
    vectors = quasi_primary_basis(ctx, 2)
    assert len(vectors) == 3
    span = EchelonSpan(ctx)
    for v in vectors:
        span.add(v)
    for probe in (conformal_vector(ctx), charged_vacuum(ctx, 1), charged_vacuum(ctx, -1)):
        assert span.contains(probe)


@pytest.mark.parametrize(
    "group, probes",
    [("D1", ("pair", "nu")), ("T", ("nu",))],
    ids=["flip-fixed", "torus-fixed"],
)
def test_quasi_primary_basis_inside_an_ambient_subspace(group, probes):
    # only the ambient's weight-2 basis is searched: the flip-fixed space at
    # N = 2 keeps nu and e+ + e- but neither charged vacuum alone, the torus
    # fixed space keeps nu alone
    ctx = Context(N=2)
    vectors = quasi_primary_basis(ctx, 2, ambient=fixed_point_subspace(ctx, group, 4))
    assert len(vectors) == len(probes)
    span = EchelonSpan(ctx)
    for v in vectors:
        span.add(v)
    named = {"pair": charge_pair_vector(ctx), "nu": conformal_vector(ctx)}
    for probe in probes:
        assert span.contains(named[probe])


def test_quasi_primary_basis_of_an_empty_ambient_weight():
    # at N = 2 weight 1 holds only J_{-1}|0>, which the flip negates
    ctx = Context(N=2)
    assert quasi_primary_basis(ctx, 1, ambient=fixed_point_subspace(ctx, "Dinf", 2)) == []


def test_primary_basis_inside_an_ambient_subspace():
    # of the two weight-3 primaries e+ and e- at N = 3, the flip-fixed space
    # holds only their sum
    ctx = Context(N=3)
    vectors = primary_basis(ctx, 3, ambient=fixed_point_subspace(ctx, "D1", 3))
    assert len(vectors) == 1
    span = EchelonSpan(ctx)
    span.add(vectors[0])
    assert span.contains(charge_pair_vector(ctx))


def test_character_c1_h0_prefix():
    assert virasoro_character(1, 0, 6) == [1, 0, 1, 1, 2, 2, 4]


def test_character_c1_square_offsets():
    assert virasoro_character(1, 1, 6) == [0, 1, 1, 2, 2, 4, 5]
    assert virasoro_character(1, 4, 7) == [0, 0, 0, 0, 1, 1, 2, 3]


def test_character_c1_nonsquare_is_shifted_partition_count():
    dims = virasoro_character(1, 3, 9)
    assert dims == [0, 0, 0] + [partition_count(w) for w in range(7)]


def test_character_rejects_unsupported_parameters():
    with pytest.raises(ValueError):
        virasoro_character(1, -1, 4)
    with pytest.raises(ValueError):
        virasoro_character(1, Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        virasoro_character(Fraction(1, 2), 1, 4)
    with pytest.raises(ValueError):
        virasoro_character(Fraction(7, 10), 0, 4)


def test_character_c_half_matches_alternating_sum():
    # independent oracle: the (3,4) minimal-model vacuum character expands as
    # sum_n [q^{((24n+1)^2-1)/48} - q^{((24n+7)^2-1)/48}] / prod (1 - q^m)
    cut = 6
    expected = []
    for w in range(cut + 1):
        d = 0
        for n in range(-3, 4):
            for base, sign in ((24 * n + 1, 1), (24 * n + 7, -1)):
                e = (base * base - 1) // 48
                if w >= e:
                    d += sign * partition_count(w - e)
        expected.append(d)
    assert virasoro_character(Fraction(1, 2), 0, cut) == expected
    assert expected == [1, 0, 1, 1, 2, 2, 3]


def test_close_subalgebra_of_nothing_is_the_vacuum_line():
    assert close_subalgebra(Context(N=2), [], 6).dims() == [1, 0, 0, 0, 0, 0, 0]


def test_close_subalgebra_of_conformal_vector_gives_vacuum_character():
    ctx = Context(N=2)
    closed = close_subalgebra(ctx, [conformal_vector(ctx)], 8)
    assert closed.dims() == virasoro_character(1, 0, 8)


def _closure_family():
    """(key, ctx, generators, cutoff) for the pinned closure digest."""
    for n_lat in (1, 2, 3):
        ctx = Context(N=n_lat)
        yield f"{n_lat} nu", ctx, [conformal_vector(ctx)], 5
        yield f"{n_lat} J", ctx, [Vector.monomial(ctx, (-1,), 0)], 5
        yield f"{n_lat} e+ - e-", ctx, [charge_pair_vector(ctx, 1, -1)], 5
        yield f"{n_lat} nu, e+ + e-", ctx, [conformal_vector(ctx), charge_pair_vector(ctx, 1)], 5
        yield f"{n_lat} e+", ctx, [charged_vacuum(ctx, 1)], 4
    ctx = Context(N=2, conductor=8)
    yield "split 1/8", ctx, [split_virasoro_vector(ctx, 1, 8)], 5


@pytest.mark.parametrize(
    "n_lat, gens, cutoff",
    [
        (2, lambda c: [conformal_vector(c)], 6),
        (3, lambda c: [conformal_vector(c), charge_pair_vector(c, 1)], 6),
        # multiplying the earlier member on the left misses L_{-1} J here
        (1, lambda c: [Vector.monomial(c, (-1,), 0)], 2),
        (3, lambda c: [charged_vacuum(c, 1)], 4),
    ],
    ids=["nu", "nu+pair", "J", "e+"],
)
def test_close_subalgebra_is_mode_closed(n_lat, gens, cutoff):
    ctx = Context(N=n_lat)
    closed = close_subalgebra(ctx, gens(ctx), cutoff)
    pool = [v for w in range(cutoff + 1) for v in closed.weight_basis(w)]
    spans = {w: EchelonSpan(ctx) for w in range(cutoff + 1)}
    for w in range(cutoff + 1):
        for v in closed.weight_basis(w):
            spans[w].add(v)
    for x in pool:
        for y in pool:
            lo = x.weight() + y.weight() - 1 - cutoff
            for n, prod in vertex_window(x, y, lo=lo).items():
                assert spans[prod.weight()].contains(prod), (x, y, n)


CLOSURE_DIGEST = "81c9dcd169b87827240ff9f6509e0d73c8f680d38ea2c99ca21b1ff951eef09c"


def _closure_digest():
    # reduced echelon bases are canonical, so equal spans give equal bytes
    data = {}
    for key, ctx, gens, cutoff in _closure_family():
        sub = close_subalgebra(ctx, gens, cutoff)
        data[key] = {
            str(w): [vector_to_json(v) for v in sub.weight_basis(w)] for w in range(cutoff + 1)
        }
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def test_closure_golden_digest():
    assert _closure_digest() == CLOSURE_DIGEST


def test_closure_golden_digest_after_intern_eviction():
    # fill the kernel cache with the closure of each case's first generator,
    # then drop every interned monomial: the closure of nu and e+ + e- then
    # sums cached charge-zero blocks with charged blocks built anew, whose
    # keys are equal to, but not the same objects as, the cached ones
    _mono_products.cache_clear()
    for _, ctx, gens, cutoff in _closure_family():
        close_subalgebra(ctx, gens[:1], cutoff)
    _mk_mono.cache_clear()
    assert _closure_digest() == CLOSURE_DIGEST


def test_close_subalgebra_generator_corollary_matches_flip_fixed_points():
    ctx = Context(N=3)
    closed = close_subalgebra(ctx, [conformal_vector(ctx), charge_pair_vector(ctx, 1)], 8)
    assert closed.dims() == fixed_point_subspace(ctx, "D1", 8).dims()
    assert closed.dims() == [1, 0, 1, 2, 4, 5, 9, 12, 19]


def _worklist_only(monkeypatch):
    # the strong path declines every closure, so the worklist answers
    monkeypatch.setattr(structure_analysis, "_strong_closure", lambda *args: None)


def test_close_subalgebra_member_budget(monkeypatch):
    monkeypatch.setattr(structure_analysis, "MAX_CLOSURE_MEMBERS", 3)
    ctx = Context(N=5)
    with pytest.raises(RuntimeError, match="member budget"):
        close_subalgebra(ctx, [conformal_vector(ctx)], 5)


def test_close_subalgebra_time_budget(monkeypatch):
    # checked once per weight on the strong path: a zero budget stops the
    # closure at weight 0, after the checks s_(j) t but before W takes any
    # product
    monkeypatch.setattr(structure_analysis, "MAX_CLOSURE_SECONDS", 0.0)
    ctx = Context(N=6)
    with pytest.raises(structure_analysis.ClosureBudgetError, match="time budget"):
        close_subalgebra(ctx, [conformal_vector(ctx)], 5)


@pytest.mark.parametrize(
    "budget, value, message",
    [("MAX_CLOSURE_MEMBERS", 3, "member budget of 3"), ("MAX_CLOSURE_SECONDS", 0.0, "time budget")],
)
def test_worklist_closure_keeps_both_budgets(monkeypatch, budget, value, message):
    # the time is checked once per worklist member: a zero budget stops the
    # closure as it takes up its first member
    _worklist_only(monkeypatch)
    monkeypatch.setattr(structure_analysis, budget, value)
    ctx = Context(N=5)
    with pytest.raises(structure_analysis.ClosureBudgetError, match=message):
        close_subalgebra(ctx, [conformal_vector(ctx)], 5)


def test_closure_budget_error_is_a_value_error(monkeypatch):
    monkeypatch.setattr(structure_analysis, "MAX_CLOSURE_MEMBERS", 3)
    ctx = Context(N=6)
    with pytest.raises(ValueError, match="member budget of 3"):
        close_subalgebra(ctx, [conformal_vector(ctx)], 5)


def _unreachable_bound(ctx, generators, cutoff):
    # an oracle closure: no rank reaches this bound, so the worklist runs to its end
    return [structure_analysis.MAX_CLOSURE_MEMBERS + 1] * (cutoff + 1)


def _unit_phase(ctx):
    # (3 + 4i)/5 has modulus 1 and is not a root of unity
    return (ctx.from_fraction(3) + ctx.i() * 4) * Fraction(1, 5)


# (N, generators, cutoff, group whose fixed-point dims are the bound, whether
# the closure reaches its bound); a bound that is reached stops the closure early
BOUND_CASES = {
    "Z2: e^{2 alpha}, no flip": (2, lambda c: [charged_vacuum(c, 2)], 6, "Z2", True),
    "T: J alone": (2, lambda c: [Vector.monomial(c, (-1,), 0)], 6, "T", True),
    "D1 with s = -1": (
        3, lambda c: [conformal_vector(c), charge_pair_vector(c, 1, -1)], 6, "D1", True
    ),
    "D1 with s = (3 + 4i)/5": (
        3, lambda c: [conformal_vector(c), charge_pair_vector(c, 1, _unit_phase(c))], 6, "D1", True
    ),
    "|s| = 2 refuses the flip": (1, lambda c: [charge_pair_vector(c, 1, 2)], 4, "Z1", True),
    "J is moved by the flip": (
        1, lambda c: [charge_pair_vector(c, 1), Vector.monomial(c, (-1,), 0)], 4, "Z1", True
    ),
    # k = 1, but no term has charge +-1 to read s off, so the flip is left
    # out: the bound is Z1's, the dims of V, not the smaller ones of D1
    "charges 2 and -3: no term at +-k": (
        1, lambda c: [charged_vacuum(c, 2), charged_vacuum(c, -3)], 4, "Z1", True
    ),
    "nu below Dinf": (3, lambda c: [conformal_vector(c)], 7, "Dinf", False),
    "c = 1/2 below D1": (2, lambda c: [split_virasoro_vector(c)], 6, "D1", False),
}


@pytest.mark.parametrize(
    "n_lat, gens, cutoff, group, reaches", BOUND_CASES.values(), ids=BOUND_CASES.keys()
)
def test_closure_stopped_at_its_bound_matches_the_full_closure(
    monkeypatch, n_lat, gens, cutoff, group, reaches
):
    _worklist_only(monkeypatch)
    ctx = Context(N=n_lat)
    generators = gens(ctx)
    bound = structure_analysis._closure_bound(ctx, generators, cutoff)
    assert bound == fixed_point_subspace(ctx, group, cutoff).dims()
    early = close_subalgebra(ctx, generators, cutoff)
    monkeypatch.setattr(structure_analysis, "_closure_bound", _unreachable_bound)
    full = close_subalgebra(ctx, generators, cutoff)
    for w in range(cutoff + 1):
        assert early.weight_basis(w) == full.weight_basis(w), w
    assert all(d <= b for d, b in zip(full.dims(), bound))
    assert (full.dims() == bound) is reaches


@pytest.mark.parametrize("phase", [1, -1])
def test_closure_stopped_at_its_bound_makes_fewer_windows(monkeypatch, phase):
    # the closure workload's inputs: nu and e_+ + b e_- at N = 3, cutoff 7
    _worklist_only(monkeypatch)
    ctx = Context(N=3)
    generators = [conformal_vector(ctx), charge_pair_vector(ctx, 1, phase)]
    calls = []

    def counting_window(*args, **kwargs):
        calls.append(args)
        return vertex_window(*args, **kwargs)

    monkeypatch.setattr(structure_analysis, "vertex_window", counting_window)
    early = close_subalgebra(ctx, generators, 7)
    early_calls = len(calls)
    monkeypatch.setattr(structure_analysis, "_closure_bound", _unreachable_bound)
    full = close_subalgebra(ctx, generators, 7)
    assert early_calls < len(calls) - early_calls
    for w in range(8):
        assert early.weight_basis(w) == full.weight_basis(w), w


def _closure_bytes(sub):
    return [
        json.dumps([vector_to_json(v) for v in sub.weight_basis(w)]) for w in range(sub.cutoff + 1)
    ]


def _closure_sha256(sub):
    data = {str(w): [vector_to_json(v) for v in sub.weight_basis(w)] for w in range(sub.cutoff + 1)}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def _j2(ctx):
    return Vector.monomial(ctx, (-2,), 0)


# (N, generators, cutoff) that the strong path closes
STRONG_CASES = {
    "closure workload b = 1": (3, lambda c: [conformal_vector(c), charge_pair_vector(c, 1)], 7),
    "closure workload b = -1": (3, lambda c: [conformal_vector(c), charge_pair_vector(c, 1, -1)], 7),
    "criterion 9": (3, lambda c: [conformal_vector(c), charge_pair_vector(c, 1)], 8),
    "e+ N1 4": (1, lambda c: [charged_vacuum(c, 1)], 4),
    "e+ N1 6": (1, lambda c: [charged_vacuum(c, 1)], 6),
    "e+ N2 6": (2, lambda c: [charged_vacuum(c, 1)], 6),
    "e+ N3 6": (3, lambda c: [charged_vacuum(c, 1)], 6),
    "nu N3 5": (3, lambda c: [conformal_vector(c)], 5),
    "nu N3 7": (3, lambda c: [conformal_vector(c)], 7),
    "c = 1/2 6": (2, lambda c: [split_virasoro_vector(c)], 6),
    # the s_(j) t checks put J, at weight 1, into S: without them W misses it
    "e^alpha N3 5": (3, lambda c: [charged_vacuum(c, 1)], 5),
    "e+ + e- N4 8": (4, lambda c: [charge_pair_vector(c, 1)], 8),
    "J_-2 N1 6": (1, lambda c: [_j2(c)], 6),
    "e+ + J_-2 N2 6": (2, lambda c: [charged_vacuum(c, 1) + _j2(c)], 6),
    "pair with phase i N3 7": (3, lambda c: [charge_pair_vector(c, 1, c.i())], 7),
    "J_-2 J_-1 N2 6": (2, lambda c: [Vector.monomial(c, (-2, -1), 0)], 6),
    "no generators below weight 0": (2, lambda c: [], -1),
}


@pytest.mark.parametrize("n_lat, gens, cutoff", STRONG_CASES.values(), ids=STRONG_CASES.keys())
def test_strong_closure_matches_the_worklist(monkeypatch, n_lat, gens, cutoff):
    ctx = Context(N=n_lat)
    assert structure_analysis._strong_closure(ctx, gens(ctx), cutoff, monotonic()) is not None
    strong = close_subalgebra(ctx, gens(ctx), cutoff)
    _worklist_only(monkeypatch)
    assert _closure_bytes(strong) == _closure_bytes(close_subalgebra(ctx, gens(ctx), cutoff))


# the worklist's digests of closures it takes 5-16 s per case to build, read
# off the worklist alone with _closure_sha256; the strong path takes under 0.5 s
WORKLIST_DIGESTS = {
    "e+ N1 8": (
        1, lambda c: [charged_vacuum(c, 1)], 8,
        "1e3a7b6b1ae30f62df3497b6cb1e7ed5452363fc043bfe7b9ba13d1b39788a00",
    ),
    "e+ N2 8": (
        2, lambda c: [charged_vacuum(c, 1)], 8,
        "af75d5ca4ce1c532a45339ce1036228110f14cfbb2d36e744d6862f32f63a97c",
    ),
    "e+ N3 8": (
        3, lambda c: [charged_vacuum(c, 1)], 8,
        "8d710dd50c4847390cac206ea8967508fe5f9c393dbed40c7c295b97ce77dbe0",
    ),
    "c = 1/2 8": (
        2, lambda c: [split_virasoro_vector(c)], 8,
        "601759c28c3553ebcac1d93f81c8c472a656cb7dafb34f5ced6d3566831e1a5a",
    ),
}


@pytest.mark.parametrize(
    "n_lat, gens, cutoff, digest", WORKLIST_DIGESTS.values(), ids=WORKLIST_DIGESTS.keys()
)
def test_strong_closure_matches_the_worklist_digest(n_lat, gens, cutoff, digest):
    ctx = Context(N=n_lat)
    assert structure_analysis._strong_closure(ctx, gens(ctx), cutoff, monotonic()) is not None
    assert _closure_sha256(close_subalgebra(ctx, gens(ctx), cutoff)) == digest


def test_strong_closure_windows_each_row_once_per_generator(monkeypatch):
    # W is made once and only grows, and a row of W is windowed only with the
    # elements of S it has not met: e_+ at N = 1, cutoff 8 closes with
    # S = {e_+, e_-, J}, so it makes at most 3 rank(W) build windows (lo < 0;
    # the checks read lo = 0)
    ctx = Context(N=1)
    build = []

    def counting_window(*args, **kwargs):
        build.append(kwargs["lo"] < 0)
        return vertex_window(*args, **kwargs)

    monkeypatch.setattr(structure_analysis, "vertex_window", counting_window)
    closed = close_subalgebra(ctx, [charged_vacuum(ctx, 1)], 8)
    assert closed.total_dim() == 181
    assert sum(build) <= 3 * closed.total_dim()


FALLBACK_CASES = {
    # S grows to weights {2, 3, 4}, and 4_(0) 4 lands at weight 7
    "a check above the cutoff": (
        3, lambda c: [conformal_vector(c), charge_pair_vector(c, 1)], 6
    ),
    "a generator above the cutoff": (2, lambda c: [charged_vacuum(c, 2)], 7),
}


@pytest.mark.parametrize("n_lat, gens, cutoff", FALLBACK_CASES.values(), ids=FALLBACK_CASES.keys())
def test_closure_falls_back_to_the_worklist(monkeypatch, n_lat, gens, cutoff):
    ctx = Context(N=n_lat)
    assert structure_analysis._strong_closure(ctx, gens(ctx), cutoff, monotonic()) is None
    closed = close_subalgebra(ctx, gens(ctx), cutoff)
    _worklist_only(monkeypatch)
    assert _closure_bytes(closed) == _closure_bytes(close_subalgebra(ctx, gens(ctx), cutoff))


def test_character_c_half_matches_the_ising_product():
    # independent oracle (Rocha-Caridi 1985): the vacuum character of
    # L(1/2, 0) is the integer-power part of prod_{k >= 0} (1 + q^{k + 1/2});
    # coeffs[e] counts the power q^{e/2}
    cut = 12
    coeffs = [1] + [0] * (2 * cut)
    for odd in range(1, 2 * cut + 1, 2):
        for e in range(2 * cut, odd - 1, -1):
            coeffs[e] += coeffs[e - odd]
    assert virasoro_character(Fraction(1, 2), 0, cut) == coeffs[::2]


def test_closure_of_e_plus_is_the_whole_space():
    ctx = Context(N=1)
    closed = close_subalgebra(ctx, [charged_vacuum(ctx, 1)], 10)
    whole = fixed_point_subspace(ctx, "Z1", 10)
    for w in range(11):
        assert closed.weight_basis(w) == whole.weight_basis(w), w


def test_project_conformal_recovers_generators():
    ctx = Context(N=2)
    w_nu = close_subalgebra(ctx, [conformal_vector(ctx)], 4)
    assert project_conformal(w_nu) == conformal_vector(ctx)
    w0 = split_virasoro_vector(ctx)
    w_half = close_subalgebra(ctx, [w0], 4)
    assert project_conformal(w_half) == w0
    empty = close_subalgebra(ctx, [], 4)
    assert project_conformal(empty).is_zero()


def _sha256(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def test_virasoro_kernels_and_projection_digests():
    # bytes recorded before linalg's kernels moved onto EchelonSpan: a
    # kernel basis is reduced echelon over the reversed domain order, so
    # these pin each returned vector, not only the span
    data = {}
    for n_lat in (1, 2, 3, 5):
        ctx = Context(N=n_lat)
        for w in range(1, 6):
            data[f"qp-N{n_lat}-w{w}"] = [vector_to_json(v) for v in quasi_primary_basis(ctx, w)]
            data[f"pr-N{n_lat}-w{w}"] = [vector_to_json(v) for v in primary_basis(ctx, w)]
    ctx = Context(N=2)
    for group in ("D1", "T"):
        ambient = fixed_point_subspace(ctx, group, 5)
        for w in range(1, 6):
            qp = quasi_primary_basis(ctx, w, ambient)
            data[f"qp-{group}-w{w}"] = [vector_to_json(v) for v in qp]
            data[f"pr-{group}-w{w}"] = [vector_to_json(v) for v in primary_basis(ctx, w, ambient)]
    assert _sha256(data) == "be6f0d296c8f472ca9ba6547cfc7a356b7751a59578a4cd575b1759e626026ab"
    gens = ([conformal_vector(ctx)], [split_virasoro_vector(ctx)], [])
    projected = [vector_to_json(project_conformal(close_subalgebra(ctx, g, 4))) for g in gens]
    assert _sha256(projected) == "2d9658a5dc7c9acb94912b4b4e2119089258bfe7a8bdbc4f9256fe2546814058"


def test_fixed_points_torus_is_charge_zero_fock_space():
    for n_lat in (1, 2, 3):
        fixed = fixed_point_subspace(Context(N=n_lat), "T", 6)
        assert fixed.dims() == [partition_count(w) for w in range(7)]


def test_cached_fixed_points_cannot_be_mutated():
    fixed = fixed_point_subspace(Context(N=1), "T", 4)
    with pytest.raises(AttributeError):
        fixed.basis_by_weight[2].clear()
    with pytest.raises(TypeError):
        fixed.basis_by_weight[2] = []
    fixed.weight_basis(2).clear()
    assert fixed_point_subspace(Context(N=1), "T", 4).dims() == [1, 1, 2, 3, 5]


# lru_caches whose key domain is bounded whatever the input, with the reason
BOUNDED_KEY_CACHES = {
    "voa.scalars._cyclotomic": "keyed on the divisors of a conductor <= MAX_CONDUCTOR",
}


def test_input_keyed_caches_are_bounded():
    # every lru_cache defined in a voa module, found by scanning the modules
    import voa

    caches = {}
    for info in pkgutil.iter_modules(voa.__path__):
        module = importlib.import_module(f"voa.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = value
    assert {"voa.vertex_engine._mono_products", "voa.scalars._sqrt_fold"} <= caches.keys()
    assert BOUNDED_KEY_CACHES.keys() <= caches.keys()
    unbounded = [
        name
        for name, cached in caches.items()
        if cached.cache_info().maxsize is None and name not in BOUNDED_KEY_CACHES
    ]
    assert not unbounded


@pytest.mark.parametrize(
    "build",
    [
        lambda: close_subalgebra(Context(N=1), [conformal_vector(Context(N=1))], 4),
        lambda: fixed_point_subspace(Context(N=1), "T", 3),
    ],
    ids=["closure", "fixed"],
)
@pytest.mark.parametrize("access", ["weight_basis", "basis_by_weight"])
def test_editing_a_returned_basis_vector_changes_no_later_answer(build, access):
    def as_json(sub):
        return [[vector_to_json(v) for v in sub.weight_basis(w)] for w in range(sub.cutoff + 1)]

    first = build()
    expected = as_json(first)
    vector = first.weight_basis(2)[0] if access == "weight_basis" else first.basis_by_weight[2][0]
    vector.terms.clear()
    assert as_json(build()) == expected


def test_fixed_points_dihedral_infinity_counts_even_length_partitions():
    fixed = fixed_point_subspace(Context(N=2), "Dinf", 6)
    assert fixed.dims() == [1, 0, 1, 1, 3, 3, 6]


def test_fixed_points_cyclic_matches_rescaled_lattice():
    for n_lat, k, conductor in [(1, 2, 4), (1, 3, 12), (2, 2, 4)]:
        ctx = Context(N=n_lat, conductor=conductor)
        fixed = fixed_point_subspace(ctx, f"Z{k}", 6)
        target = Context(N=n_lat * k * k)
        assert fixed.dims() == [len(enumerate_basis(target, w)) for w in range(7)]


def test_fixed_points_trivial_rotation_is_everything():
    ctx = Context(N=2)
    fixed = fixed_point_subspace(ctx, "Z1", 5)
    assert fixed.dims() == [len(enumerate_basis(ctx, w)) for w in range(6)]


def test_fixed_points_conjugated_dihedral_properties():
    ctx = Context(N=2, conductor=8)
    plain = fixed_point_subspace(ctx, "D2", 5)
    moved = fixed_point_subspace(ctx, "D2", 5, t=(1, 8))
    assert moved.dims() == plain.dims()
    for w in range(6):
        for v in moved.weight_basis(w):
            assert apply_torus(v, 1, 2) == v
            conj_flip = apply_torus(apply_flip(apply_torus(v, -1, 8)), 1, 8)
            assert conj_flip == v


def _fixed_points_by_elimination(ctx, group, cutoff, t):
    """Reference: the joint kernel of A - id over the unit vectors (charge 0
    only for T and Dinf), rotated by t and reduced through EchelonSpan."""
    kind, k = structure_analysis._parse_group(group)
    ops = []
    if k:
        ops.append(lambda v: apply_torus(v, 1, k) - v)
    if kind in ("Dinf", "D"):
        ops.append(lambda v: apply_flip(v) - v)
    out = {}
    for w in range(cutoff + 1):
        domain = [Vector(ctx, {m: 1}) for m in enumerate_basis(ctx, w) if k or m.charge == 0]
        span = EchelonSpan(ctx)
        for v in operator_kernel(ctx, domain, ops):
            span.add(v if t is None else apply_torus(v, *t))
        out[w] = span.vectors()
    return out


def _fixed_point_grid():
    groups = ("T", "Dinf", "Z1", "Z2", "Z3", "Z4", "Z6", "D1", "D2", "D3", "D4", "D6")
    angles = (None, (1, 8), (1, 12), (1, 3), (3, 8), (2, 3))
    for n_lat, conductor in product((1, 2, 3), (4, 8, 12, 24)):
        ctx = Context(N=n_lat, conductor=conductor)
        for group, t in product(groups, angles):
            kind, k = structure_analysis._parse_group(group)
            if conductor % (k or 1) or (t is not None and (kind != "D" or conductor % t[1])):
                continue
            yield ctx, group, t


def test_fixed_points_match_elimination_reference():
    cutoff = 6
    cases = 0
    for ctx, group, t in _fixed_point_grid():
        cases += 1
        fixed = fixed_point_subspace(ctx, group, cutoff, t)
        reference = _fixed_points_by_elimination(ctx, group, cutoff, t)
        assert [fixed.weight_basis(w) for w in range(cutoff + 1)] == [
            reference[w] for w in range(cutoff + 1)
        ], (ctx, group, t)
        kind, k = structure_analysis._parse_group(group)
        p, q = (0, 1) if t is None else t
        for w in range(cutoff + 1):
            for v in fixed.weight_basis(w):
                # T and Dinf hold the whole torus: the generic rotation 2 pi / n fixes v too
                assert apply_torus(v, 1, k or ctx.conductor) == v
                if kind in ("Dinf", "D"):
                    assert apply_torus(apply_flip(apply_torus(v, -p, q)), p, q) == v
    assert cases == 258


def test_fixed_point_kernels_digest():
    # the raw operator_kernel bases of A - id behind the elimination
    # reference, once per (context, group): the angle only rotates them
    seen = set()
    data = []
    for ctx, group, _ in _fixed_point_grid():
        if (ctx, group) in seen:
            continue
        seen.add((ctx, group))
        kind, k = structure_analysis._parse_group(group)
        ops = []
        if k:
            ops.append(lambda v, k=k: apply_torus(v, 1, k) - v)
        if kind in ("Dinf", "D"):
            ops.append(lambda v: apply_flip(v) - v)
        for w in range(7):
            domain = [Vector(ctx, {m: 1}) for m in enumerate_basis(ctx, w) if k or m.charge == 0]
            data.append([vector_to_json(v) for v in operator_kernel(ctx, domain, ops)])
    assert len(seen) == 120
    assert _sha256(data) == "d1506a08eb64184411bd86096f15fbd40d73c3307083efac74e060de5010d29d"


def test_closure_of_nu_and_charge_pair_is_the_flip_fixed_basis():
    # both bases are reduced echelon over the canonical monomial order
    for n_lat in (2, 3):
        ctx = Context(N=n_lat)
        closed = close_subalgebra(ctx, [conformal_vector(ctx), charge_pair_vector(ctx, 1)], 6)
        fixed = fixed_point_subspace(ctx, "D1", 6)
        for w in range(7):
            assert closed.weight_basis(w) == fixed.weight_basis(w), (n_lat, w)


def test_fixed_points_at_conductor_400():
    # Z100 at N = 1 is the lattice at N = 10000: no charged state below weight 16
    ctx = Context(N=1, conductor=400)
    cyclic = fixed_point_subspace(ctx, "Z100", 16)
    assert cyclic.dims() == [partition_count(w) for w in range(17)]
    assert cyclic.total_dim() == 915
    # D100 keeps the even-length partitions at charge 0, however it is conjugated
    dihedral = fixed_point_subspace(ctx, "D100", 16, t=(1, 400))
    even = [sum(1 for lam in partitions_of(w) if len(lam) % 2 == 0) for w in range(17)]
    assert dihedral.dims() == even
    assert dihedral.total_dim() == 459


def test_fixed_points_golden_digest():
    # the kernels of A - id at conductors 8, 12, 20 and 24 invert scalars
    # of Q(zeta_n) with phi(n) = 4 and 8; reduced echelon bases are canonical
    cases = [
        ("N1-n12-D3", Context(N=1, conductor=12), "D3", (1, 3)),
        ("N1-n20-Z5", Context(N=1, conductor=20), "Z5", None),
        ("N1-n24-D6", Context(N=1, conductor=24), "D6", (1, 12)),
        ("N2-n8-D4", Context(N=2, conductor=8), "D4", (1, 8)),
    ]
    data = {}
    for key, ctx, group, t in cases:
        fixed = fixed_point_subspace(ctx, group, 5, t)
        data[key] = {str(w): [vector_to_json(v) for v in fixed.weight_basis(w)] for w in range(6)}
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == "b9b371e9b401501b06d9d7c7564f8c53ccd36e190e8b7192bcf54af8ea877dd3"


def test_fixed_points_group_name_and_conductor_errors():
    with pytest.raises(ValueError):
        fixed_point_subspace(Context(N=1), "Q8", 4)
    with pytest.raises(ValueError):
        fixed_point_subspace(Context(N=1), "T", 4, t=(1, 4))
    with pytest.raises(ConductorError):
        fixed_point_subspace(Context(N=1), "Z3", 4)


def test_decomposition_reports_verify_at_n_three():
    ctx = Context(N=3)
    for which in ("V", "M1", "V+", "M1+"):
        report = verify_decomposition(ctx, which, 6)
        assert report.verdict, which
        assert [r["ok"] for r in report.rows] == [True] * 7
    vplus = verify_decomposition(ctx, "V+", 6)
    assert [r["lhs"] for r in vplus.rows] == [1, 0, 1, 2, 4, 5, 9]


def test_decomposition_requires_nonsquare_charged_sectors():
    with pytest.raises(ValueError):
        verify_decomposition(Context(N=4), "V", 4)
    with pytest.raises(ValueError):
        verify_decomposition(Context(N=1), "V+", 4)
    # the charge-zero identities hold for any N
    assert verify_decomposition(Context(N=4), "M1", 6).verdict
    assert verify_decomposition(Context(N=1), "M1+", 6).verdict


def test_decomposition_report_json_shape():
    data = verify_decomposition(Context(N=3), "M1", 4).to_json()
    assert data["check"] == "decomposition:M1"
    assert data["params"] == {"N": 3, "cutoff": 4}
    assert data["verdict"] is True
    assert data["per_weight"][2] == {"w": 2, "lhs": 2, "rhs": 2, "ok": True}


def test_certify_conformal_vector_central_charge_one():
    cert = certify_virasoro_vector(conformal_vector(Context(N=2)), 1, cutoff=4)
    assert cert.params["central_charge"] == [1, 1]
    row = cert.rows[0]
    assert row["basis_dimension"] == sum(len(enumerate_basis(Context(N=2), w)) for w in range(5))
    assert row["relations_checked"] > 0
    assert cert.to_json() == {
        "check": "virasoro-certificate",
        "params": {"central_charge": [1, 1], "cutoff": 4, "mode_range": 3},
        "rows": [{"basis_dimension": 20, "ok": True, "relations_checked": 425}],
        "verdict": True,
    }


def test_certificate_with_no_bracket_pairs_checks_only_omega():
    # mode_range 0 leaves no (m, n) pair, so no table bound is asked for
    ctx = Context(N=2)
    assert list(_bracket_cases(None, None, _unit_pool(ctx, 2), [])) == []
    cert = certify_virasoro_vector(conformal_vector(ctx), 1, cutoff=2, mode_range=0)
    assert cert.rows == [{"basis_dimension": 6, "relations_checked": 5, "ok": True}]


def test_certify_split_vectors_central_charge_half():
    ctx = Context(N=2)
    for vec in (split_virasoro_vector(ctx, 0, 1), split_virasoro_vector(ctx, 1, 2)):
        cert = certify_virasoro_vector(vec, Fraction(1, 2), cutoff=4)
        assert cert.params["central_charge"] == [1, 2]


def test_certify_refuses_scaled_conformal_vector():
    ctx = Context(N=2)
    with pytest.raises(CertificateRefused) as info:
        certify_virasoro_vector(conformal_vector(ctx).scale(2), 1, cutoff=2)
    assert info.value.relation.startswith("L_0")
    assert not info.value.defect.is_zero()


def test_certify_refuses_wrong_central_charge():
    ctx = Context(N=2)
    with pytest.raises(CertificateRefused) as info:
        certify_virasoro_vector(conformal_vector(ctx), 2, cutoff=2)
    assert "(c/2) vacuum" in info.value.relation


def test_certify_rejects_inhomogeneous_candidates():
    ctx = Context(N=2)
    with pytest.raises(ValueError):
        certify_virasoro_vector(vacuum(ctx), 1, cutoff=2)


def test_omega_constraint_system_and_samples():
    report = solve_omega_constraint(Context(N=2))
    assert report.verdict
    assert report.params["equations"] == 3
    assert report.rows[0]["ok"] is True


def test_omega_constraint_solution_circle_conductor_eight():
    ctx = Context(N=2, conductor=8)
    for k in range(8):
        b = ctx.zeta(k) * Fraction(1, 4)
        residuals = omega_residuals(ctx, Fraction(1, 2), b)
        assert all(r.is_zero() for r in residuals), k
    # the report carries the circle as one row per k at conductor 8 only
    circle = [f"a = 1/2, b = zeta_8^{k}/4 solves" for k in range(8)]
    report = solve_omega_constraint(ctx)
    assert report.verdict
    assert [r.get("relation") for r in report.rows[-8:]] == circle
    assert all(r["ok"] for r in report.rows[-8:])
    assert not any("zeta_8" in str(r) for r in solve_omega_constraint(Context(N=2)).rows)


def test_omega_constraint_rejects_off_circle_points():
    ctx = Context(N=2)
    residuals = omega_residuals(ctx, Fraction(1, 2), Fraction(1, 2))
    assert any(not r.is_zero() for r in residuals)
    residuals = omega_residuals(ctx, Fraction(1, 3), Fraction(1, 4))
    assert any(not r.is_zero() for r in residuals)


def test_omega_constraint_needs_n_two():
    with pytest.raises(ValueError):
        solve_omega_constraint(Context(N=3))


def test_tensor_split_report():
    report = verify_w_tensor_split(Context(N=2), cutoff=4)
    assert report.verdict
    assert report.rows[0] == {"relation": "omega_0 + omega_pi = nu", "ok": True}
    assert report.rows[1]["ok"] is True
    assert report.rows[1]["checked"] > 0


def test_sl2_zero_mode_report():
    report = sl2_zero_mode_check()
    assert report.verdict
    by_name = {row["relation"]: row["ok"] for row in report.rows}
    assert by_name["[H, E] = 2E"]
    assert by_name["[E, F] = H"]
    assert by_name["weight-one basis orthonormal"]
    assert by_name["[a_(0), b_(0)] = (a_(0) b)_(0)"]


def test_sl2_check_needs_n_one():
    with pytest.raises(ValueError):
        sl2_zero_mode_check(Context(N=2))


def test_sl2_operator_row_names_witness_of_broken_zero_mode(monkeypatch):
    # u -> a_(0) u + u reaches the zero-mode images of v and the brackets,
    # which are Vectors; their own zero modes are read in ints, unpatched,
    # so the defect is p_(0) v - 2 q_(0) v, and the row fails on the first
    # vector that a zero mode does not kill
    monkeypatch.setattr(
        structure_analysis, "vertex_mode", lambda a, n, b: vertex_mode(a, n, b) + b
    )
    ctx = Context(N=1)
    row = sl2_zero_mode_check(ctx, 1).rows[-1]
    assert row["relation"] == "[a_(0), b_(0)] = (a_(0) b)_(0)"
    assert row["ok"] is False
    assert row["checked"] == 9 * len(_unit_pool(ctx, 1))
    assert set(row["witness"]) == {"vector", "m", "n"}
    assert (row["witness"]["m"], row["witness"]["n"]) == (0, 0)
    assert row["defect"]["terms"]


@pytest.fixture
def off_by_one(monkeypatch):
    """Installs a kernel whose entry for one monomial pair has one numerator
    off by one: the first monomial of the pair's top mode, on every read."""
    real = vertex_engine._mono_products

    def install(target):
        def perturbed(ctx, a, b, lo):
            den, blocks = real(ctx, a, b, lo)
            if (a, b) != target or not blocks:
                return den, blocks
            n = max(blocks)
            block = dict(blocks[n])
            block[min(block)] += 1
            return den, {**blocks, n: block}

        # the pair's flip partner caches its image of the perturbed entry,
        # so the cache starts and ends empty
        real.cache_clear()
        monkeypatch.setattr(vertex_engine, "_mono_products", perturbed)

    yield install
    real.cache_clear()


J1, JJ, EPLUS = _mk_mono(0, (-1,)), _mk_mono(0, (-1, -1)), _mk_mono(1, ())


# the failing relation, rows and defects below were recorded while every
# identity check still built a Scalar per window entry
def test_perturbed_kernel_refuses_the_half_certificate_on_a_bracket(off_by_one):
    off_by_one((JJ, J1))
    omega = split_virasoro_vector(Context(2, 8), 1, 8)
    with pytest.raises(CertificateRefused) as info:
        certify_virasoro_vector(omega, Fraction(1, 2), cutoff=3)
    assert info.value.relation == "[L_0, L_-3] on J(-1)|k=0>"
    assert _sha256(vector_to_json(info.value.defect)) == (
        "012193f9896351541a61ef5c92ad5ca879abe09c3515242c58a50d0d240b86e7"
    )


@pytest.mark.parametrize(
    "target, run, checked, digest",
    [
        pytest.param(
            (J1, J1),
            lambda: axiom_report(Context(1), 3, 2).rows[1],
            1125,
            "220ff677ff3cb4fc0c6e79a1ff4807aebcfe354b919e32944044be3d39d264c8",
            id="translation",
        ),
        pytest.param(
            (JJ, J1),
            lambda: verify_w_tensor_split(Context(2), 3, 2).rows[1],
            275,
            "e7e36465ccfddbf58fd950921825422041a0cbeb2066f0a19e47d419a1aad46d",
            id="tensor-split",
        ),
        pytest.param(
            (EPLUS, J1),
            lambda: sl2_zero_mode_check(Context(1), 2).rows[-1],
            72,
            "36fbf441634b79f5589cf799a7c42d25c3e546cf72e4605392e64dac146ec9fc",
            id="sl2-operator",
        ),
    ],
)
def test_perturbed_kernel_fails_each_integer_row(off_by_one, target, run, checked, digest):
    off_by_one(target)
    row = run()
    assert row["ok"] is False and row["checked"] == checked
    assert row["defect"]["terms"]
    assert _sha256(row) == digest


def test_integer_checks_write_through_no_cached_kernel_entry(monkeypatch):
    # every kernel cache entry that a certificate and an axiom suite read
    # hashes the same after both run a second time, on cache hits alone
    real = vertex_engine._mono_products
    seen = {}

    def recording(ctx, a, b, lo):
        entry = real(ctx, a, b, lo)
        seen[id(entry)] = entry
        return entry

    def run():
        omega = split_virasoro_vector(Context(2, 8), 1, 8)
        assert certify_virasoro_vector(omega, Fraction(1, 2), cutoff=4).verdict
        assert axiom_report(Context(1), 3, 2).verdict

    real.cache_clear()
    monkeypatch.setattr(vertex_engine, "_mono_products", recording)
    run()
    assert len(seen) == real.cache_info().currsize > 0
    digests = {key: _sha256(repr(entry)) for key, entry in seen.items()}
    run()
    assert len(seen) == len(digests)
    assert {key: _sha256(repr(seen[key])) for key in digests} == digests


N1, N2 = Context(N=1), Context(N=2)
MISMATCH = ContextMismatchError


@pytest.mark.parametrize(
    "call, error, says",
    [
        pytest.param(
            lambda: Vector(N1, {enumerate_basis(N1, 0)[0]: N2.one()}),
            MISMATCH,
            "does not match vector context",
            id="vector-coefficient",
        ),
        pytest.param(
            lambda: inner_product(vacuum(N1), vacuum(N2)), MISMATCH, "common", id="inner-product"
        ),
        pytest.param(
            lambda: vertex_mode(vacuum(N1), -1, vacuum(N2)), MISMATCH, "common", id="vertex-mode"
        ),
        pytest.param(
            lambda: vertex_window(vacuum(N1), vacuum(N2), lo=-1),
            MISMATCH,
            "common",
            id="vertex-window",
        ),
        pytest.param(
            lambda: vector_from_json({"N": 1, "terms": [5]}), ValueError, "term", id="json-term"
        ),
        pytest.param(lambda: scalar_from_json([1, 1]), ValueError, "object", id="json-scalar"),
        pytest.param(
            lambda: verify_w_tensor_split(N1, 2, 1), ValueError, "N = 2", id="tensor-split-n"
        ),
        pytest.param(
            lambda: N1.embed_root_of_unity(1, 0), ValueError, "positive", id="root-order-0"
        ),
        pytest.param(
            lambda: verify_decomposition(N2, "W", 4), ValueError, "one of", id="decomposition-space"
        ),
    ],
)
def test_library_refuses_malformed_requests(call, error, says):
    # raises that no other test reaches
    with pytest.raises(error, match=says):
        call()


def _pool_size(ctx, cutoff):
    return sum(len(enumerate_basis(ctx, w)) for w in range(cutoff + 1))


@pytest.mark.parametrize("n_lat", [1, 2, 3])
def test_bracket_checks_count_every_case(n_lat):
    # each identity row checks its closed-form number of cases
    ctx = Context(N=n_lat)
    cutoff, r = 3, 2
    pool = _pool_size(ctx, cutoff)
    small = _pool_size(ctx, 3)
    checked = {row["relation"]: row["checked"] for row in axiom_report(ctx, cutoff, r).rows}
    assert list(checked.values()) == [
        pool * (r + 2),
        small * pool * (2 * r + 1),
        pool * (2 * r + 1) ** 2,
        pool * (2 * r + 1) * (2 * r + 2) // 2,
        pool * (2 * r + 1) ** 2,
    ]
    cert = certify_virasoro_vector(conformal_vector(ctx), 1, cutoff, r)
    assert cert.rows[0]["relations_checked"] == 5 + pool * r * (2 * r + 1)
    if n_lat == 2:
        split = verify_w_tensor_split(ctx, cutoff, r)
        assert split.rows[1]["checked"] == pool * (2 * r + 1) ** 2


def test_bracket_row_with_false_right_side_fails_on_full_count():
    ctx = Context(N=2)
    pool = [Vector(ctx, {m: 1}) for w in range(3) for m in enumerate_basis(ctx, w)]
    modes = range(-2, 3)

    def heis(v, lo):
        return {k: heis_apply(k, v) for k in modes}

    def row(rhs):
        cases = _bracket_cases(heis, heis, pool, product(modes, modes))
        return _identity_row(
            "[J_m, J_n]", ((lhs, rhs(v, m, n), (v, m, n)) for v, m, n, lhs, _ in cases)
        )

    full = len(pool) * len(modes) ** 2
    # the true commutator holds, and its row keeps exactly these three keys;
    # dropping its central term must fail and name the failing case
    assert row(lambda v, m, n: v.scale(m) if m + n == 0 else Vector.zero(ctx)) == {
        "relation": "[J_m, J_n]",
        "checked": full,
        "ok": True,
    }
    # the first failure is [J_{-2}, J_2] vacuum = -2 vacuum, on the first pool vector
    assert row(lambda v, m, n: Vector.zero(ctx)) == {
        "relation": "[J_m, J_n]",
        "checked": full,
        "ok": False,
        "defect": vector_to_json(vacuum(ctx).scale(-2)),
        "witness": {"vector": vector_to_json(vacuum(ctx)), "m": -2, "n": 2},
    }


def _json_bytes(table, lo):
    return {k: json.dumps(vector_to_json(u)) for k, u in table.items() if k >= lo}


@pytest.mark.parametrize(
    "omega",
    [conformal_vector(Context(2)), split_virasoro_vector(Context(2, 8), 1, 8)],
    ids=["nu", "split-1/8"],
)
def test_virasoro_table_holds_every_mode_from_lo(omega):
    # table(v, lo) agrees with a window wide enough for every read mode:
    # same images at every mode >= lo, and none of them missing
    table = _virasoro_table(omega)
    for v in _unit_pool(omega.ctx, 4):
        wide = {n - 1: u for n, u in vertex_window(omega, v, lo=v.weight() - 11).items()}
        for lo in range(-6, 2):
            assert _json_bytes(table(v, lo), lo) == _json_bytes(wide, lo), (v, lo)


def test_bracket_row_through_bounded_tables_names_its_first_failure():
    # the split vectors at angles 0 and pi/2 do not commute; the row read
    # through bounded tables names the first failing case in pool order,
    # and its defect matches the commutator built without tables
    ctx = Context(2, 8)
    w0, wq = split_virasoro_vector(ctx, 0, 1), split_virasoro_vector(ctx, 1, 4)
    pool = _unit_pool(ctx, 2)
    span = range(-2, 3)
    zero = Vector.zero(ctx)
    cases = _bracket_cases(_virasoro_table(w0), _virasoro_table(wq), pool, product(span, span))
    row = _identity_row("[L^0_m, L^q_n] = 0", ((lhs, zero, (v, m, n)) for v, m, n, lhs, _ in cases))

    def commutator(v, m, n):
        return virasoro_field_of(w0, m, virasoro_field_of(wq, n, v)) - virasoro_field_of(
            wq, n, virasoro_field_of(w0, m, v)
        )

    v, m, n = next(
        (v, m, n) for v in pool for m, n in product(span, span) if not commutator(v, m, n).is_zero()
    )
    assert row["ok"] is False and row["checked"] == len(pool) * len(span) ** 2 == 150
    assert row["witness"] == {"vector": vector_to_json(v), "m": m, "n": n}
    assert (m, n) == (-2, -2)
    assert row["defect"] == vector_to_json(commutator(v, m, n))


def test_identity_row_names_the_defect_of_its_first_failure():
    ctx = Context(N=2)
    vac = vacuum(ctx)
    j = heis_apply(-1, vac)
    jj = heis_apply(-1, j)
    # J_{-1} J is J_{-1}^2 vacuum, not J; J_1 J = vacuum, not 2 vacuum
    cases = [(j, Vector.monomial(ctx, (-1,), 0)), (jj, j), (heis_apply(1, j), vac.scale(2))]
    row = _identity_row("J modes", cases)
    assert row["ok"] is False and row["checked"] == 3
    assert row["defect"] == vector_to_json(jj - j)
    passing = _identity_row("J modes", cases[:1])
    assert passing == {"relation": "J modes", "checked": 1, "ok": True}
    assert "defect" not in passing
