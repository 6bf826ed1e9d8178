"""Structure analysis: primaries, characters, fixed points, closure, certificates."""

import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest

from voa.linalg import EchelonSpan
from voa.scalars import ConductorError, Context
from voa.state_space import (
    Vector,
    apply_flip,
    apply_torus,
    charge_pair_vector,
    charged_vacuum,
    conformal_vector,
    enumerate_basis,
    partition_count,
    split_virasoro_vector,
    vacuum,
    vector_to_json,
    weight4_primary,
)
from voa import structure_analysis
from voa.structure_analysis import (
    CertificateRefused,
    _bracket_cases,
    _close_cached,
    _identity_row,
    _omega_system,
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
    _mono_products,
    _virasoro_mono,
    heis_apply,
    vertex_window,
    virasoro_apply,
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
            for n, prod in vertex_window(x, y, cutoff).items():
                assert spans[prod.weight()].contains(prod), (x, y, n)


def test_closure_golden_digest():
    # reduced echelon bases are canonical, so equal spans give equal bytes
    data = {}
    for key, ctx, gens, cutoff in _closure_family():
        sub = close_subalgebra(ctx, gens, cutoff)
        data[key] = {
            str(w): [vector_to_json(v) for v in sub.weight_basis(w)] for w in range(cutoff + 1)
        }
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == "81c9dcd169b87827240ff9f6509e0d73c8f680d38ea2c99ca21b1ff951eef09c"


def test_close_subalgebra_generator_corollary_matches_flip_fixed_points():
    ctx = Context(N=3)
    closed = close_subalgebra(ctx, [conformal_vector(ctx), charge_pair_vector(ctx, 1)], 8)
    assert closed.dims() == fixed_point_subspace(ctx, "D1", 8).dims()
    assert closed.dims() == [1, 0, 1, 2, 4, 5, 9, 12, 19]


def test_close_subalgebra_member_budget(monkeypatch):
    monkeypatch.setattr(structure_analysis, "MAX_CLOSURE_MEMBERS", 3)
    ctx = Context(N=5)
    with pytest.raises(RuntimeError, match="member budget"):
        close_subalgebra(ctx, [conformal_vector(ctx)], 5)


def test_project_conformal_recovers_generators():
    ctx = Context(N=2)
    w_nu = close_subalgebra(ctx, [conformal_vector(ctx)], 4)
    assert project_conformal(w_nu) == conformal_vector(ctx)
    w0 = split_virasoro_vector(ctx)
    w_half = close_subalgebra(ctx, [w0], 4)
    assert project_conformal(w_half) == w0
    empty = close_subalgebra(ctx, [], 4)
    assert project_conformal(empty).is_zero()


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


def test_input_keyed_caches_are_bounded():
    caches = (
        _mono_products,
        _virasoro_mono,
        enumerate_basis,
        fixed_point_subspace,
        _close_cached,
        _omega_system,
    )
    for cached in caches:
        assert cached.cache_info().maxsize is not None, cached.__name__


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

    def heis(v):
        return {k: heis_apply(k, v) for k in modes}

    def row(rhs):
        cases = _bracket_cases(heis, heis, pool, product(modes, modes))
        return _identity_row("[J_m, J_n]", ((lhs, rhs(v, m, n)) for v, m, n, lhs, _ in cases))

    full = len(pool) * len(modes) ** 2
    # the true commutator holds; dropping its central term must fail
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
    }


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
