"""Acceptance gate: the eleven headline checks, all exact, zero tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); the assert
carries the same verdict, so plain pytest enforces the gate either way.
"""

from fractions import Fraction

from voa.cli import axiom_report, lemma_weight4_report, mode_prop_report
from voa.linalg import EchelonSpan, coordinate_rows, rank, solve, support_monomials
from voa.scalars import Context
from voa.state_space import (
    Vector,
    charge_pair_vector,
    charged_vacuum,
    conformal_vector,
    enumerate_basis,
    partition_count,
    split_virasoro_vector,
    vacuum,
    weight4_primary,
)
from voa.structure_analysis import (
    certify_virasoro_vector,
    close_subalgebra,
    fixed_point_subspace,
    quasi_primary_basis,
    sl2_zero_mode_check,
    solve_omega_constraint,
    verify_decomposition,
    verify_w_tensor_split,
)
from voa.vertex_engine import vertex_mode, virasoro_apply


def _criterion(num: int, name: str, ok: bool, detail="") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    print(line)
    assert ok, f"{line} {detail}"


def test_criterion_01_axiom_suite():
    failures = []
    for n_lat in (1, 2, 3):
        report = axiom_report(Context(n_lat), cutoff=6, mode_range=4)
        for row in report.rows:
            if not row["ok"]:
                failures.append((n_lat, row["relation"]))
    _criterion(
        1,
        "axiom suite on weight <= 6 for N in {1, 2, 3}",
        not failures,
        detail=str(failures),
    )


def test_criterion_02_weight_four_lemma():
    ok = True
    for n_lat in (1, 2, 3):
        report = lemma_weight4_report(Context(n_lat))
        ok = ok and report.verdict
    _criterion(2, "weight-4 primary and vacuum descendants", ok)


def test_criterion_03_charged_mode_products():
    report = mode_prop_report(conductor=4)
    _criterion(3, "charged vacuum products at the singular depths", report.verdict)


def test_criterion_04_exact_three_by_three_solve():
    ok = True
    detail = []
    for n_lat in (2, 3):
        ctx = Context(n_lat)
        lm2 = virasoro_apply(-2, conformal_vector(ctx))
        lm4 = virasoro_apply(-4, vacuum(ctx))
        e = charge_pair_vector(ctx, 1)
        vg = vertex_mode(e, 2 * n_lat - 5, e)
        basis = [lm2, lm4, vg]
        monos = support_monomials(basis + [weight4_primary(ctx)])
        columns = coordinate_rows(basis, monos)
        if rank(columns, len(monos)) != 3:
            ok = False
            detail.append((n_lat, "degenerate system"))
            continue
        rows = [[col[i] for col in columns] for i in range(len(monos))]
        rhs = [weight4_primary(ctx).coeff(m) for m in monos]
        coeffs = solve(rows, rhs, 3, ctx)
        if coeffs is None:
            ok = False
            detail.append((n_lat, "no solution"))
            continue
        recombined = Vector.zero(ctx)
        for c, v in zip(coeffs, basis):
            recombined = recombined + v.scale(c)
        if recombined != weight4_primary(ctx):
            ok = False
            detail.append((n_lat, "nonzero residual"))
    _criterion(4, "u in span{L_{-2} nu, L_{-4} vacuum, v_g}, residual zero", ok, detail)


def test_criterion_05_conformal_candidate_constraints():
    ctx = Context(2, conductor=8)
    nu = conformal_vector(ctx)
    ok = solve_omega_constraint(ctx).verdict
    for k in range(8):
        r = ctx.embed_root_of_unity(k, 8)
        pair = charged_vacuum(ctx, 1) + charged_vacuum(ctx, -1).scale(r)
        ok = ok and vertex_mode(pair, 1, nu) == pair.scale(2)
        ok = ok and vertex_mode(pair, 1, pair) == nu.scale(r * 8)
    _criterion(5, "conformal candidate constraint system at N = 2", ok)


def test_criterion_06_central_charge_half_certificates():
    ctx = Context(2, conductor=8)
    ok = True
    for p, q in ((0, 1), (1, 2), (1, 4), (1, 8)):
        cert = certify_virasoro_vector(
            split_virasoro_vector(ctx, p, q), Fraction(1, 2), cutoff=6
        )
        ok = ok and cert.params["central_charge"] == [1, 2] and cert.verdict
    split = verify_w_tensor_split(ctx, cutoff=6, mode_range=2)
    ok = ok and split.verdict
    _criterion(6, "c = 1/2 certificates and the commuting split", ok)


def test_criterion_07_character_decompositions():
    ok = True
    detail = []
    for n_lat in (3, 5):
        for which in ("V", "M1", "V+", "M1+"):
            report = verify_decomposition(Context(n_lat), which, 10)
            if not report.verdict:
                ok = False
                detail.append((n_lat, which))
    _criterion(7, "graded dims match character sums to weight 10", ok, detail)


def test_criterion_08_cyclic_fixed_points():
    ok = True
    detail = []
    for n_lat, k, conductor in ((1, 2, 4), (1, 3, 12), (2, 2, 4)):
        ctx = Context(n_lat, conductor)
        got = fixed_point_subspace(ctx, f"Z{k}", 8).dims()
        target = Context(n_lat * k * k, conductor)
        want = [len(enumerate_basis(target, w)) for w in range(9)]
        if got != want:
            ok = False
            detail.append((n_lat, k, got, want))
    for n_lat in (1, 2, 3):
        got = fixed_point_subspace(Context(n_lat), "T", 8).dims()
        if got != [partition_count(w) for w in range(9)]:
            ok = False
            detail.append((n_lat, "T", got))
    _criterion(8, "cyclic fixed points match rescaled lattices", ok, detail)


def test_criterion_09_closure_reproduces_flip_fixed_points():
    ctx = Context(3)
    closed = close_subalgebra(ctx, [conformal_vector(ctx), charge_pair_vector(ctx, 1)], 8)
    fixed = fixed_point_subspace(ctx, "D1", 8)
    ok = closed.dims() == fixed.dims() == [1, 0, 1, 2, 4, 5, 9, 12, 19]
    _criterion(9, "generated subalgebra equals the flip fixed points", ok)


def test_criterion_10_weight_two_l1_kernels():
    ok = True
    detail = []
    for n_lat in (1, 3, 5):
        found = quasi_primary_basis(Context(n_lat), 2)
        if len(found) != 1:
            ok = False
            detail.append((n_lat, len(found)))
    ctx = Context(2)
    found = quasi_primary_basis(ctx, 2)
    span = EchelonSpan(ctx)
    for v in found:
        span.add(v)
    expected = (conformal_vector(ctx), charged_vacuum(ctx, 1), charged_vacuum(ctx, -1))
    ok = ok and len(found) == 3 and all(span.contains(v) for v in expected)
    _criterion(10, "dim ker L_1 at weight 2, with the N = 2 span", ok, detail)


def test_criterion_11_sl2_at_n_one():
    report = sl2_zero_mode_check(Context(1), cutoff=4)
    _criterion(11, "sl(2) zero-mode bracket table at N = 1", report.verdict)
