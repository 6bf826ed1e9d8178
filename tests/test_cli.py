"""CLI: exit codes, payload shapes, determinism, vector references."""

import hashlib
import json
from pathlib import Path
from time import monotonic

import pytest

from voa import cli, structure_analysis
from voa.cli import main
from voa.scalars import Context
from voa.state_space import (
    Vector,
    charge_pair_vector,
    conformal_vector,
    enumerate_basis,
    vacuum,
    vector_from_json,
    vector_to_json,
    weight4_primary,
)
from voa.vertex_engine import vertex_mode


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_basis_listing(capsys):
    code, data = run_json(capsys, "basis", "--N", "1", "--weight", "1")
    assert code == 0
    assert data["check"] == "basis"
    assert data["count"] == 3
    charges = sorted(m["charge"] for m in data["monomials"])
    assert charges == [-1, 0, 1]


def test_character_dims(capsys):
    code, data = run_json(capsys, "character", "--c", "1", "--h", "0", "--max", "4")
    assert code == 0
    assert data["dims"] == [1, 0, 1, 1, 2]


def test_character_usage_error(capsys):
    code, _ = run(capsys, "character", "--c", "1", "--h", "-1", "--max", "4")
    assert code == 2


def test_fixed_cyclic_matches_rescaled_lattice(capsys):
    code, data = run_json(capsys, "fixed", "--group", "Z2", "--N", "1", "--cutoff", "8")
    assert code == 0
    target = Context(4)
    assert data["dims"] == [len(enumerate_basis(target, w)) for w in range(9)]


def test_mode_creation_axiom(capsys):
    code, data = run_json(capsys, "mode", "--N", "2", "--n", "-1", "--a", "nu", "--b", "vac")
    assert code == 0
    assert data["weight_check"] is True
    ctx = Context(2)
    assert vector_from_json(data["result"], ctx) == conformal_vector(ctx)


@pytest.mark.parametrize(
    "argv",
    [
        ["mode", "--n", "0", "--a", "vac", "--b", "vac"],
        ["verify", "axioms", "--cutoff", "1"],
    ],
    ids=["mode", "axioms"],
)
def test_huge_lattice_runs_quickly(capsys, argv):
    # 2N = 2 (10^20 + 39) is never factored: the fold tries the conductor's
    # squarefree divisors only
    start = monotonic()
    code, _ = run(capsys, *argv, "--N", "100000000000000000039")
    assert code == 0
    assert monotonic() - start < 5


def test_mode_reports_a_failed_weight_check(capsys, monkeypatch):
    # nu_(1) nu has weight 2; a product of weight 0 fails the check
    monkeypatch.setattr(cli, "vertex_mode", lambda a, n, b: vacuum(a.ctx))
    code, data = run_json(capsys, "mode", "--N", "2", "--n", "1", "--a", "nu", "--b", "nu")
    assert code == 1
    assert data["weight_check"] is False


def test_mode_charge_pair_product(capsys, tmp_path):
    ctx = Context(2)
    path = tmp_path / "egb.json"
    path.write_text(json.dumps(vector_to_json(charge_pair_vector(ctx, 1))))
    code, data = run_json(
        capsys, "mode", "--N", "2", "--n", "-1", "--a", f"@{path}", "--b", f"@{path}"
    )
    assert code == 0
    coeffs = {
        tuple(t["partition"]): t["coeff"]["rat"] for t in data["result"]["terms"]
    }
    assert coeffs[(-1, -1, -1, -1)] == [[4, 3]]
    assert coeffs[(-3, -1)] == [[8, 3]]
    assert coeffs[(-2, -2)] == [[1, 1]]


def test_mode_mismatched_lattice_is_context_error(capsys, tmp_path):
    path = tmp_path / "nu3.json"
    path.write_text(json.dumps(vector_to_json(conformal_vector(Context(3)))))
    code, _ = run(capsys, "mode", "--N", "2", "--n", "0", "--a", f"@{path}", "--b", "vac")
    assert code == 3


def test_mode_inline_json_round_trip(capsys):
    # a_(-1) vacuum = a, so the result round-trips the input exactly
    ctx = Context(3)
    blob = json.dumps(vector_to_json(weight4_primary(ctx)))
    code, data = run_json(capsys, "mode", "--N", "3", "--n", "-1", "--a", blob, "--b", "vac")
    assert code == 0
    assert vector_from_json(data["result"], ctx) == weight4_primary(ctx)


NU_TERM = {
    "partition": [-1, -1],
    "charge": 0,
    "coeff": {"N": 2, "n": 4, "rat": [[1, 2]], "rad": []},
}


@pytest.mark.parametrize(
    "blob",
    [
        "{bad",
        json.dumps({"N": 2, "terms": [dict(NU_TERM, partition=[-1.5])]}),
        json.dumps({"N": 2, "terms": [dict(NU_TERM, charge=0.5)]}),
        json.dumps({"N": 2, "terms": [dict(NU_TERM, coeff=dict(NU_TERM["coeff"], rat=[[1, 0]]))]}),
        "[1, 2]",
        json.dumps({"N": 2, "terms": [NU_TERM, NU_TERM]}),
        "[" * 50000,
    ],
    ids=[
        "not-json",
        "float-mode",
        "float-charge",
        "zero-denominator",
        "list",
        "repeated-term",
        "deep-nesting",
    ],
)
def test_mode_malformed_json_is_usage_error(capsys, blob):
    code, _ = run(capsys, "mode", "--N", "2", "--n", "0", "--a", blob, "--b", "vac")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "1.5", "--a", "e_plus", "--b", "e_minus"],
        ["--n", "two", "--a", "e_plus", "--b", "e_minus"],
        ["--n", "1", "--a", "e_plus"],
        ["--n", "1", "--b", "e_minus"],
    ],
    ids=["float-mode", "text-mode", "missing-b", "missing-a"],
)
def test_mode_bad_mode_or_missing_operand_is_usage_error(capsys, argv):
    code, _ = run(capsys, "mode", "--N", "2", *argv)
    assert code == 2


@pytest.mark.parametrize(
    "text, says",
    [("[" * 50000, "nested too deeply"), ("{bad", "deep.json' is not a builtin")],
    ids=["deep-nesting", "not-json"],
)
def test_malformed_vector_file_exits_two_with_one_line(capsys, tmp_path, text, says):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = main(["close", "--N", "1", "--gen", f"@{path}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and says in captured.err


@pytest.mark.parametrize(
    "argv",
    [("basis", "--N", "0", "--weight", "1"), ("character", "--c", "abc", "--h", "0", "--max", "2")],
    ids=["basis-N-0", "character-c-abc"],
)
def test_bad_number_is_usage_error(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 2


def test_verify_refuses_doubled_conformal_vector(capsys, tmp_path):
    nu = conformal_vector(Context(2))
    path = tmp_path / "two-nu.json"
    path.write_text(json.dumps(vector_to_json(nu.scale(2))))
    code, data = run_json(
        capsys,
        "verify",
        "virasoro",
        "--N", "2",
        "--cutoff", "4",
        "--omega", f"@{path}",
        "--c", "1",
    )
    assert code == 1
    assert data["verdict"] is False
    assert data["rows"][0]["relation"].startswith("L_0")
    # L_0 of 2 nu is 2 L_0, so (2 nu)_(1) (2 nu) = 8 nu against 2 (2 nu): the defect is 4 nu
    assert data["rows"][0]["defect"] == vector_to_json(nu.scale(4))


def test_verify_certifies_builtin_conformal_vector(capsys):
    code, data = run_json(capsys, "verify", "virasoro", "--cutoff", "2")
    assert code == 0
    assert data["verdict"] is True
    assert data["rows"][0]["relations_checked"] > 0


def test_verify_omega_circle_with_conductor_eight(capsys):
    code, data = run_json(capsys, "verify", "omega", "--conductor", "8")
    assert code == 0
    circle = [r for r in data["rows"] if "zeta_8" in r.get("relation", "")]
    assert len(circle) == 8
    assert all(r["ok"] for r in circle)


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _ = run(capsys, "verify", "nonsense")
    assert code == 2


def test_cutoff_guard(capsys):
    code, _ = run(capsys, "verify", "axioms", "--cutoff", "17")
    assert code == 2
    code, _ = run(capsys, "basis", "--N", "1", "--weight", "17")
    assert code == 2
    code, _ = run(capsys, "mode", "--N", "1", "--n", "-20", "--a", "e_plus", "--b", "e_minus")
    assert code == 2


def test_invalid_conductor_is_context_error(capsys):
    code, _ = run(capsys, "--conductor", "6", "basis", "--N", "1", "--weight", "2")
    assert code == 3
    code, _ = run(capsys, "character", "--c", "1", "--h", "0", "--max", "4", "--conductor", "6")
    assert code == 3


def test_huge_conductor_exits_three_with_one_line(capsys):
    code = main(
        ["--conductor", "100000000", "mode", "--N", "1", "--n", "-1", "--a", "e_plus", "--b", "e_plus"]
    )
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.count("\n") == 1 and "at most" in captured.err


@pytest.mark.parametrize(
    "argv",
    [("fixed", "--group", "Z3", "--N", "1"), ("fixed", "--group", "D2", "--N", "1", "--t", "1/3")],
    ids=["Z3", "D2-t"],
)
def test_fixed_root_outside_conductor_exits_three_with_one_line(capsys, argv):
    code = main(["--conductor", "4", *argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.count("\n") == 1 and "zeta_3 is not in Q(zeta_4)" in captured.err


def test_root_above_conductor_cap_names_the_cap(capsys):
    # zeta_101 needs conductor 404, which Context refuses, so the hint must not
    # ask for a rebuild at 404
    code = main(["fixed", "--group", "Z101", "--N", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert "needs conductor 404, above the cap of 400" in captured.err
    assert "rebuild" not in captured.err


@pytest.mark.parametrize(
    "budget, value, says",
    [("MAX_CLOSURE_MEMBERS", 3, "member budget of 3"), ("MAX_CLOSURE_SECONDS", 0.0, "time budget")],
)
def test_close_over_budget_exits_two_with_one_line(capsys, monkeypatch, budget, value, says):
    # a real closure under a tiny budget; N = 7 is not closed by any other test,
    # so the closure cache cannot answer first
    monkeypatch.setattr(structure_analysis, budget, value)
    code = main(["close", "--N", "7", "--cutoff", "4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and says in captured.err


def test_close_refuses_generator_above_weight_bound(capsys):
    # J_{-17} vacuum has weight 17, one above MAX_CUTOFF
    gen = json.dumps(vector_to_json(Vector.monomial(Context(1), (-17,), 0)))
    code = main(["close", "--N", "1", "--cutoff", "2", "--gen", gen])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "weight bound" in captured.err


def test_conductor_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("VOA_CONDUCTOR", "8")
    code, data = run_json(capsys, "verify", "omega")
    assert code == 0
    assert data["params"]["conductor"] == 8
    monkeypatch.setenv("VOA_CONDUCTOR", "junk")
    code, _ = run(capsys, "verify", "omega")
    assert code == 2


def test_global_flags_accepted_in_both_positions(capsys):
    code_before, out_before = run(
        capsys, "--format", "text", "character", "--c", "1", "--h", "0", "--max", "2"
    )
    code_after, out_after = run(
        capsys, "character", "--c", "1", "--h", "0", "--max", "2", "--format", "text"
    )
    assert code_before == code_after == 0
    assert out_before == out_after
    assert "dims: [1, 0, 1]" in out_before


def test_json_output_is_byte_identical(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify", "lemma-weight4", "--output", str(first)]) == 0
    assert main(["verify", "lemma-weight4", "--output", str(second)]) == 0
    assert capsys.readouterr().out == ""
    assert first.read_bytes() == second.read_bytes()


def test_close_default_generator_is_conformal(capsys):
    code, data = run_json(capsys, "close", "--N", "2", "--cutoff", "4")
    assert code == 0
    assert data["params"]["generators"] == ["nu"]
    assert data["dims"] == [1, 0, 1, 1, 2]


def test_close_charged_vacua_generate_everything(capsys):
    code, data = run_json(
        capsys, "close", "--N", "2", "--cutoff", "4", "--gen", "e_plus", "--gen", "e_minus"
    )
    assert code == 0
    ctx = Context(2)
    assert data["dims"] == [len(enumerate_basis(ctx, w)) for w in range(5)]


# each entry of cli_pins.json is the sha256 of one command's stdout.  Among them:
# verify all at the verify_all workload's cutoff 4, and at conductor 8, where
# sqrt 2 folds into Q(zeta_8); the N = 1 axiom leg, which neither verify all
# (N = 2) nor the axioms workload (N = 3) runs; a mode product whose operands
# have two weights each; the conductor-400 fixed points of Z100; closures of
# nu and of e_plus, whose cutoff-8 digest and the c = 1/2 character to weight
# 9 were read off the worklist closure, while e_plus at cutoff 10 and the
# character to weight 16 are beyond the worklist's reach (CI gives each pin
# 60 s); two closures that the strong path hands to the worklist: nu with
# e_+ + e_- at cutoff 6, whose S grows to weight 4 and whose check 4_(0) 4
# lands at weight 7, and e^{2 alpha} at N = 2, a generator above cutoff 7;
# and three text-format runs, whose reports, vector terms and basis
# monomials are lists of rows.
PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("pin", PINS, ids=[pin["id"] for pin in PINS])
def test_pinned_output(capsys, pin):
    code, out = run(capsys, *pin["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pin["sha256"]


def test_mode_reads_one_window(capsys, monkeypatch):
    # the two-weight operands give 4 pairs of homogeneous components, and the
    # product and its weight check still come from one vertex_mode read
    (pin,) = [pin for pin in PINS if pin["id"] == "mode-two-weights"]
    calls = []

    def counting(a, n, b):
        calls.append(n)
        return vertex_mode(a, n, b)

    monkeypatch.setattr(cli, "vertex_mode", counting)
    code, out = run(capsys, *pin["argv"])
    assert code == 0
    assert calls == [-1]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pin["sha256"]
    assert json.loads(out)["weight_check"] is True


SL2_TEXT = """\
check: sl2-zero-modes
params:
  N: 1
  cutoff: 1
rows:
  - ok=True, relation=[H, E] = 2E
  - ok=True, relation=[H, F] = -2F
  - ok=True, relation=[E, F] = H
  - ok=True, relation=[E, H] = -2E
  - ok=True, relation=[F, H] = 2F
  - ok=True, relation=[F, E] = -H
  - ok=True, relation=[H, H] = 0
  - ok=True, relation=[E, E] = 0
  - ok=True, relation=[F, F] = 0
  - ok=True, relation=weight-one basis orthonormal
  - checked=36, ok=True, relation=[a_(0), b_(0)] = (a_(0) b)_(0)
verdict: True
"""


def test_text_format_renders_report_rows(capsys):
    code, out = run(capsys, "--format", "text", "verify", "sl2", "--cutoff", "1")
    assert code == 0
    assert out == SL2_TEXT


@pytest.mark.parametrize("n_lat", ["1", "2", "3"])
def test_verify_all_at_each_lattice(capsys, n_lat):
    # sl2, omega and tensor-split keep their own lattice; --N sets the rest
    code, data = run_json(capsys, "verify", "all", "--N", n_lat, "--cutoff", "2")
    assert code == 0
    params = {r["check"]: r["params"] for r in data["reports"]}
    assert params["axioms"]["N"] == int(n_lat)
    assert params["sl2-zero-modes"]["N"] == 1
    assert params["w-tensor-split"]["N"] == 2


@pytest.mark.parametrize("cutoff, checked", [(2, 72), (4, 252)])
def test_verify_sl2_honours_cutoff(capsys, cutoff, checked):
    code, data = run_json(capsys, "verify", "sl2", "--cutoff", str(cutoff))
    assert code == 0
    assert data["params"]["cutoff"] == cutoff
    assert data["rows"][-1]["checked"] == checked


def test_verify_one_lattice_suite_refuses_other_n(capsys):
    assert main(["verify", "sl2", "--N", "2"]) == 2
    assert "lives at N = 1" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out
