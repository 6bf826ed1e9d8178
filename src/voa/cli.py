"""Command line interface.

Exposes the exact mode computation, basis and character listings, fixed
point and closure calculations, and the verification suites defined in
`structure_analysis`.  All payloads are JSON with sorted keys, so
identical invocations produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 scalar
context error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .scalars import MAX_CONDUCTOR, ConductorError, Context, ContextMismatchError
from .state_space import (
    Vector,
    charged_vacuum,
    conformal_vector,
    enumerate_basis,
    split_virasoro_vector,
    vacuum,
    vector_from_json,
    vector_to_json,
    weight4_primary,
)
from .structure_analysis import (
    CheckReport,
    axiom_report,
    close_subalgebra,
    decomposition_reports,
    fixed_point_subspace,
    fixed_points_report,
    lemma_weight4_report,
    mode_prop_report,
    sl2_zero_mode_check,
    solve_omega_constraint,
    verify_w_tensor_split,
    virasoro_character,
    virasoro_report,
)
from .vertex_engine import vertex_mode

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CONTEXT = 3

MAX_CUTOFF = 16  # weight bound; the conductor bound is scalars.MAX_CONDUCTOR


class UsageError(ValueError):
    pass


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _check_cutoff(value: int) -> int:
    # exact arithmetic cost grows with the partition counts at each weight
    if not 0 <= value <= MAX_CUTOFF:
        raise UsageError(f"weight bound must lie in [0, {MAX_CUTOFF}]")
    return value


def resolve_conductor(args) -> int:
    """--conductor, else VOA_CONDUCTOR, else 4; raises ConductorError for
    a conductor the scalar field does not support."""
    conductor = getattr(args, "conductor", None)
    if conductor is None:
        env = os.environ.get("VOA_CONDUCTOR", "4")
        try:
            conductor = int(env)
        except ValueError as exc:
            raise UsageError(f"VOA_CONDUCTOR must be an integer, got {env!r}") from exc
    Context(1, conductor)
    return conductor


def resolve_vector(ctx: Context, ref: str) -> Vector:
    """Vector reference: a builtin name, inline JSON, or @path to a JSON file."""
    builtins = {
        "nu": conformal_vector,
        "vac": vacuum,
        "u4": weight4_primary,
        "omega0": lambda c: split_virasoro_vector(c, 0, 1),
        "omega_pi": lambda c: split_virasoro_vector(c, 1, 2),
        "e_plus": lambda c: charged_vacuum(c, 1),
        "e_minus": lambda c: charged_vacuum(c, -1),
    }
    if ref in builtins:
        return builtins[ref](ctx)
    try:
        if ref.startswith("@"):
            with open(ref[1:], encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.loads(ref)
    except RecursionError as exc:
        # the json parser recurses once per nesting level
        raise UsageError("vector reference JSON is nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"vector reference {ref!r} is not a builtin, inline JSON, or @file: {exc}"
        ) from exc
    return vector_from_json(data, ctx)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a fraction: {text!r}") from exc


def _fraction_json(value: Fraction) -> list:
    return [value.numerator, value.denominator]


def emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = render_text(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def render_text(payload: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list) and all(isinstance(row, dict) for row in value):
            lines.append(f"{indent}{key}:")
            for row in value:
                inner = ", ".join(f"{k}={row[k]}" for k in sorted(row))
                lines.append(f"{indent}  - {inner}")
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(render_text(value, indent + "  ").rstrip("\n"))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification suite dispatch


# suite -> (default N, lives at one lattice, builder(ctx, cutoff, args)); the
# builders look axiom_report up at call time, so it can be rebound on the module
SUITES = {
    "axioms": (2, False, lambda ctx, cutoff, args: axiom_report(ctx, cutoff)),
    "virasoro": (
        2,
        False,
        lambda ctx, cutoff, args: virasoro_report(
            resolve_vector(ctx, args.omega), _fraction(args.c), cutoff
        ),
    ),
    "lemma-weight4": (2, False, lambda ctx, cutoff, args: lemma_weight4_report(ctx)),
    "mode-prop": (2, False, lambda ctx, cutoff, args: mode_prop_report(ctx.conductor)),
    "omega": (2, True, lambda ctx, cutoff, args: solve_omega_constraint(ctx)),
    "decomposition": (3, False, lambda ctx, cutoff, args: decomposition_reports(ctx, cutoff)),
    "fixed-points": (1, False, lambda ctx, cutoff, args: fixed_points_report(ctx, cutoff, args.k)),
    "tensor-split": (2, True, lambda ctx, cutoff, args: verify_w_tensor_split(ctx, cutoff)),
    "sl2": (1, True, lambda ctx, cutoff, args: sl2_zero_mode_check(ctx, cutoff)),
}


def run_suite(name: str, args) -> CheckReport | list:
    default_n, one_lattice, build = SUITES[name]
    cutoff = _check_cutoff(args.cutoff)
    # under "all", a suite that lives at one lattice runs there whatever --N says
    keep_default = args.N is None or one_lattice and args.suite == "all"
    return build(Context(default_n if keep_default else args.N, args.conductor), cutoff, args)


# ---------------------------------------------------------------------------
# commands


def cmd_mode(args) -> int:
    ctx = Context(args.N, args.conductor)
    a = resolve_vector(ctx, args.a)
    b = resolve_vector(ctx, args.b)
    # operand and result weights share the budget; a negative result weight means zero
    wa, wb = (max(v.weights(), default=0) for v in (a, b))
    _check_cutoff(max(wa, wb, wa + wb - args.n - 1))
    result = vertex_mode(a, args.n, b)
    # the weight check: every weight of the result is wt(a) + wt(b) - n - 1
    # for some pair of homogeneous components of the operands
    ok = result.weights() <= {wa + wb - args.n - 1 for wa in a.weights() for wb in b.weights()}
    payload = {
        "check": "mode",
        "params": {"N": args.N, "conductor": ctx.conductor, "n": args.n},
        "result": vector_to_json(result),
        "weight_check": ok,
    }
    emit(payload, args)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = SUITES
    else:
        names = (args.suite,)
    reports = []
    for name in names:
        result = run_suite(name, args)
        if isinstance(result, list):
            reports.extend(result)
        else:
            reports.append(result)
    verdict = all(r.verdict for r in reports)
    if len(reports) == 1:
        payload = reports[0].to_json()
    else:
        payload = {
            "check": args.suite,
            "reports": [r.to_json() for r in reports],
            "verdict": verdict,
        }
    emit(payload, args)
    return EXIT_OK if verdict else EXIT_VERIFY


def cmd_basis(args) -> int:
    ctx = Context(args.N, args.conductor)
    weight = _check_cutoff(args.weight)
    monos = enumerate_basis(ctx, weight)
    payload = {
        "check": "basis",
        "params": {"N": args.N, "weight": weight},
        "monomials": [
            {"partition": list(m.partition), "charge": m.charge} for m in monos
        ],
        "count": len(monos),
    }
    emit(payload, args)
    return EXIT_OK


def cmd_character(args) -> int:
    crg = _fraction(args.c)
    h = _fraction(args.h)
    dims = virasoro_character(crg, h, _check_cutoff(args.max))
    payload = {
        "check": "character",
        "params": {
            "c": _fraction_json(crg),
            "h": _fraction_json(h),
            "max": args.max,
        },
        "dims": dims,
    }
    emit(payload, args)
    return EXIT_OK


def cmd_fixed(args) -> int:
    ctx = Context(args.N, args.conductor)
    cutoff = _check_cutoff(args.cutoff)
    t = None
    if args.t is not None:
        frac = _fraction(args.t)
        t = (frac.numerator, frac.denominator)
    sub = fixed_point_subspace(ctx, args.group, cutoff, t)
    payload = {
        "check": "fixed",
        "params": {
            "N": args.N,
            "group": args.group,
            "cutoff": cutoff,
            "t": None if t is None else list(t),
        },
        "dims": sub.dims(),
        "total": sub.total_dim(),
    }
    emit(payload, args)
    return EXIT_OK


def cmd_close(args) -> int:
    ctx = Context(args.N, args.conductor)
    cutoff = _check_cutoff(args.cutoff)
    refs = args.gen if args.gen else ["nu"]
    generators = [resolve_vector(ctx, ref) for ref in refs]
    for g in generators:
        _check_cutoff(max(g.weights(), default=0))
    sub = close_subalgebra(ctx, generators, cutoff)
    payload = {
        "check": "close",
        "params": {"N": args.N, "cutoff": cutoff, "generators": list(refs)},
        "dims": sub.dims(),
        "total": sub.total_dim(),
    }
    emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voa",
        description="Exact computations in rank-one even lattice vertex algebras.",
    )
    parser.add_argument(
        "--conductor",
        type=int,
        default=None,
        help=f"cyclotomic conductor, a multiple of 4 up to {MAX_CONDUCTOR} "
        "(default: VOA_CONDUCTOR or 4)",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--output", metavar="PATH", default=None, help="write the payload to PATH"
    )
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # value given before the subcommand from being reset to a default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--conductor", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS
    )
    common.add_argument("--output", metavar="PATH", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("mode", help="compute a_(n) b exactly", parents=[common])
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True, help="builtin name, inline JSON, or @file")
    p.add_argument("--b", required=True, help="builtin name, inline JSON, or @file")
    p.set_defaults(func=cmd_mode)

    p = sub.add_parser("verify", help="run a verification suite", parents=[common])
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--N", type=_positive, default=None)
    p.add_argument("--cutoff", type=int, default=6)
    p.add_argument("--k", type=_positive, default=2, help="cyclic order (fixed-points)")
    p.add_argument("--omega", default="nu", help="candidate vector (virasoro)")
    p.add_argument("--c", default="1", help="claimed central charge (virasoro)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis", help="list basis monomials at one weight", parents=[common])
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("character", help="graded dimensions of L(c, h)", parents=[common])
    p.add_argument("--c", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("fixed", help="fixed points of an automorphism subgroup", parents=[common])
    p.add_argument("--group", required=True, help="T, Dinf, Zk, or Dk")
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--cutoff", type=int, default=6)
    p.add_argument("--t", default=None, help="conjugating angle p/q (dihedral only)")
    p.set_defaults(func=cmd_fixed)

    p = sub.add_parser("close", help="close a generating set under all modes", parents=[common])
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--cutoff", type=int, default=6)
    p.add_argument(
        "--gen",
        action="append",
        default=None,
        help="generator reference; repeatable (default: nu)",
    )
    p.set_defaults(func=cmd_close)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        args.conductor = resolve_conductor(args)
        return args.func(args)
    except (ConductorError, ContextMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTEXT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
