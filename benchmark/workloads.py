"""The four benchmark workloads, as run inside one fresh interpreter.

Each workload has a `build(seed)` step that imports `voa` and builds the
inputs (this is the set-up that `setup_s` times) and returns a `Job`: the
call that `wall_ref_s` times plus the function that gives its result's
verdict and the SHA-256 digest pinned in `pins.json`.

Calls go through module attributes looked up at call time, so a tracer
that rebinds those attributes after set-up sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Job:
    variant: str  # which member of the seeded input family, keys pins.json
    call: Callable[[], object]
    digest: Callable[[object], tuple]  # result -> (verdict, sha256 hex)


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_axioms(seed: int) -> Job:
    # N = 3 leg of acceptance criterion 1; takes no seed
    from voa import cli
    from voa.scalars import Context

    ctx = Context(3)

    def call():
        return cli.axiom_report(ctx, cutoff=6, mode_range=4)

    def digest(report):
        return report.verdict, sha256_json(report.to_json())

    return Job("N=3", call, digest)


CERTIFICATE_ANGLES = (1, 3, 5, 7)  # p in the angle p/8; each costs the same


def build_certificate(seed: int) -> Job:
    # criterion 6 at conductor 8: one odd eighth-root angle per seed
    from voa import structure_analysis
    from voa.scalars import Context
    from voa.state_space import split_virasoro_vector

    p = CERTIFICATE_ANGLES[seed % len(CERTIFICATE_ANGLES)]
    omega = split_virasoro_vector(Context(2, 8), p, 8)
    charge = Fraction(1, 2)

    def call():
        return structure_analysis.certify_virasoro_vector(omega, charge, cutoff=5)

    def digest(cert):
        payload = cert.to_json()
        return payload["verdict"], sha256_json(payload)

    return Job(f"p={p}", call, digest)


# b in e_+ + b e_-; both give the same dims at the same cost (b = i gives
# the same dims too, but costs about 12% more, so it is not in the family)
CLOSURE_PHASES = ("1", "-1")
CLOSURE_CUTOFF = 7


def build_closure(seed: int) -> Job:
    # criterion 9's generators one weight lower
    from voa import structure_analysis
    from voa.scalars import Context
    from voa.state_space import charge_pair_vector, conformal_vector, vector_to_json

    ctx = Context(3)
    name = CLOSURE_PHASES[seed % len(CLOSURE_PHASES)]
    phase = {"1": ctx.one(), "-1": -ctx.one()}[name]
    generators = [conformal_vector(ctx), charge_pair_vector(ctx, 1, phase)]

    def call():
        return structure_analysis.close_subalgebra(ctx, generators, CLOSURE_CUTOFF)

    def digest(sub):
        payload = {
            str(w): [vector_to_json(v) for v in sub.weight_basis(w)]
            for w in range(CLOSURE_CUTOFF + 1)
        }
        return True, sha256_json(payload)

    return Job(f"b={name}", call, digest)


VERIFY_ALL_ARGV = ["verify", "all", "--cutoff", "4"]


def build_verify_all(seed: int) -> Job:
    # the real entry point, `voa verify all --cutoff 4`; takes no seed
    from voa import cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(VERIFY_ALL_ARGV))
        return code, out.getvalue()

    def digest(result):
        code, text = result
        return code == 0, hashlib.sha256(text.encode("utf-8")).hexdigest()

    return Job("cutoff=4", call, digest)


WORKLOADS = {
    "axioms": build_axioms,
    "certificate": build_certificate,
    "closure": build_closure,
    "verify_all": build_verify_all,
}
