"""Structure analysis on top of the exact mode engine.

Primary vectors, Virasoro characters, graded decomposition checks,
automorphism fixed points, subalgebra closure, and certificates for
conformal vectors of central charge one half.

Every verification suite lives here and returns a report whose rows each
carry an "ok" flag; a report's verdict is the conjunction of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt
from time import monotonic

from .linalg import EchelonSpan, operator_kernel, solve
from .scalars import Context, Scalar
from .state_space import (
    BasisMonomial,
    GradedSubspace,
    Vector,
    apply_flip,
    charged_vacuum,
    conformal_vector,
    enumerate_basis,
    gram_matrix,
    inner_product,
    partition_count,
    pct,
    split_virasoro_vector,
    vacuum,
    vector_to_json,
    weight4_primary,
)
from .vertex_engine import heis_apply, vertex_mode, vertex_window, virasoro_apply

__all__ = [
    "CertificateRefused",
    "CheckReport",
    "ClosureBudgetError",
    "DecompositionReport",
    "axiom_report",
    "certify_virasoro_vector",
    "close_subalgebra",
    "decomposition_reports",
    "fixed_point_subspace",
    "fixed_points_report",
    "lemma_weight4_report",
    "mode_prop_report",
    "omega_residuals",
    "primary_basis",
    "project_conformal",
    "quasi_primary_basis",
    "sl2_zero_mode_check",
    "solve_omega_constraint",
    "verify_decomposition",
    "verify_w_tensor_split",
    "virasoro_character",
    "virasoro_report",
]

# closure budgets: members admitted, and wall seconds checked once per
# weight on the strong path and once per worklist member.  300 s is about
# a hundred times a closure that falls back to the worklist, e^{2 alpha} at
# N = 2, cutoff 8 (a check lands above the cutoff): 2.5-3.6 s of one
# process's CPU on a 2-core host with Python 3.11.7, whose speed drifts by
# up to 2x
MAX_CLOSURE_MEMBERS = 4000
MAX_CLOSURE_SECONDS = 300.0


class ClosureBudgetError(ValueError, RuntimeError):
    """Raised when a subalgebra closure exceeds its member or time budget.

    A ValueError, so the CLI reports it as a usage error (exit 2); still a
    RuntimeError, as the member budget's error was before."""


@dataclass
class CheckReport:
    """Generic verification report: named rows, each with an "ok" flag.

    The verdict is the conjunction of the rows' flags.  rows_key names the
    rows in the JSON form.
    """

    check: str
    params: dict
    rows: list

    rows_key = "rows"

    @property
    def verdict(self) -> bool:
        return all(row["ok"] for row in self.rows)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            self.rows_key: [dict(r) for r in self.rows],
            "verdict": self.verdict,
        }


# per-weight comparison of honest dimensions against character sums
class DecompositionReport(CheckReport):
    rows_key = "per_weight"


class CertificateRefused(Exception):
    """A claimed conformal vector failed an exact bracket relation."""

    def __init__(self, relation: str, defect: Vector):
        super().__init__(f"virasoro certificate refused: {relation}")
        self.relation = relation
        self.defect = defect


def _identity_row(relation: str, cases) -> dict:
    """Report row for an identity checked on each case (lhs, rhs) or
    (lhs, rhs, (v, m, n)).

    A failing row also names its first failing case: the defect lhs - rhs,
    and, when the case carries one, a witness with the basis vector v and
    the modes m, n.  A passing row has no defect or witness key.
    """
    checked, defect, witness = 0, None, None
    for lhs, rhs, *case in cases:
        checked += 1
        if defect is None and lhs != rhs:
            defect = lhs - rhs
            witness = case[0] if case else None
    row = {"relation": relation, "checked": checked, "ok": defect is None}
    if defect is not None:
        row["defect"] = vector_to_json(defect)
    if witness is not None:
        v, m, n = witness
        row["witness"] = {"vector": vector_to_json(v), "m": m, "n": n}
    return row


def _bracket_cases(x, y, pool, pairs):
    """Commutators of two mode families on every pool vector.

    x and y map a vector v and a mode lo to a mode table {mode: image}
    that holds every nonzero image at a mode >= lo; modes below lo may be
    missing.  They are only called on homogeneous nonzero vectors: the
    pool's unit vectors and the nonempty modes of their tables.  Yields
    (v, m, n, x_m y_n v - y_n x_m v, x-table of v) for each v in pool
    and each (m, n) in pairs.  The x-table of v holds every mode from the
    lowest x-mode and every m + n up, so a caller may read x_{m+n} v from
    it; the other tables hold every mode from the lowest one pairs reads
    of them.  Second-level tables are built only for the modes that
    pairs reads, once over their union when x is y, and one vector's
    tables are released before the next vector's are built.
    """
    pairs = tuple(pairs)
    if not pairs:
        return
    x_modes = {m for m, _ in pairs}
    y_modes = {n for _, n in pairs}
    if x is y:
        x_modes = y_modes = x_modes | y_modes
    x_lo, y_lo = min(x_modes), min(y_modes)
    base_lo = min(x_lo, *(m + n for m, n in pairs))
    for v in pool:
        zero = Vector.zero(v.ctx)
        xv = x(v, base_lo)
        y_after_x = {m: y(u, y_lo) for m, u in xv.items() if m in x_modes}
        x_after_y = (
            y_after_x
            if x is y
            else {n: x(u, x_lo) for n, u in y(v, y_lo).items() if n in y_modes}
        )
        for m, n in pairs:
            lhs = x_after_y.get(n, {}).get(m, zero) - y_after_x.get(m, {}).get(n, zero)
            yield v, m, n, lhs, xv
        del xv, y_after_x, x_after_y


def _virasoro_table(omega: Vector):
    """Mode table of omega's field, keyed by Virasoro index: omega_(n) acts
    as L_{n-1}.  Called as table(v, lo), it holds every nonzero L_k v
    with k >= lo: the window from omega_(lo+1)."""
    return lambda v, lo: {n - 1: u for n, u in vertex_window(omega, v, lo=lo + 1).items()}


def _unit_vectors(ctx: Context, weight: int) -> list:
    return [Vector(ctx, {m: 1}) for m in enumerate_basis(ctx, weight)]


def _unit_pool(ctx: Context, cutoff: int) -> list:
    """Unit vectors of every basis monomial of weight <= cutoff."""
    return [v for w in range(cutoff + 1) for v in _unit_vectors(ctx, w)]


def quasi_primary_basis(ctx: Context, weight: int, ambient=None) -> list:
    """Basis of the weight subspace killed by L_1, as operator_kernel
    returns it: reduced echelon over the reversed order of the domain,
    the ambient's weight basis or else the canonically ordered unit
    vectors."""
    domain = ambient.weight_basis(weight) if ambient is not None else _unit_vectors(ctx, weight)
    return operator_kernel(ctx, domain, [lambda v: virasoro_apply(1, v)])


def primary_basis(ctx: Context, weight: int, ambient=None) -> list:
    """Basis of the vectors killed by every L_n, n > 0, in the domain
    convention of quasi_primary_basis.

    L_1 and L_2 generate the whole raising half, so their joint kernel
    is the full primary subspace.
    """
    domain = ambient.weight_basis(weight) if ambient is not None else _unit_vectors(ctx, weight)
    ops = [lambda v: virasoro_apply(1, v), lambda v: virasoro_apply(2, v)]
    return operator_kernel(ctx, domain, ops)


def virasoro_character(c, h, max_weight: int) -> list:
    """Graded dimensions of the irreducible module L(c, h) at weights 0..max_weight.

    Central charge 1 with integer h >= 0 uses the closed character
    formulas: for h not a perfect square the module keeps all of its
    descendants, while h = m*m loses one singular vector at weight
    (m+1)*(m+1).  Central charge 1/2 is supported for h = 0 only and is
    computed structurally, as the graded dimensions of the subalgebra
    generated by a split conformal vector omega.  That closure takes the
    strong path with S = {omega}: its checks, pct(omega) = omega,
    L_1 omega = 0 and omega_(j) omega for j <= 3, land at weight <= 3,
    so every max_weight >= 3 is decided without a fallback, and the cost
    grows with the rank of W (max_weight 16 took about 15 s on a 2-core
    host).
    """
    c = Fraction(c)
    h = Fraction(h)
    if c == 1:
        if h < 0 or h.denominator != 1:
            raise ValueError("central charge 1 characters need integer h >= 0")
        hw = int(h)
        root = isqrt(hw)
        square = root * root == hw
        dims = []
        for w in range(max_weight + 1):
            d = partition_count(w - hw) if w >= hw else 0
            if square and w >= (root + 1) ** 2:
                d -= partition_count(w - (root + 1) ** 2)
            dims.append(d)
        return dims
    if c == Fraction(1, 2) and h == 0:
        ctx = Context(2)
        return close_subalgebra(ctx, [split_virasoro_vector(ctx)], max_weight).dims()
    raise ValueError("characters are available for c = 1, integer h >= 0, and for (c, h) = (1/2, 0)")


def _parse_group(group: str):
    if group in ("T", "Dinf"):
        return group, 0
    if len(group) >= 2 and group[0] in ("Z", "D") and group[1:].isdigit():
        k = int(group[1:])
        if k >= 1:
            return group[0], k
    raise ValueError(f"unknown group name {group!r}; use T, Dinf, Zk, or Dk")


def _fixed_representative(mono: BasisMonomial, k: int, flipped: bool) -> bool:
    """Whether mono indexes one basis vector of the fixed points of Z_k,
    or of T when k = 0, extended by a flip when flipped.

    k = 0 means the whole torus: charge 0 only.  Under a flip, charge
    c > 0 lies in the pair of -c, and a charge-0 monomial is fixed when
    len lambda is even."""
    c, lam = mono
    return not ((c % k if k else c) or flipped and (c > 0 or c == 0 and len(lam) % 2))


def fixed_point_subspace(ctx: Context, group: str, cutoff: int, t=None) -> GradedSubspace:
    """Fixed points of an automorphism subgroup, weight by weight.

    Group names: "T" is the full torus, "Dinf" the torus extended by the
    flip, "Zk" the cyclic rotation subgroup of order k (e.g. "Z3"), and
    "Dk" the dihedral subgroup of order 2k.  A pair t = (p, q) conjugates
    a dihedral subgroup by the rotation g_t of angle 2 pi p / q; the
    result is then the g_t image of the unconjugated fixed-point space.

    Basis monomials are torus eigenvectors: the rotation of angle
    2 pi / k multiplies (lambda, c) by zeta_k^c, so the charge is the
    torus character.  The flip sends (lambda, c) to
    (-1)^{len lambda} (lambda, -c).  So the fixed points are read off
    the basis with no elimination:
    - T: the charge-0 unit vectors;
    - Zk: the unit vectors with k | c, the lattice subalgebra of kL;
    - Dinf and Dk: the charge-0 unit vectors with len lambda even, and
      for each c < 0 (with k | c for Dk) the flip-fixed pair
      e_(lambda,c) + (-1)^{len lambda} zeta_q^{-2pc} e_(lambda,-c).
    The phase is 1 without t.  g_t scales (lambda, c) by zeta_q^{pc}, so
    the pair is g_t of the unconjugated pair, rescaled at its
    negative-charge monomial.

    The rows have disjoint supports, and each has coefficient 1 at its
    first monomial in canonical order; they are listed in that order.
    So every basis is in reduced echelon form over the canonical
    monomial order, the convention of EchelonSpan, and equal spans give
    equal bytes.  Zk with k not dividing the conductor, or t = (p, q)
    with q not dividing it, raises ConductorError before any basis is
    built; t on a non-dihedral group raises ValueError.
    """
    kind, k = _parse_group(group)
    if t is not None and kind != "D":
        raise ValueError("only dihedral subgroups take a conjugating angle")
    if k:
        ctx.embed_root_of_unity(1, k)
    p, q = (0, 1) if t is None else t
    twist = ctx.embed_root_of_unity(2 * p, q)  # the pair of c < 0 carries twist ** -c
    flipped = kind in ("Dinf", "D")
    basis_by_weight: dict = {}
    for w in range(cutoff + 1):
        for mono in enumerate_basis(ctx, w):
            if not _fixed_representative(mono, k, flipped):
                continue
            c, lam = mono
            terms = {mono: 1}
            if flipped and c:
                terms[BasisMonomial(-c, lam)] = (-1) ** len(lam) * twist ** -c
            basis_by_weight.setdefault(w, []).append(Vector(ctx, terms))
    return GradedSubspace(ctx, cutoff, basis_by_weight)


def _closure_bound(ctx: Context, generators, cutoff: int) -> list:
    """dim V^G_w at weights 0..cutoff, for a group G in T x| Z2 read off
    the generators so that it fixes each of them.

    - The torus part is Z_k, for k the gcd of the charges of every
      generator term, or the whole torus T when every charge is 0.
    - The flip part, when there is one, is a conjugated flip
      e_(lambda,c) -> (-1)^{len lambda} s^c e_(lambda,-c) with |s| = 1:
      g phi g^-1 for the rotation g by zeta, with s = zeta^-2.
      On the charges k m that occur, s acts only through u = s^k.  u is
      read off the first generator term of charge +-k, in canonical
      order, and its partner: u = (-1)^{len lambda} a_(lambda,-k) /
      a_(lambda,k).  The flip is left out when no term has charge +-k,
      when the partner is missing, when u conj(u) != 1, or when the
      flip moves a generator.  A smaller G gives a larger bound, which
      is always safe.

    dim V^G_w counts the monomials that _fixed_representative keeps, as
    fixed_point_subspace does, with no elimination and no root of unity
    in ctx.
    """
    k = 0
    for g in generators:
        for mono in g.terms:
            k = gcd(k, mono.charge)

    def fixed_by_a_flip() -> bool:
        u = ctx.one()  # with every charge 0 the flip sees no s
        if k:
            first = next(
                ((g, m.partition) for g in generators for m, _ in g.items() if abs(m.charge) == k),
                None,
            )
            if first is None:
                return False
            g, lam = first
            up, down = g.coeff(BasisMonomial(k, lam)), g.coeff(BasisMonomial(-k, lam))
            if up.is_zero() or down.is_zero():
                return False
            u = down / up * (-1) ** len(lam)
            if not (u * u.conjugate()).is_one():
                return False
        # apply_flip moves the term at charge c to -c; the conjugated flip
        # also scales it by s^c = u^(c/k)
        return all(
            Vector(ctx, {m: u ** (-m.charge // (k or 1)) * a for m, a in apply_flip(g).terms.items()})
            == g
            for g in generators
        )

    flipped = fixed_by_a_flip()
    return [
        sum(_fixed_representative(m, k, flipped) for m in enumerate_basis(ctx, w))
        for w in range(cutoff + 1)
    ]


def _check_members(count: int) -> None:
    if count > MAX_CLOSURE_MEMBERS:
        raise ClosureBudgetError(
            f"subalgebra closure exceeded its member budget of {MAX_CLOSURE_MEMBERS}"
        )


def _check_time(start: float) -> None:
    if monotonic() - start > MAX_CLOSURE_SECONDS:
        raise ClosureBudgetError(
            f"subalgebra closure exceeded its time budget of {MAX_CLOSURE_SECONDS:g} s"
        )


def _strong_closure(ctx: Context, generators, cutoff: int, start: float):
    """The closure's per-weight EchelonSpans by certified strong
    generation, or None when the worklist must answer instead: when a
    generator component lies above the cutoff, or a nonzero check s_(j) t
    does (see close_subalgebra)."""
    strong = []
    for g in generators:
        for w, comp in g.weight_components().items():
            if w > cutoff:
                return None
            if w:
                strong.append(comp)
    spans = {w: EchelonSpan(ctx) for w in range(max(cutoff, 0) + 1)}  # W_0 even below cutoff 0
    spans[0].insert(vacuum(ctx))
    members = 1
    met: dict = {}  # (weight, pivot) -> how many of strong that row of W has met
    checks: list = []  # vectors that must lie in W, for every s, t in strong[:checked]
    checked = 0
    while True:
        for i in range(checked, len(strong)):
            s = strong[i]
            checks += [pct(s), virasoro_apply(1, s)]
            for t in strong[: i + 1]:
                checks += vertex_window(s, t, lo=0).values()
        checked = len(strong)
        checks = [c for c in checks if not c.is_zero()]
        if any(c.weight() > cutoff for c in checks):
            return None
        for w in range(cutoff + 1):
            _check_time(start)
            for pivot, v in spans[w].rows.items():
                for s in strong[met.get((w, pivot), 0):]:
                    ws = s.weight()
                    if ws + w > cutoff:
                        continue
                    for n, u in vertex_window(s, v, lo=ws + w - 1 - cutoff).items():
                        if n < 0 and spans[ws + w - n - 1].insert(u) is not None:
                            members += 1
                            _check_members(members)
                met[w, pivot] = len(strong)
        missing = [c for c in checks if not spans[c.weight()].contains(c)]
        if not missing:
            return spans
        checks = missing  # W only grows, so the other checks still hold
        # grow strong by the lowest missing weight only: a higher missing
        # vector may lie in the next W, and its own checks could land above
        # the cutoff and force a needless fallback
        low = min(c.weight() for c in missing)
        for c in missing:
            if c.weight() == low and spans[low].insert(c) is not None:
                strong.append(c)
                members += 1
                _check_members(members)


def close_subalgebra(ctx: Context, generators, cutoff: int) -> GradedSubspace:
    """Smallest graded span containing the generators that is closed under
    all modes, PCT, and L_1, reported at weights 0..cutoff.

    Everything is split into weight components first.  The closure is
    built by certified strong generation when it can be (below), and
    otherwise by a worklist.  A closure that grows past
    MAX_CLOSURE_MEMBERS members, or that is still running after
    MAX_CLOSURE_SECONDS, raises ClosureBudgetError; the strong path
    counts every row it inserts into W as a member and checks the time
    once per weight of each sweep, the worklist once per member it
    takes up.

    The strong path.  S starts as the positive-weight components of the
    generators, and W is the span of s1_(-k1) ... sr_(-kr)|0> for s_i in
    S and k_i >= 1, made once from the vacuum line W_0 and only grown.  A
    sweep goes up through the weights: each row v of W_w takes one window
    of each s it has not met, from the mode that lands at weight cutoff,
    and its modes n <= -1 are inserted.  s_(-k) raises weight by wt s +
    k - 1 >= 1, so W_w is finished before the sweep reaches it.  A row,
    known by weight and pivot, keeps its count of met s when an insert
    rewrites it to p - c r: the new row r meets every s.  The checks are
    pct(s), L_1 s and s_(j) t for s, t in S and j >= 0.  When every check
    lies in W, W is returned; otherwise the missing checks of the lowest
    missing weight join S and W, and the next sweep starts at weight 0.
    - W is a vertex subalgebra when every s_(j) t, j >= 0, lies in W
      (strong generation, Kac, Vertex Algebras for Beginners, ch. 4).
      By induction on total weight: the commutator formula gives
      s_(m) t_(-k) w = t_(-k) s_(m) w + sum_j C(m, j) (s_(j) t)_(m-k-j) w
      for m >= 0, both terms of lower total weight, and the iterate
      formula writes the modes of x = s_(-k) x' through modes of s and of
      x'.  Only s_(j) t with t no later than s in S is read: W is
      L_{-1}-stable, since [L_{-1}, s_(n)] = -n s_(n-1) and L_{-1}|0> = 0,
      so skew symmetry puts each t_(j) s in W as well.
    - W is then PCT- and L_1-stable: PCT is an antilinear automorphism,
      so pct(s_(n) v) = pct(s)_(n) pct(v), and [L_1, s_(n)] =
      (L_{-1} s)_(n+2) + 2 (L_0 s)_(n+1) + (L_1 s)_(n), with L_1|0> = 0.
    - A negative mode of s raises weight by at least 1, so W is exact up
      to the cutoff, and a check s_(j) t of weight wt s + wt t - j - 1 <=
      cutoff is decided there.
    Why W equals the worklist's span at weights <= cutoff.  Every vector
    that builds W, and every check that joins S, is a product, PCT image
    or L_1 image of vectors in the worklist's span that lands at weight
    <= cutoff, which the worklist also takes: so W lies in its span.
    Conversely W contains the vacuum and the generators and is stable
    under every worklist step, so the span lies in W.  Both paths keep
    reduced echelon bases over the canonical monomial order, which the
    span determines, so the bases are byte-identical.
    The guard.  The worklist answers with the closure under steps that
    land at weight <= cutoff, which can be smaller than the generated
    subalgebra, and it multiplies generator components of any weight.
    So the strong path hands over to the worklist when a generator
    component lies above the cutoff, or when a nonzero check lands above
    it: W above the cutoff is not built, so neither case can be decided,
    and raising the cutoff could give a larger span than the worklist's.

    The worklist keeps adding PCT images, L_1 images, and every product
    a_(n) b that lands at weight <= cutoff, until the per-weight ranks
    stop growing or every weight <= cutoff reaches its fixed-point bound
    (below).  Products of pool vectors of any two weights are considered,
    so generator components above the cutoff still contribute.

    Each unordered pair of members is multiplied once, the later member a
    on the left.  By skew symmetry b_(n) a = sum_j (-1)^(n+j+1)
    L_{-1}^j (a_(n+j) b) / j!, each a_(n+j) b has weight <= cutoff, and
    the span is L_{-1}-stable since the vacuum is member 0 and a_(-2)
    vacuum = L_{-1} a; so the reversed products are already in the span.
    With the earlier member on the left, L_{-1} a would never be admitted.

    The stop rule.  _closure_bound reads off the generators a group G of
    automorphisms in T x| Z2 that fixes each of them, and gives dim V^G_w.
    The closure lies in V^G: the vacuum and the generators are fixed by
    G, G preserves weight, and every step maps fixed vectors to fixed
    vectors:
    - g(a_(n) b) = (g a)_(n) (g b) for an automorphism g, so products of
      fixed vectors are fixed;
    - g fixes nu, so g L_1 = g nu_(2) = nu_(2) g = L_1 g by the first
      point;
    - PCT g PCT = g.  PCT is antilinear, so for the rotation by zeta this
      needs conj(zeta) = 1/zeta, and for the conjugated flip with s it
      needs conj(s) = 1/s, the |s| = 1 that _closure_bound checks.
    So once the rank at weight w equals dim V^G_w, the span there is
    V^G_w and cannot grow.  When that holds at every weight <= cutoff
    (checked before each window), the loop returns.  Its spans are the
    ones a full run ends with, and both are kept as reduced echelon
    bases over the canonical monomial order, which the span determines:
    so the bases are byte-identical.  A closure that stays below its
    bound runs its worklist to the end.

    Each call builds its own EchelonSpan per weight and hands out the
    spans' rows, which nothing else holds.
    """
    generators = list(generators)
    start = monotonic()
    spans = _strong_closure(ctx, generators, cutoff, start)
    if spans is None:
        spans = _worklist_closure(ctx, generators, cutoff, start)
    bases = {w: spans[w].vectors() for w in sorted(spans) if w <= cutoff and spans[w].rank}
    return GradedSubspace(ctx, cutoff, bases)


def _worklist_closure(ctx: Context, generators, cutoff: int, start: float) -> dict:
    """The closure's per-weight EchelonSpans by the worklist with its
    fixed-point stop rule (see close_subalgebra)."""
    bound = _closure_bound(ctx, generators, cutoff)
    spans: dict = {}
    members: list = []
    open_weights = sum(1 for d in bound if d)  # weights <= cutoff below their bound

    def admit(v: Vector) -> None:
        nonlocal open_weights
        components = v.weight_components()
        for w in sorted(components):
            comp = components[w]
            span = spans.get(w)
            if span is None:
                span = spans[w] = EchelonSpan(ctx)
            row = span.insert(comp)
            if row is not None:
                members.append(row)
                _check_members(len(members))
                if w <= cutoff and span.rank == bound[w]:
                    open_weights -= 1

    admit(vacuum(ctx))
    for g in generators:
        admit(g)
    i = 0
    while open_weights and i < len(members):
        _check_time(start)
        x = members[i]
        admit(pct(x))
        admit(virasoro_apply(1, x))
        for j in range(i + 1):
            if not open_weights:
                break
            y = members[j]
            # from the mode that lands at weight cutoff
            window = vertex_window(x, y, lo=x.weight() + y.weight() - 1 - cutoff)
            for n in sorted(window):
                admit(window[n])
        i += 1
    return spans


def project_conformal(sub: GradedSubspace) -> Vector:
    """Orthogonal projection of the ambient conformal vector onto the
    weight-2 piece of a graded subspace."""
    ctx = sub.ctx
    basis = sub.weight_basis(2)
    if not basis:
        return Vector.zero(ctx)
    gram = gram_matrix(ctx, 2, sub)
    rhs = [inner_product(b, conformal_vector(ctx)) for b in basis]
    coeffs = solve(gram, rhs, len(basis), ctx)
    if coeffs is None:
        raise ArithmeticError("degenerate scalar product on the weight-2 piece")
    out = Vector.zero(ctx)
    for c, b in zip(coeffs, basis):
        out = out + b.scale(c)
    return out


def certify_virasoro_vector(
    omega: Vector, central_charge, cutoff: int = 6, mode_range: int = 3
) -> CheckReport:
    """Exact certificate that omega's modes close a Virasoro algebra.

    Verifies L^w_0 omega = 2 omega, L^w_1 omega = L^w_3 omega = L^w_4
    omega = 0, L^w_2 omega = (c/2) vacuum, and the bracket relation
    [L^w_m, L^w_n] = (m - n) L^w_{m+n} + (c/12) (m^3 - m) delta_{m,-n}
    applied to every basis vector of weight <= cutoff, for all
    -mode_range <= n < m <= mode_range.  Every comparison is exact; the
    first failure raises CertificateRefused carrying the defect vector.
    A certificate is a report with one row: the number of basis vectors
    and of relations checked.  No window is bounded globally: each mode
    table is bounded per vector at the lowest mode read from it (L_0 for
    omega's own table; see _bracket_cases for the others).
    """
    ctx = omega.ctx
    c = Fraction(central_charge)
    if omega.is_zero() or not omega.is_homogeneous() or omega.weight() != 2:
        raise ValueError("certificate candidates must be homogeneous of weight 2")
    zero = Vector.zero(ctx)
    counter = [0]

    def demand(lhs: Vector, rhs: Vector, relation: str) -> None:
        counter[0] += 1
        if lhs != rhs:
            raise CertificateRefused(relation, lhs - rhs)

    table = _virasoro_table(omega)
    own = table(omega, 0)
    demand(own.get(0, zero), omega.scale(2), "L_0 omega = 2 omega")
    for m in (1, 3, 4):
        demand(own.get(m, zero), zero, f"L_{m} omega = 0")
    demand(own.get(2, zero), vacuum(ctx).scale(c / 2), "L_2 omega = (c/2) vacuum")

    pool = _unit_pool(ctx, cutoff)
    pairs = [(m, n) for m in range(-mode_range + 1, mode_range + 1) for n in range(-mode_range, m)]
    for v, m, n, lhs, base in _bracket_cases(table, table, pool, pairs):
        rhs = base.get(m + n, zero).scale(m - n)
        if m + n == 0:
            rhs = rhs + v.scale(c * (m**3 - m) / 12)
        demand(lhs, rhs, f"[L_{m}, L_{n}] on {next(iter(v.terms))}")
    params = {
        "central_charge": [c.numerator, c.denominator],
        "cutoff": cutoff,
        "mode_range": mode_range,
    }
    rows = [{"basis_dimension": len(pool), "relations_checked": counter[0], "ok": True}]
    return CheckReport("virasoro-certificate", params, rows)


@lru_cache(maxsize=64)
def _omega_system(ctx: Context) -> tuple:
    """Constraint polynomials in (a, b, bbar) for a nu + b e+ + bbar e-
    to equal half its own weight under its own zero mode.

    Each polynomial is a tuple of ((i, j, k), Scalar) pairs sorted by
    exponent, one per basis monomial where L^w_0 w - 2 w has support.
    """
    if ctx.N != 2:
        raise ValueError("the split conformal ansatz lives in V_{L_4} (N = 2)")
    comps = (
        (conformal_vector(ctx), (1, 0, 0)),
        (charged_vacuum(ctx, 1), (0, 1, 0)),
        (charged_vacuum(ctx, -1), (0, 0, 1)),
    )
    poly_by_mono: dict = {}
    for xv, xe in comps:
        for yv, ye in comps:
            prod = vertex_mode(xv, 1, yv)
            exp = (xe[0] + ye[0], xe[1] + ye[1], xe[2] + ye[2])
            for mono, coeff in prod.terms.items():
                slot = poly_by_mono.setdefault(mono, {})
                prev = slot.get(exp)
                slot[exp] = coeff if prev is None else prev + coeff
    for xv, xe in comps:
        for mono, coeff in xv.terms.items():
            slot = poly_by_mono.setdefault(mono, {})
            prev = slot.get(xe, ctx.zero())
            slot[xe] = prev - coeff * 2
    polys = []
    for mono in sorted(poly_by_mono):
        terms = tuple(
            (e, s) for e, s in sorted(poly_by_mono[mono].items()) if not s.is_zero()
        )
        if terms:
            polys.append(terms)
    return tuple(polys)


def _canonical_poly(terms: tuple) -> tuple:
    inv = terms[0][1].inverse()
    return tuple((e, s * inv) for e, s in terms)


def omega_residuals(ctx: Context, a, b) -> list:
    """Residuals of the conformal-vector constraints at a concrete (a, b).

    bbar is taken to be the conjugate of b; all residuals vanish exactly
    when a nu + b e+ + bbar e- is fixed by half of its own zero mode.
    """
    av = a if isinstance(a, Scalar) else ctx.from_fraction(Fraction(a))
    bv = b if isinstance(b, Scalar) else ctx.from_fraction(Fraction(b))
    values = (av, bv, bv.conjugate())
    out = []
    for poly in _omega_system(ctx):
        total = ctx.zero()
        for (i, j, k), coeff in poly:
            total = total + coeff * values[0] ** i * values[1] ** j * values[2] ** k
        out.append(total)
    return out


def solve_omega_constraint(ctx: Context) -> CheckReport:
    """Derive the constraint system for a nu + b e+ + bbar e- to be its
    own conformal vector, compare it with the reference system
    {2a = 2(a^2 + 4 b bbar), 2b = 4ab, 2bbar = 4 a bbar}, and probe the
    known solution family a = 1/2 with |b| = 1/4 plus the degenerate
    points (1, 0) and (0, 0).  When the conductor allows eighth roots,
    also check the full circle of solutions b = zeta_8^k / 4."""
    system = _omega_system(ctx)
    derived = {_canonical_poly(p) for p in system}

    def build(entries) -> tuple:
        return tuple(sorted((e, ctx.from_fraction(Fraction(c))) for e, c in entries))

    reference = {
        _canonical_poly(build([((1, 0, 0), -1), ((2, 0, 0), 1), ((0, 1, 1), 4)])),
        _canonical_poly(build([((0, 1, 0), -1), ((1, 1, 0), 2)])),
        _canonical_poly(build([((0, 0, 1), -1), ((1, 0, 1), 2)])),
    }
    matches = derived == reference
    rows = [{"relation": "derived system matches the reference constraints", "ok": matches}]

    samples = [
        (Fraction(1, 2), ctx.from_fraction(Fraction(1, 4)), True),
        (Fraction(1, 2), ctx.i() * Fraction(1, 4), True),
        (Fraction(1), ctx.zero(), True),
        (Fraction(0), ctx.zero(), True),
        (Fraction(1, 2), ctx.from_fraction(Fraction(1, 2)), False),
    ]
    for a, b, expect in samples:
        res = omega_residuals(ctx, a, b)
        solves = all(r.is_zero() for r in res)
        rows.append(
            {
                "a": [a.numerator, a.denominator],
                "b": b.to_json(),
                "solves": solves,
                "expected": expect,
                "ok": solves == expect,
            }
        )
    if ctx.conductor % 8 == 0:
        for k in range(8):
            b = ctx.embed_root_of_unity(k, 8) * Fraction(1, 4)
            ok = all(r.is_zero() for r in omega_residuals(ctx, Fraction(1, 2), b))
            rows.append({"relation": f"a = 1/2, b = zeta_8^{k}/4 solves", "ok": ok})
    return CheckReport(
        "omega-constraint",
        {"N": ctx.N, "conductor": ctx.conductor, "equations": len(system)},
        rows,
    )


def verify_w_tensor_split(ctx: Context, cutoff: int = 6, mode_range: int = 2) -> CheckReport:
    """The split conformal vectors at angles 0 and pi sum to the full
    conformal vector, and their Virasoro actions commute on every basis
    vector up to the cutoff.  Each mode table is bounded per vector at
    the lowest mode _bracket_cases asks of it, not at one global window."""
    if ctx.N != 2:
        raise ValueError("the split pair lives in V_{L_4} (N = 2)")
    w0 = split_virasoro_vector(ctx, 0, 1)
    wpi = split_virasoro_vector(ctx, 1, 2)
    sum_ok = (w0 + wpi) == conformal_vector(ctx)
    zero = Vector.zero(ctx)
    span = range(-mode_range, mode_range + 1)
    x, y = _virasoro_table(w0), _virasoro_table(wpi)
    cases = _bracket_cases(x, y, _unit_pool(ctx, cutoff), product(span, span))
    rows = [
        {"relation": "omega_0 + omega_pi = nu", "ok": sum_ok},
        _identity_row(
            f"[L^0_m, L^pi_n] = 0 for |m|, |n| <= {mode_range}",
            ((lhs, zero, (v, m, n)) for v, m, n, lhs, _ in cases),
        ),
    ]
    params = {"N": ctx.N, "cutoff": cutoff, "mode_range": mode_range}
    return CheckReport("w-tensor-split", params, rows)


def sl2_zero_mode_check(ctx: Context | None = None, cutoff: int = 4) -> CheckReport:
    """Zero modes of the charged vacua and the Heisenberg vector close
    sl(2) at N = 1, and the zero-mode bracket agrees with the zero mode
    of the product on every basis vector up to the cutoff."""
    if ctx is None:
        ctx = Context(1)
    if ctx.N != 1:
        raise ValueError("the sl(2) triple lives at N = 1")
    e = charged_vacuum(ctx, 1)
    f = charged_vacuum(ctx, -1)
    j = Vector.monomial(ctx, (-1,), 0)
    h = j.scale(ctx.sqrt_2n())
    zero = Vector.zero(ctx)

    named = {"E": e, "F": f, "H": h}
    br = {(p, q): vertex_mode(named[p], 0, named[q]) for p in named for q in named}
    relations = [
        ("[H, E] = 2E", br["H", "E"], e.scale(2)),
        ("[H, F] = -2F", br["H", "F"], f.scale(-2)),
        ("[E, F] = H", br["E", "F"], h),
        ("[E, H] = -2E", br["E", "H"], e.scale(-2)),
        ("[F, H] = 2F", br["F", "H"], f.scale(2)),
        ("[F, E] = -H", br["F", "E"], -h),
        ("[H, H] = 0", br["H", "H"], zero),
        ("[E, E] = 0", br["E", "E"], zero),
        ("[F, F] = 0", br["F", "F"], zero),
    ]
    rows = [{"relation": name, "ok": lhs == rhs} for name, lhs, rhs in relations]

    weight_one = (e, f, j)
    ortho = all(
        inner_product(a, b) == (ctx.one() if i == k else ctx.zero())
        for i, a in enumerate(weight_one)
        for k, b in enumerate(weight_one)
    )
    rows.append({"relation": "weight-one basis orthonormal", "ok": ortho})

    def operator_cases():
        # one pass per vector: its three zero-mode images and their nine images
        for v in _unit_pool(ctx, cutoff):
            once = {q: vertex_mode(b, 0, v) for q, b in named.items()}
            twice = {(p, q): vertex_mode(named[p], 0, once[q]) for p, q in br}
            for p, q in br:
                yield twice[p, q] - twice[q, p], vertex_mode(br[p, q], 0, v), (v, 0, 0)

    rows.append(_identity_row("[a_(0), b_(0)] = (a_(0) b)_(0)", operator_cases()))
    return CheckReport("sl2-zero-modes", {"N": ctx.N, "cutoff": cutoff}, rows)


# decomposition space -> (group whose fixed points it is, step s of the
# neutral weights (s p)^2, multiplicity of the charged weights N m^2)
_DECOMPOSITION_SPACES = {
    "V": ("Z1", 1, 2),
    "M1": ("T", 1, 0),
    "V+": ("D1", 2, 1),
    "M1+": ("Dinf", 2, 0),
}


def verify_decomposition(ctx: Context, which: str, cutoff: int) -> DecompositionReport:
    """Compare honest graded dimensions against central charge 1 character sums.

    which selects the space: "V" is the whole algebra, "M1" the torus
    fixed points, "V+" the flip fixed points, "M1+" both.  Each is the
    fixed-point space of a group, and its character is the sum of
    ch(1, (s p)^2) over p >= 0 plus mult times the sum of ch(1, N m^2)
    over m >= 1, with s and mult from _DECOMPOSITION_SPACES.  The charged
    families of "V" and "V+" require N non-square, since their character
    formulas assume the charged conformal weights are never squares.
    """
    if which not in _DECOMPOSITION_SPACES:
        raise ValueError('which must be one of "V", "M1", "V+", "M1+"')
    group, step, mult = _DECOMPOSITION_SPACES[which]
    n_lat = ctx.N
    if mult and isqrt(n_lat) ** 2 == n_lat:
        raise ValueError("charged-sector characters need N non-square")

    lhs = fixed_point_subspace(ctx, group, cutoff).dims()
    sectors = [((step * p) ** 2, 1) for p in range(isqrt(cutoff) // step + 1)]
    sectors += [(n_lat * m * m, mult) for m in range(1, isqrt(cutoff // n_lat) + 1)]
    rhs = [0] * (cutoff + 1)
    for h, times in sectors:
        for w, d in enumerate(virasoro_character(1, h, cutoff)):
            rhs[w] += times * d

    per_weight = [
        {"w": w, "lhs": lhs[w], "rhs": rhs[w], "ok": lhs[w] == rhs[w]}
        for w in range(cutoff + 1)
    ]
    params = {"N": n_lat, "cutoff": cutoff}
    return DecompositionReport(f"decomposition:{which}", params, per_weight)


def axiom_report(ctx: Context, cutoff: int, mode_range: int = 4) -> CheckReport:
    """Creation, translation covariance, and the three commutator families,
    checked as exact operator identities on every basis vector up to the
    cutoff with modes in [-mode_range, mode_range]."""
    zero = Vector.zero(ctx)
    vac = vacuum(ctx)
    pool = _unit_pool(ctx, cutoff)
    small = [a for a in pool if a.weight() <= min(3, cutoff)]
    modes = range(-mode_range, mode_range + 1)

    def creation():
        for a in pool:
            window = vertex_window(a, vac, lo=-1)
            for n in range(mode_range + 1):
                yield window.get(n, zero), zero
            yield window.get(-1, zero), a

    def translation():
        for a in small:
            shifted_a = virasoro_apply(-1, a)
            for b in pool:
                shifted = vertex_window(shifted_a, b, lo=-mode_range)
                plain = vertex_window(a, b, lo=-mode_range - 1)
                for n in modes:
                    yield shifted.get(n, zero), plain.get(n - 1, zero).scale(-n)

    # both tables build exactly the modes that pairs reads and ignore lo;
    # no check here reads x_{m+n} v from the x-table
    def heis(v: Vector, lo: int) -> dict:
        return {k: heis_apply(k, v) for k in modes}

    def vir(v: Vector, lo: int) -> dict:
        return {k: virasoro_apply(k, v) for k in modes}

    def heisenberg():
        for v, m, n, lhs, _ in _bracket_cases(heis, heis, pool, product(modes, modes)):
            yield lhs, v.scale(m) if m + n == 0 else zero, (v, m, n)

    def virasoro():
        ordered = [(m, n) for m in modes for n in range(-mode_range, m + 1)]
        for v, m, n, lhs, _ in _bracket_cases(vir, vir, pool, ordered):
            rhs = virasoro_apply(m + n, v).scale(m - n)
            if m + n == 0:
                rhs = rhs + v.scale(Fraction(m**3 - m, 12))
            yield lhs, rhs, (v, m, n)

    def mixed():
        for v, m, n, lhs, _ in _bracket_cases(vir, heis, pool, product(modes, modes)):
            yield lhs, heis_apply(m + n, v).scale(-n), (v, m, n)

    rows = [
        _identity_row("a_(n) vacuum = 0 for n >= 0 and a_(-1) vacuum = a", creation()),
        _identity_row("(L_{-1} a)_(n) = -n a_(n-1)", translation()),
        _identity_row("[J_m, J_n] = m delta_{m,-n}", heisenberg()),
        _identity_row("[L_m, L_n] = (m-n) L_{m+n} + (m^3-m)/12 delta_{m,-n}", virasoro()),
        _identity_row("[L_m, J_n] = -n J_{m+n}", mixed()),
    ]
    params = {"N": ctx.N, "cutoff": cutoff, "mode_range": mode_range}
    return CheckReport("axioms", params, rows)


def lemma_weight4_report(ctx: Context) -> CheckReport:
    """The quartic weight-4 vector is primary, and the two weight-4
    Virasoro descendants of the vacuum line have their closed forms."""
    u = weight4_primary(ctx)
    rows = []
    for m in range(1, 7):
        rows.append(
            {"relation": f"L_{m} u = 0", "ok": virasoro_apply(m, u).is_zero()}
        )
    lm2 = Vector(
        ctx,
        {
            BasisMonomial(0, (-1, -1, -1, -1)): Fraction(1, 4),
            BasisMonomial(0, (-3, -1)): 1,
        },
    )
    rows.append(
        {
            "relation": "L_{-2} nu = (1/4) J^4 vacuum + J_{-3} J_{-1} vacuum",
            "ok": virasoro_apply(-2, conformal_vector(ctx)) == lm2,
        }
    )
    lm4 = Vector(
        ctx,
        {
            BasisMonomial(0, (-2, -2)): Fraction(1, 2),
            BasisMonomial(0, (-3, -1)): 1,
        },
    )
    rows.append(
        {
            "relation": "L_{-4} vacuum = (1/2) J_{-2}^2 vacuum + J_{-3} J_{-1} vacuum",
            "ok": virasoro_apply(-4, vacuum(ctx)) == lm4,
        }
    )
    return CheckReport("lemma-weight4", {"N": ctx.N}, rows)


def mode_prop_report(conductor: int = 4) -> CheckReport:
    """Charged vacuum products at the two singular mode depths.

    With g^2 = 2N: the depth g^2-2 product of opposite charged vacua is
    (+/-) g J_{-1} vacuum, and the depth g^2-5 self-product of the pair
    e_+ + b e_- is b times the quartic vector v_g."""
    rows = []
    for n_lat in (2, 3):
        ctx = Context(n_lat, conductor)
        gsq = 2 * n_lat
        ep, em = charged_vacuum(ctx, 1), charged_vacuum(ctx, -1)
        gj = Vector.monomial(ctx, (-1,), 0, ctx.sqrt_2n())
        rows.append(
            {
                "relation": f"N={n_lat}: (e_+)_(g^2-2) e_- = g J_{{-1}} vacuum",
                "ok": vertex_mode(ep, gsq - 2, em) == gj,
            }
        )
        rows.append(
            {
                "relation": f"N={n_lat}: (e_-)_(g^2-2) e_+ = -g J_{{-1}} vacuum",
                "ok": vertex_mode(em, gsq - 2, ep) == -gj,
            }
        )
        vg = Vector(
            ctx,
            {
                BasisMonomial(0, (-1, -1, -1, -1)): Fraction(gsq * gsq, 12),
                BasisMonomial(0, (-3, -1)): Fraction(2 * gsq, 3),
                BasisMonomial(0, (-2, -2)): Fraction(gsq, 4),
            },
        )
        for b_name, b in (("1", ctx.one()), ("i", ctx.i())):
            e = ep + em.scale(b)
            rows.append(
                {
                    "relation": f"N={n_lat}, b={b_name}: (e_b)_(g^2-5) e_b = b v_g",
                    "ok": vertex_mode(e, gsq - 5, e) == vg.scale(b),
                }
            )
    return CheckReport("mode-prop", {"conductor": conductor}, rows)


def fixed_points_report(ctx: Context, cutoff: int, k: int = 2) -> CheckReport:
    """Cyclic fixed points match the rescaled lattice; torus fixed points
    count partitions."""
    target = Context(ctx.N * k * k, ctx.conductor)
    zdims = fixed_point_subspace(ctx, f"Z{k}", cutoff).dims()
    ldims = [len(enumerate_basis(target, w)) for w in range(cutoff + 1)]
    tdims = fixed_point_subspace(ctx, "T", cutoff).dims()
    pdims = [partition_count(w) for w in range(cutoff + 1)]
    rows = [
        {
            "relation": f"Z{k} fixed dims match N={target.N} graded dims",
            "dims": zdims,
            "ok": zdims == ldims,
        },
        {
            "relation": "torus fixed dims are the partition numbers",
            "dims": tdims,
            "ok": tdims == pdims,
        },
    ]
    params = {"N": ctx.N, "k": k, "cutoff": cutoff}
    return CheckReport("fixed-points", params, rows)


def decomposition_reports(ctx: Context, cutoff: int) -> list:
    """Decomposition checks of every space whose character formula holds at ctx.N."""
    # the charged families need N non-square; the others hold for any N
    square = isqrt(ctx.N) ** 2 == ctx.N
    return [
        verify_decomposition(ctx, name, cutoff)
        for name, (_, _, mult) in _DECOMPOSITION_SPACES.items()
        if not (mult and square)
    ]


def virasoro_report(omega: Vector, central_charge, cutoff: int) -> CheckReport:
    """The Virasoro certificate of omega as a report; a refusal becomes
    one failing row naming the relation that broke."""
    c = Fraction(central_charge)
    params = {"N": omega.ctx.N, "central_charge": [c.numerator, c.denominator], "cutoff": cutoff}
    try:
        cert = certify_virasoro_vector(omega, c, cutoff=cutoff)
    except CertificateRefused as refusal:
        defect = vector_to_json(refusal.defect)
        rows = [{"relation": refusal.relation, "defect": defect, "ok": False}]
    else:
        rows = [{"relation": "all bracket relations hold", **cert.rows[0]}]
    return CheckReport("virasoro-certificate", params, rows)
