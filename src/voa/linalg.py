"""Exact dense linear algebra over the scalar field.

Everything here is plain Gaussian elimination on small matrices (a few
hundred entries at most) whose entries are field Scalars; exactness is
the point, not asymptotics.  Kernel bases come out in reduced echelon
form with respect to the supplied column order, so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

from .scalars import Context, Scalar
from .state_space import BasisMonomial, Vector


def coordinate_rows(vectors, monomials) -> list:
    """Coordinates of each vector over an ordered monomial list."""
    return [[v.coeff(m) for m in monomials] for v in vectors]


def support_monomials(vectors) -> list:
    """Union of supports, canonically ordered."""
    monos = set()
    for v in vectors:
        monos.update(v.terms)
    return sorted(monos, key=BasisMonomial.sort_key)


def rref(rows, ncols: int):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not rows[i][col].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rowr = rows[r]
                rows[i] = [a - f * b for a, b in zip(rows[i], rowr)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def kernel_basis(rows, ncols: int, ctx: Context) -> list:
    """Null space of the matrix, reduced-echelon over the column order."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    zero, one = ctx.zero(), ctx.one()
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        out.append(vec)
    return out


def solve(rows, rhs, ncols: int, ctx: Context):
    """One solution of A x = rhs with free variables zero, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, ncols)
    nres = len(pivots)
    for row in red[nres:]:
        if not row[ncols].is_zero():
            return None
    vec = [ctx.zero()] * ncols
    for r, p in enumerate(pivots):
        vec[p] = red[r][ncols]
    return vec


def determinant(rows, ctx: Context) -> Scalar:
    n = len(rows)
    if n == 0:
        return ctx.one()
    rows = [list(r) for r in rows]
    det = ctx.one()
    for col in range(n):
        pr = None
        for i in range(col, n):
            if not rows[i][col].is_zero():
                pr = i
                break
        if pr is None:
            return ctx.zero()
        if pr != col:
            rows[col], rows[pr] = rows[pr], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for i in range(col + 1, n):
            if not rows[i][col].is_zero():
                f = rows[i][col] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return det


def leading_principal_minors(rows, ctx: Context) -> list:
    return [
        determinant([r[: k + 1] for r in rows[: k + 1]], ctx)
        for k in range(len(rows))
    ]


class EchelonSpan:
    """Incremental reduced echelon basis for a span of sparse vectors.

    Pivot monomials follow the canonical order; stored rows have pivot
    coefficient one and contain no other pivot, so membership reduction
    is a single pass.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vector) -> Vector:
        hits = [m for m in v.terms if m in self.rows]
        if not hits:
            return v
        cur = v
        for mono in sorted(hits, key=BasisMonomial.sort_key):
            c = cur.terms.get(mono)
            if c is not None and not c.is_zero():
                cur = cur - self.rows[mono].scale(c)
        return cur

    def contains(self, v: Vector) -> bool:
        return self.reduce(v).is_zero()

    def insert(self, v: Vector):
        """Insert v's residue; returns the stored normalized row, or None."""
        r = self.reduce(v)
        if r.is_zero():
            return None
        pivot = min(r.terms, key=BasisMonomial.sort_key)
        row = r.scale(r.terms[pivot].inverse())
        for p, existing in list(self.rows.items()):
            c = existing.terms.get(pivot)
            if c is not None and not c.is_zero():
                self.rows[p] = existing - row.scale(c)
        self.rows[pivot] = row
        return row

    def add(self, v: Vector) -> bool:
        """Insert v's residue; returns True when the span grew."""
        return self.insert(v) is not None

    def vectors(self) -> list:
        """Basis rows ordered by pivot monomial."""
        return [self.rows[p] for p in sorted(self.rows, key=BasisMonomial.sort_key)]


def operator_kernel(ctx: Context, domain, operators) -> list:
    """Joint kernel of linear maps on the span of an independent domain list.

    Finds the combinations sum_i x_i domain[i] killed by every operator;
    the result is in reduced echelon form with respect to the domain
    order, so it is deterministic.
    """
    domain = list(domain)
    if not domain:
        return []
    images = [[op(v) for op in operators] for v in domain]
    col_monos = [
        support_monomials([imgs[j] for imgs in images]) for j in range(len(operators))
    ]
    # constraint matrix: one row per (operator, monomial) coordinate,
    # one column per domain vector
    mat = []
    for j, monos in enumerate(col_monos):
        for m in monos:
            mat.append([images[i][j].coeff(m) for i in range(len(domain))])
    coeff_sets = kernel_basis(mat, len(domain), ctx)
    out = []
    for coeffs in coeff_sets:
        acc = Vector.zero(ctx)
        for c, v in zip(coeffs, domain):
            if not c.is_zero():
                acc = acc + v.scale(c)
        out.append(acc)
    return out
