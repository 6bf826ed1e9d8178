"""Exact linear algebra over the scalar field, on one elimination engine.

EchelonSpan is incremental Gauss-Jordan elimination on sparse Vectors
whose keys order themselves: basis monomials in their canonical tuple
order, matrix column indices, or operator_kernel's graph keys.  rank,
solve and operator_kernel all run on it.  A span's rows are the unique
reduced echelon basis of the span over its key order, so identical
inputs give byte-identical outputs.  Kernel bases are reduced echelon
over the reversed domain order: each kernel vector has coefficient one
at the last domain vector it uses, which no other kernel vector uses,
and the vectors are listed by that index, ascending.
"""

from __future__ import annotations

from .scalars import Context
from .state_space import Vector, raw_vector


def coordinate_rows(vectors, monomials) -> list:
    """Coordinates of each vector over an ordered monomial list."""
    return [[v.coeff(m) for m in monomials] for v in vectors]


def support_monomials(vectors) -> list:
    """Union of supports, canonically ordered."""
    monos = set()
    for v in vectors:
        monos.update(v.terms)
    return sorted(monos)


class EchelonSpan:
    """Incremental reduced echelon basis for a span of sparse vectors.

    Each stored row has coefficient one at its pivot, its minimum key,
    and no row holds another row's pivot.  So reducing v by the span is
    v - sum v[p] row_p over the pivots p among v's own terms, in any
    order.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vector) -> Vector:
        out = v
        for key, c in v.terms.items():
            row = self.rows.get(key)
            if row is not None:
                out = out + row.scale(-c)
        return out

    def contains(self, v: Vector) -> bool:
        return self.reduce(v).is_zero()

    def insert(self, v: Vector):
        """Insert v's residue; returns the stored normalized row, or None."""
        r = self.reduce(v)
        if r.is_zero():
            return None
        pivot = min(r.terms)
        row = r.scale(r.terms[pivot].inverse())
        for p, existing in list(self.rows.items()):
            c = existing.terms.get(pivot)
            if c is not None:
                self.rows[p] = existing + row.scale(-c)
        self.rows[pivot] = row
        return row

    def add(self, v: Vector) -> bool:
        """Insert v's residue; returns True when the span grew."""
        return self.insert(v) is not None

    def vectors(self) -> list:
        """Basis rows ordered by pivot."""
        return [self.rows[p] for p in sorted(self.rows)]


def _row_span(ctx: Context, rows) -> EchelonSpan:
    """The span of matrix rows, each entered as a Vector keyed by column index."""
    span = EchelonSpan(ctx)
    for row in rows:
        span.insert(Vector(ctx, dict(enumerate(row))))
    return span


def rank(rows, ncols: int) -> int:
    """Rank of the first ncols columns; the context is read off the entries."""
    rows = [row[:ncols] for row in rows]
    ctx = next((x.ctx for row in rows for x in row), None)
    return 0 if ctx is None else _row_span(ctx, rows).rank


def solve(rows, rhs, ncols: int, ctx: Context):
    """One solution of A x = rhs with free variables zero, or None.

    rhs enters each row at column ncols, so a row pivoted there means
    the system has no solution."""
    span = _row_span(ctx, [list(row[:ncols]) + [b] for row, b in zip(rows, rhs)])
    if ncols in span.rows:
        return None
    x = [ctx.zero()] * ncols
    for p, row in span.rows.items():
        x[p] = row.coeff(ncols)
    return x


def operator_kernel(ctx: Context, domain, operators) -> list:
    """Joint kernel of linear maps on the span of an independent domain list.

    Each domain vector d_i enters one EchelonSpan as its graph: op_j(d_i)
    at keys (0, j, monomial) and 1 at (1, -i).  Every image key sorts
    before every domain key, so the rows pivoted at a domain key are the
    kernel's reduced echelon basis over the reversed domain order; they
    are returned as combinations of the domain, by ascending pivot index
    i, so identical inputs give byte-identical outputs.
    """
    domain = list(domain)
    span = EchelonSpan(ctx)
    one = ctx.one()
    for i, d in enumerate(domain):
        graph = {(0, j, m): c for j, op in enumerate(operators) for m, c in op(d).terms.items()}
        graph[(1, -i)] = one
        span.insert(raw_vector(ctx, graph))
    out = []
    for pivot in sorted((p for p in span.rows if p[0]), reverse=True):
        row = span.rows[pivot]
        acc = Vector.zero(ctx)
        for i, d in enumerate(domain):
            c = row.terms.get((1, -i))
            if c is not None:
                acc = acc + d.scale(c)
        out.append(acc)
    return out
