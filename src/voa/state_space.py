"""Graded state space of the rank-one even lattice vertex algebra.

For the lattice L_{2N} = Z alpha with (alpha|alpha) = 2N, the space is
spanned by monomials

    J_{n_1} ... J_{n_s} Omega (x) e^{k alpha},   n_1 <= ... <= n_s <= -1,

where J = alpha / sqrt(2N) is the normalized Heisenberg generator and k
is an integer charge.  A monomial is encoded as the tuple (charge,
partition), the partition being the ascending tuple of strictly negative
modes; its conformal weight is N k^2 - sum n_j, always a nonnegative
integer.

Canonical ordering of monomials is tuple order: charge first, then
partition lexicographic.  Every serialized vector and every computed
basis follows it.

The module also carries the antiunitary PCT operator theta, the linear
charge flip phi, the torus automorphisms g_{2N,t} with t = 2 pi p / q,
and the sesquilinear scalar product in which distinct monomials are
orthogonal and a pure Fock monomial has squared norm prod_m m^{a_m} a_m!
(a_m the multiplicity of mode -m), the normalization forced by
J_m^dagger = J_{-m} and [J_m, J_{-m}] = m on unit-norm charged vacua.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from types import MappingProxyType

from .scalars import Context, ContextMismatchError, Scalar, json_int, scalar_from_json


@lru_cache(maxsize=256)
def partitions_of(n: int) -> tuple:
    """All partitions of n as descending tuples of positive parts."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def partition_count(n: int) -> int:
    return len(partitions_of(n))


def z_lambda(parts) -> int:
    """prod over part sizes m of m^{a_m} a_m!, with a_m the multiplicity of m."""
    out = 1
    for m, a in Counter(parts).items():
        out *= m**a * factorial(a)
    return out


class BasisMonomial(namedtuple("_Monomial", "charge partition")):
    """One basis monomial: charge and mode partition (ascending, negative).

    A tuple (charge, partition), so hashing, equality and ordering run
    in C; it equals the plain tuple of the same fields, and tuple order
    is the canonical order, so a plain sort of monomials is canonical.
    """

    __slots__ = ()

    def __new__(cls, charge: int, partition: tuple):
        if any(m >= 0 for m in partition):
            raise ValueError(f"modes must be strictly negative: {partition}")
        if list(partition) != sorted(partition):
            raise ValueError(f"modes must be ascending: {partition}")
        return tuple.__new__(cls, (charge, partition))

    def weight(self, n_lat: int) -> int:
        return n_lat * self.charge * self.charge - sum(self.partition)

    def norm_factor(self) -> int:
        """Squared norm of the monomial: z_lambda of its mode sizes."""
        return z_lambda([-m for m in self.partition])

    def __str__(self):
        js = "".join(f"J({m})" for m in self.partition)
        return f"{js}|k={self.charge}>"

    __repr__ = __str__


class Vector:
    """Finite linear combination of basis monomials with Scalar coefficients.

    Treated as immutable: all operations return fresh vectors and zero
    coefficients are dropped eagerly.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        clean = {}
        if terms:
            for mono, coeff in dict(terms).items():
                if not isinstance(coeff, Scalar):
                    coeff = ctx.from_fraction(coeff)
                elif coeff.ctx is not ctx and coeff.ctx != ctx:
                    raise ContextMismatchError(
                        f"coefficient context {coeff.ctx} does not match vector context {ctx}"
                    )
                if not coeff.is_zero():
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, ctx: Context) -> "Vector":
        return cls(ctx)

    @classmethod
    def monomial(cls, ctx: Context, partition, charge: int, coeff=1) -> "Vector":
        return cls(ctx, {BasisMonomial(charge, tuple(partition)): coeff})

    def coeff(self, mono: BasisMonomial) -> Scalar:
        return self.terms.get(mono, self.ctx.zero())

    def items(self):
        """Terms in canonical (charge, partition) order."""
        return sorted(self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Vector") -> "Vector":
        if other.ctx != self.ctx:
            raise ContextMismatchError("cannot add vectors over different contexts")
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            cur = out.get(mono)
            new = coeff if cur is None else cur + coeff
            if new.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = new
        return raw_vector(self.ctx, out)

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def __neg__(self) -> "Vector":
        return raw_vector(self.ctx, {m: -c for m, c in self.terms.items()})

    def scale(self, factor) -> "Vector":
        if not isinstance(factor, Scalar):
            factor = self.ctx.from_fraction(factor)
        if factor.is_zero():
            return Vector(self.ctx)
        return raw_vector(
            self.ctx, {m: v for m, c in self.terms.items() if not (v := factor * c).is_zero()}
        )

    def __rmul__(self, factor) -> "Vector":
        return self.scale(factor)

    __mul__ = __rmul__

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def weights(self) -> set:
        return {m.weight(self.ctx.N) for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def weight(self) -> int | None:
        ws = self.weights()
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError(f"vector is not homogeneous, weights {sorted(ws)}")
        return ws.pop()

    def weight_components(self) -> dict:
        out: dict = {}
        n_lat = self.ctx.N
        for mono, coeff in self.terms.items():
            out.setdefault(mono.weight(n_lat), {})[mono] = coeff
        return {w: raw_vector(self.ctx, t) for w, t in sorted(out.items())}

    def charges(self) -> set:
        return {m.charge for m in self.terms}

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{m}" for m, c in self.items())

    __repr__ = __str__


def raw_vector(ctx: Context, terms: dict) -> Vector:
    """Unvalidated Vector over ctx: terms must map monomials to nonzero
    Scalars of ctx, and the vector takes the dict over uncopied."""
    out = Vector.__new__(Vector)
    out.ctx = ctx
    out.terms = terms
    return out


@lru_cache(maxsize=100_000)
def _mk_mono(charge: int, partition: tuple) -> BasisMonomial:
    """The interning constructor of the engine's outputs: one BasisMonomial
    per (charge, partition) while its entry stays in the cache, so dict
    lookups on engine outputs hit on identity.  The bound of 100000
    entries is far above the 866 distinct monomials of the largest
    benchmark workload.  Equality stays by value, so an evicted entry
    costs only speed.  Trusted fast path: the partition must already be an
    ascending tuple of negative modes, since BasisMonomial's validating
    __new__ is skipped.  Vectors built from user input or by the set-up
    constructors do not come through here, so a fresh process starts with
    this cache empty."""
    return tuple.__new__(BasisMonomial, (charge, partition))


def _flip_terms(terms: dict, lab: int) -> dict:
    """phi-image of the {monomial: coefficient} terms, Scalars or the
    kernel's ints, of a product of factors with lab J-factors: each
    monomial's charge negated, its coefficient times
    (-1)^(len(partition) - lab).  The one statement of the charge flip's
    sign rule."""
    return {
        _mk_mono(-m.charge, m.partition): -c if (len(m.partition) - lab) & 1 else c
        for m, c in terms.items()
    }


def vacuum(ctx: Context) -> Vector:
    return Vector.monomial(ctx, (), 0)


def charged_vacuum(ctx: Context, charge: int) -> Vector:
    """Omega (x) e^{charge * alpha}."""
    return Vector.monomial(ctx, (), charge)


def conformal_vector(ctx: Context) -> Vector:
    """nu = (1/2) J_{-1}^2 Omega, the rank-one free boson conformal vector."""
    return Vector.monomial(ctx, (-1, -1), 0, Fraction(1, 2))


def weight4_primary(ctx: Context) -> Vector:
    """The weight-4 Virasoro primary (1/2 J_{-1}^4 - J_{-3}J_{-1} + 3/4 J_{-2}^2) Omega."""
    return Vector(
        ctx,
        {
            BasisMonomial(0, (-1, -1, -1, -1)): Fraction(1, 2),
            BasisMonomial(0, (-3, -1)): Fraction(-1),
            BasisMonomial(0, (-2, -2)): Fraction(3, 4),
        },
    )


def charge_pair_vector(ctx: Context, m: int = 1, minus_coeff=1) -> Vector:
    """Omega (x) e^{m alpha} + b * Omega (x) e^{-m alpha} for a scalar b."""
    b = minus_coeff if isinstance(minus_coeff, Scalar) else ctx.from_fraction(minus_coeff)
    return Vector(ctx, {BasisMonomial(m, ()): 1}) + Vector(ctx, {BasisMonomial(-m, ()): b})


def split_virasoro_vector(ctx: Context, p: int = 0, q: int = 1) -> Vector:
    """nu/2 + (zeta_q^p e^{alpha} + zeta_q^{-p} e^{-alpha})/4 in V_{L_4}.

    Defined for N = 2 only; its modes close a Virasoro algebra of central
    charge 1/2 for every angle 2 pi p / q.
    """
    if ctx.N != 2:
        raise ValueError("split conformal vectors live in V_{L_4} (N = 2)")
    phase = ctx.embed_root_of_unity(p, q)
    quarter = Fraction(1, 4)
    return conformal_vector(ctx).scale(Fraction(1, 2)) + Vector(
        ctx,
        {
            BasisMonomial(1, ()): quarter * phase,
            BasisMonomial(-1, ()): quarter * phase.conjugate(),
        },
    )


@lru_cache(maxsize=1024)
def enumerate_basis(ctx: Context, weight: int) -> tuple:
    """All basis monomials of the given weight, canonically ordered."""
    if weight < 0:
        return ()
    out = []
    kmax = isqrt(weight // ctx.N)
    for k in range(-kmax, kmax + 1):
        for parts in partitions_of(weight - ctx.N * k * k):
            out.append(BasisMonomial(k, tuple(-p for p in parts)))
    out.sort()
    return tuple(out)


def apply_flip(v: Vector) -> Vector:
    """Linear automorphism phi: J_n -> -J_n, e^{k alpha} -> e^{-k alpha}."""
    return raw_vector(v.ctx, _flip_terms(v.terms, 0))


def pct(v: Vector) -> Vector:
    """Antiunitary PCT operator: the charge flip phi with conjugated coefficients."""
    return raw_vector(v.ctx, {m: c.conjugate() for m, c in apply_flip(v).terms.items()})


def apply_torus(v: Vector, p: int, q: int) -> Vector:
    """Torus automorphism g_{2N,t} at angle t = 2 pi p / q: phase zeta_q^{pk} on charge k."""
    ctx = v.ctx
    phases = {k: ctx.embed_root_of_unity(p * k, q) for k in v.charges()}
    return Vector(ctx, {m: phases[m.charge] * c for m, c in v.terms.items()})


def inner_product(u: Vector, v: Vector) -> Scalar:
    """Sesquilinear scalar product, antilinear in the first argument."""
    if u.ctx != v.ctx:
        raise ContextMismatchError("scalar product needs a common context")
    total = u.ctx.zero()
    small = u if len(u.terms) <= len(v.terms) else v
    for mono in small.terms:
        cu = u.terms.get(mono)
        cv = v.terms.get(mono)
        if cu is None or cv is None:
            continue
        total = total + cu.conjugate() * cv * Fraction(mono.norm_factor())
    return total


def gram_matrix(ctx: Context, weight: int, subspace=None) -> list:
    """Gram matrix of the canonical weight basis, or of a subspace's basis."""
    if subspace is None:
        vectors = [Vector(ctx, {m: 1}) for m in enumerate_basis(ctx, weight)]
    else:
        vectors = subspace.weight_basis(weight)
    return [[inner_product(a, b) for b in vectors] for a in vectors]


@dataclass(frozen=True)
class GradedSubspace:
    """A weight-graded subspace given by per-weight basis vectors.

    Frozen: the bases are stored as tuples behind a read-only mapping, so
    a caller cannot add, drop or reorder basis vectors.
    """

    ctx: Context
    cutoff: int
    basis_by_weight: Mapping

    def __post_init__(self):
        frozen = {w: tuple(vs) for w, vs in self.basis_by_weight.items()}
        object.__setattr__(self, "basis_by_weight", MappingProxyType(frozen))

    def weight_basis(self, w: int) -> list:
        return list(self.basis_by_weight.get(w, ()))

    def dims(self) -> list:
        return [len(self.basis_by_weight.get(w, ())) for w in range(self.cutoff + 1)]

    def total_dim(self) -> int:
        return sum(self.dims())


def vector_to_json(v: Vector) -> dict:
    return {
        "N": v.ctx.N,
        "terms": [
            {
                "partition": list(m.partition),
                "charge": m.charge,
                "coeff": c.to_json(),
            }
            for m, c in v.items()
        ],
    }


def vector_from_json(data: dict, ctx: Context | None = None) -> Vector:
    """Parse vector JSON; malformed input raises ValueError."""
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise ValueError("vector JSON must be an object with N and a terms list")
    n_lat = json_int(data.get("N"), "vector N")
    if ctx is not None and ctx.N != n_lat:
        raise ContextMismatchError(
            f"vector JSON has N={n_lat}, context has N={ctx.N}"
        )
    terms = {}
    built = ctx
    for term in data["terms"]:
        if not isinstance(term, dict) or not isinstance(term.get("partition"), list):
            raise ValueError(f"vector term must be an object with a partition list, got {term!r}")
        partition = tuple(json_int(m, "partition mode") for m in term["partition"])
        mono = BasisMonomial(json_int(term.get("charge"), "charge"), partition)
        if mono in terms:
            raise ValueError(f"vector JSON repeats the monomial {mono}")
        coeff = scalar_from_json(term.get("coeff"), built)
        built = coeff.ctx
        terms[mono] = coeff
    if built is None:
        built = Context(N=n_lat)
    if built.N != n_lat:
        raise ContextMismatchError("coefficient context disagrees with vector N")
    return Vector(built, terms)
