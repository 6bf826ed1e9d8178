"""Vertex operators, modes, and the Virasoro structure of V_{L_{2N}}.

Fields are expanded in the a_(n) convention: Y(a, z) = sum a_(n) z^{-n-1},
so the grading contract is wt(a_(n) b) = wt(a) + wt(b) - n - 1 and the
Virasoro modes are L_n = nu_(n+1) for the conformal vector nu.

The generating field of a monomial J_{n_1}...J_{n_s} Omega (x) e^{c alpha}
is the normally ordered product of the divided-power derivative fields
d^{(k_j)} J(z), k_j = -n_j - 1, with the exponential vertex operator

    Y(Omega (x) e^{c alpha}, z) = e_{c alpha} z^{c alpha_0} E_+(c alpha, z) E_-(c alpha, z),

where E_+ collects the creation half of the exponential and E_- the
annihilation half.  Normal ordering is taken in grouped form, every
creation factor to the left of every annihilation factor; for these free
fields all nestings of the ordering agree, and J_0 factors act on the
charge of the right input (before the e_alpha shift).

Mode products of basis monomials run in the unnormalized alpha-basis
alpha_{n_1}...alpha_{n_s} e^{k alpha}, where every structure constant of
the lattice vertex operator is rational (Frenkel-Lepowsky-Meurman 1988).
The only denominators are the z_lambda of the E_+- tables, and F!/z_lambda
is an integer for every partition lambda of size at most F, so with both
tables scaled by F! each term is a Python int over the common denominator
(F!)^2.  As J = alpha / sqrt(2N), the J-basis coefficient of an output
monomial is that rational times sqrt(2N)^{len(out) - len(a) - len(b)}; the
division and the conversion happen once per final entry.  E_+ and E_-
exist only as the kernel's alpha-basis tables _eplus_pairs and
_eminus_pairs.

Everything is computed exactly; mode products of basis monomial pairs
are cached per requested weight window.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .scalars import Context, ContextMismatchError, Scalar, json_int
from .state_space import (
    BasisMonomial,
    Vector,
    enumerate_basis,
    partitions_of,
    vector_from_json,
    vector_to_json,
    z_lambda,
)


def _mk_mono(partition: tuple, charge: int) -> BasisMonomial:
    # trusted fast path: partition already ascending and negative
    m = object.__new__(BasisMonomial)
    object.__setattr__(m, "partition", partition)
    object.__setattr__(m, "charge", charge)
    object.__setattr__(m, "_hash", hash((partition, charge)))
    return m


def _raw(ctx: Context, terms: dict) -> Vector:
    out = Vector.__new__(Vector)
    out.ctx = ctx
    out.terms = terms
    return out


def _clean(ctx: Context, terms: dict) -> Vector:
    return _raw(ctx, {m: c for m, c in terms.items() if not c.is_zero()})


def heis_apply(m: int, v: Vector) -> Vector:
    """Heisenberg mode J_m; [J_m, J_n] = m delta_{m,-n} and J_0 = charge * sqrt(2N)."""
    ctx = v.ctx
    if m == 0:
        root = ctx.sqrt_2n()
        out = {}
        for mono, c in v.terms.items():
            if mono.charge:
                out[mono] = c * (root * mono.charge)
        return _clean(ctx, out)
    if m > 0:
        return _clean(ctx, _apply_annihilators((m,), v.terms, 1))
    out: dict = {}
    for mono, c in v.terms.items():
        new = BasisMonomial(tuple(sorted(mono.partition + (m,))), mono.charge)
        prev = out.get(new)
        out[new] = c if prev is None else prev + c
    return _clean(ctx, out)


@lru_cache(maxsize=50_000)
def _virasoro_mono(ctx: Context, m: int, mono: BasisMonomial) -> Vector:
    one = _raw(ctx, {mono: ctx.one()})
    if m == 0:
        return one.scale(mono.weight(ctx.N))
    fock = -sum(mono.partition)
    acc = Vector.zero(ctx)
    # L_m = (1/2) sum_j :J_j J_{m-j}:, and for m != 0 the two factors always
    # commute, so each term is applied annihilator first; the sum is finite
    # because J_j needs a part of size at most the Fock weight on each side.
    for j in range(m - fock, fock + 1):
        p, q = sorted((j, m - j))
        w = heis_apply(q, one)
        if w.is_zero():
            continue
        w = heis_apply(p, w)
        if not w.is_zero():
            acc = acc + w
    return acc.scale(Fraction(1, 2))


def virasoro_apply(m: int, v: Vector) -> Vector:
    """Virasoro mode L_m of the free boson conformal vector, central charge 1."""
    acc = Vector.zero(v.ctx)
    for mono, c in v.terms.items():
        img = _virasoro_mono(v.ctx, m, mono)
        if not img.is_zero():
            acc = acc + img.scale(c)
    return acc


@lru_cache(maxsize=None)
def _eplus_pairs(k: int, m: int) -> tuple:
    """z^m coefficient of E_+(k alpha, z) as (creation partition, Fraction) pairs.

    In the alpha-basis E_+ = exp(sum_{j>0} k alpha_{-j} z^j / j), so the
    weight of a partition lambda of m is k^{len(lambda)}/z_lambda.
    """
    if k == 0 and m:
        return ()
    return tuple(
        (tuple(-p for p in parts), Fraction(k ** len(parts), z_lambda(parts)))
        for parts in partitions_of(m)
    )


@lru_cache(maxsize=None)
def _eminus_pairs(k: int, q: int) -> tuple:
    """z^{-q} coefficient of E_-(k alpha, z) as (annihilator modes, Fraction) pairs."""
    if k == 0 and q:
        return ()
    return tuple(
        (parts, Fraction((-k) ** len(parts), z_lambda(parts))) for parts in partitions_of(q)
    )


def _root_power(ctx: Context, num: int, den: int, d: int) -> Scalar:
    """(num / den) * sqrt(2N)^d; built through ctx.from_ints, which folds the
    radical where it can and divides out the gcd."""
    half = d // 2
    if half > 0:
        num *= (2 * ctx.N) ** half
    elif half < 0:
        den *= (2 * ctx.N) ** -half
    return ctx.from_ints((), (num,), den) if d & 1 else ctx.from_ints((num,), (), den)


def _apply_annihilators(modes, vec: dict, norm: int) -> dict:
    """Apply a product of positive-mode factors to a monomial dict.

    norm is the squared norm of the Heisenberg generator: 1 for J, whose
    modes satisfy [J_m, J_{-m}] = m, and 2N for alpha.
    """
    cur = vec
    for m in modes:
        nxt: dict = {}
        for mono, c in cur.items():
            cnt = mono.partition.count(-m)
            if not cnt:
                continue
            parts = list(mono.partition)
            parts.remove(-m)
            new = _mk_mono(tuple(parts), mono.charge)
            add = c * (cnt * m * norm)
            prev = nxt.get(new)
            nxt[new] = add if prev is None else prev + add
        if not nxt:
            return {}
        cur = nxt
    return cur


def _field_coeff(k: int, m: int) -> int:
    """Coefficient of J_m z^{-m-k-1} in the k-th divided-power derivative of J(z)."""
    if m >= 0:
        c = comb(m + k, k)
        return -c if k % 2 else c
    if m <= -k - 1:
        return comb(-m - 1, k)
    return 0


@lru_cache(maxsize=200_000)
def _mono_products(ctx: Context, amono: BasisMonomial, bmono: BasisMonomial, wmax: int) -> dict:
    """All modes a_(n) b for two basis monomials, output weight <= wmax.

    Returns {n: {monomial: Scalar}}.  Enumerates, per J-factor of a, the
    annihilation-mode and creation-mode choices (merged on equal
    z-exponent and pending-creation multiset), then applies E_-, the
    z^{(a|b)} shift from z^{alpha_0} at b's original charge, the charge
    shift, and the E_+ and pending creation halves.

    Works in the alpha-basis, one int per term: [alpha_m, alpha_n] =
    2N m delta_{m,-n}, alpha_0 = 2N k on charge k, and E_+-(k alpha) have
    coefficients (+-k)^{len lambda}/z_lambda.  Both tables are read scaled
    by F!, F = max(fmax, Fock weight of b), which makes every weight of an
    order at most F an integer: z_lambda divides |lambda|!, since
    |lambda|!/z_lambda is the size of the conjugacy class of cycle type
    lambda in S_|lambda| (Macdonald, Symmetric Functions and Hall
    Polynomials, I.2), and |lambda|! divides F!.  An E_- order q is at
    most the Fock weight of a stage-1 state, which is at most that of b.
    An E_+ order p is at most fmax: by the grading contract an output
    monomial has weight base + its Fock weight <= wmax, and p is part of
    that Fock weight.  So a final entry is its rational times (F!)^2, and
    its J-basis coefficient is entry / (F!)^2 times
    sqrt(2N)^{len(out) - len(a) - len(b)}.
    """
    n_lat = ctx.N
    two_n = 2 * n_lat
    ca, cb = amono.charge, bmono.charge
    ctot = ca + cb
    base = n_lat * ctot * ctot
    fmax = wmax - base
    if fmax < 0:
        return {}
    wa, wb = amono.weight(n_lat), bmono.weight(n_lat)

    # stage 1: one mode choice per alpha-factor of a
    entries: dict = {(0, ()): {bmono: 1}}
    for part in amono.partition:
        k = -part - 1
        new: dict = {}

        def put(key, vec_terms, factor):
            if not vec_terms:
                return
            cur = new.get(key)
            if cur is None:
                new[key] = (
                    dict(vec_terms)
                    if factor == 1
                    else {m: c * factor for m, c in vec_terms.items()}
                )
                return
            for m, c in vec_terms.items():
                add = c * factor if factor != 1 else c
                prev = cur.get(m)
                cur[m] = add if prev is None else prev + add

        for (zexp, pend), vec in entries.items():
            pend_sum = -sum(pend)
            # annihilation choices: alpha_0 (nonzero charge) and every part size
            if cb:
                put((zexp - k - 1, pend), vec, _field_coeff(k, 0) * two_n * cb)
            sizes = sorted({-p for m in vec for p in m.partition})
            for s in sizes:
                img = _apply_annihilators((s,), vec, two_n)
                put((zexp - s - k - 1, pend), img, _field_coeff(k, s))
            # creation choices: modes -k-1, -k-2, ... within the Fock budget
            for s in range(k + 1, fmax - pend_sum + 1):
                put(
                    (zexp + s - k - 1, tuple(sorted(pend + (-s,)))),
                    vec,
                    _field_coeff(k, -s),
                )
        entries = {key: {m: c for m, c in vec.items() if c} for key, vec in new.items()}
        entries = {key: vec for key, vec in entries.items() if vec}
        if not entries:
            return {}

    # stage 2: E_-, charge shift, E_+, pending creations, weights scaled by F!
    zshift = 2 * n_lat * ca * cb
    scale = factorial(max(fmax, -sum(bmono.partition)))
    result: dict = {}
    for (zexp, pend), vec in entries.items():
        vfock = max((-sum(m.partition) for m in vec), default=0)
        for q in range(0, vfock + 1):
            acc: dict = {}
            for modes, f in _eminus_pairs(ca, q):
                piece = _apply_annihilators(modes, vec, two_n)
                w = f.numerator * (scale // f.denominator)
                for mono, c in piece.items():
                    add = c * w
                    prev = acc.get(mono)
                    acc[mono] = add if prev is None else prev + add
            acc = {m: c for m, c in acc.items() if c}
            if not acc:
                continue
            e1 = zexp - q + zshift
            # output weight wa + wb - n - 1 = wa + wb + e1 + p must lie in [base, wmax]
            p_lo = max(0, base - wa - wb - e1)
            p_hi = wmax - wa - wb - e1
            for p in range(p_lo, p_hi + 1):
                for cparts, f in _eplus_pairs(ca, p):
                    ext = cparts + pend
                    n = -(e1 + p) - 1
                    block = result.setdefault(n, {})
                    w = f.numerator * (scale // f.denominator)
                    for mono, c in acc.items():
                        new_mono = _mk_mono(tuple(sorted(mono.partition + ext)), ctot)
                        add = c * w
                        prev = block.get(new_mono)
                        block[new_mono] = add if prev is None else prev + add

    # back to the J-basis, one division by (F!)^2 and one Scalar per final block entry
    lab = len(amono.partition) + len(bmono.partition)
    den = scale * scale
    out: dict = {}
    for n, block in result.items():
        clean = {
            m: _root_power(ctx, c, den, len(m.partition) - lab) for m, c in block.items() if c
        }
        if clean:
            out[n] = clean
    return out


def vertex_mode(a: Vector, n: int, b: Vector) -> Vector:
    """The mode a_(n) b; bilinear in both slots, exact grading.

    A read of vertex_window per pair of weight components, bounded at that
    pair's output weight, so both share the same kernel cache entries.
    """
    if a.ctx != b.ctx:
        raise ContextMismatchError("vertex mode needs a common context")
    acc = zero = Vector.zero(a.ctx)
    for wa, acomp in a.weight_components().items():
        for wb, bcomp in b.weight_components().items():
            need = wa + wb - n - 1
            if need >= 0:
                acc = acc + vertex_window(acomp, bcomp, need).get(n, zero)
    return acc


def vertex_window(a: Vector, b: Vector, wmax: int) -> dict:
    """All modes a_(n) b with output weight <= wmax, as {n: Vector}.

    Shares one cache entry per monomial pair, so it is the right call in
    loops that sweep many modes of the same vectors.
    """
    if a.ctx != b.ctx:
        raise ContextMismatchError("vertex mode needs a common context")
    ctx = a.ctx
    acc: dict = {}
    for am, cav in a.terms.items():
        for bm, cbv in b.terms.items():
            f = cav * cbv
            unit = f.is_one()
            for n, block in _mono_products(ctx, am, bm, wmax).items():
                dst = acc.setdefault(n, {})
                for mono, c in block.items():
                    add = c if unit else f * c
                    prev = dst.get(mono)
                    dst[mono] = add if prev is None else prev + add
    out = {}
    for n, terms in acc.items():
        vec = _clean(ctx, terms)
        if not vec.is_zero():
            out[n] = vec
    return out


def vertex_mode_physics(a: Vector, n: int, b: Vector) -> Vector:
    """Physics-convention mode a_n = a_(n + wt a - 1) for homogeneous a.

    Documented convenience only; the whole engine speaks a_(n).
    """
    return vertex_mode(a, n + a.weight() - 1, b)


def virasoro_field_of(omega: Vector, m: int, v: Vector) -> Vector:
    """Mode L^omega_m = omega_(m+1) v of a weight-2 conformal candidate."""
    if omega.is_zero() or omega.weight() != 2:
        raise ValueError("conformal candidates must be homogeneous of weight 2")
    return vertex_mode(omega, m + 1, v)


def _commutator_coefficient_kills(a: Vector, b: Vector, order: int, c: Vector, wf_max: int) -> bool:
    """Check (z-w)^order [Y(a,z), Y(b,w)] c = 0 on a finite exponent window."""
    wa, wb = a.weight(), b.weight()
    wc = c.weight()
    inner = wf_max + wc + 2 * order  # largest weight of a_(m) c or b_(n) c in the window
    # ab[n][m] = a_(m) b_(n) c and ba[m][n] = b_(n) a_(m) c, read from vertex_window tables
    ab = {n: vertex_window(a, v, wf_max) for n, v in vertex_window(b, c, inner).items()}
    ba = {m: vertex_window(b, v, wf_max) for m, v in vertex_window(a, c, inner).items()}
    zero = Vector.zero(a.ctx)
    for wf in range(0, wf_max + 1):
        rs = wa + wb + wc - order - 2 - wf
        r_lo = rs - wb - wc + 1 - order
        r_hi = wa + wc - 1 + order
        for r in range(r_lo, r_hi + 1):
            s = rs - r
            acc = zero
            for i in range(order + 1):
                sign = -1 if i % 2 else 1
                f = sign * comb(order, i)
                t1 = ab.get(s + i, {}).get(r + order - i, zero)
                t2 = ba.get(r + order - i, {}).get(s + i, zero)
                acc = acc + (t1 - t2).scale(f)
            if not acc.is_zero():
                return False
    return True


def find_locality_order(a: Vector, b: Vector, test_weight: int = 4, max_order: int = 12):
    """Smallest order with (z-w)^order [Y(a,z), Y(b,w)] = 0 on low-weight states.

    The commutator is tested against every basis vector of weight at most
    test_weight over a finite exponent window wide enough to cover all
    potentially nonzero coefficients at those weights.  Returns None when
    no order up to max_order works.  A zero operand raises ValueError.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("locality needs nonzero operands")
    ctx = a.ctx
    tests = [
        Vector.monomial(ctx, m.partition, m.charge)
        for w in range(test_weight + 1)
        for m in enumerate_basis(ctx, w)
    ]
    for order in range(max_order + 1):
        if all(
            _commutator_coefficient_kills(a, b, order, c, test_weight + 2)
            for c in tests
        ):
            return order
    return None


def mode_request(data: dict, ctx: Context | None = None) -> dict:
    """Serve a serialized mode computation {"N", "n", "a", "b"}.

    Returns {"result": vector JSON, "weight_check": bool}; the weight
    check confirms wt(a_(n) b) = wt(a) + wt(b) - n - 1 on every pair of
    homogeneous components.
    """
    if not isinstance(data, dict):
        raise ValueError(f"mode request must be a JSON object, got {data!r}")
    n = json_int(data.get("n"), "mode n")
    n_lat = json_int(data.get("N"), "mode N")
    a = vector_from_json(data.get("a"), ctx)
    b = vector_from_json(data.get("b"), a.ctx if a.terms else ctx)
    if a.ctx != b.ctx:
        if not a.terms:
            a = Vector.zero(b.ctx)
        elif not b.terms:
            b = Vector.zero(a.ctx)
        else:
            raise ContextMismatchError("operands live in different scalar contexts")
    if n_lat != a.ctx.N:
        raise ContextMismatchError("request N does not match operand contexts")
    ok = True
    result = Vector.zero(a.ctx)
    for wa, acomp in a.weight_components().items():
        for wb, bcomp in b.weight_components().items():
            part = vertex_mode(acomp, n, bcomp)
            if not part.is_zero() and part.weights() != {wa + wb - n - 1}:
                ok = False
            result = result + part
    return {"result": vector_to_json(result), "weight_check": ok}
