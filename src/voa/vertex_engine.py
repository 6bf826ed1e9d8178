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
The only denominators are the z_lambda of the E_+- weights, and
F!/z_lambda is an integer for every partition lambda of size at most F,
so with both exponentials scaled by F! each term is a Python int over
the common denominator (F!)^2.  As J = alpha / sqrt(2N), the J-basis
coefficient of an output monomial is that rational times sqrt(2N)^{len(out) - len(a) - len(b)}.
The kernel's cache keeps it so: one int per entry over one denominator
per monomial pair, every even power of sqrt(2N) folded into those ints,
and the odd power left to the reader.

E_+ and E_- have one formula, _exp_series: E = exp(sum_j s_j w^j) has
q E_q = sum_j j s_j E_{q-j}, so T_q = q! E_q on a state comes from the
lower orders by one alpha_{+-j} each, in ints.  The kernel applies E_-
to each stage-2 state by it, and reads E_+ from _eplus_pairs, the
series on the vacuum, cached as (creation partition, int) pairs.  Every
step of the series, of the kernel's first stage and of the Heisenberg
action is _alpha_terms, alpha_j on a {partition: int} dict, the one
code that removes (j > 0) or adds (j < 0) a part.

The kernel's first stage makes no creation choice whose z-exponent the
later factors and E_- can no longer bring down into the window: they
lower it by at most the sum of the later k_j + 1 plus the parts they
can still remove (_mono_products_direct has the proof), so every state
it drops lands only at modes below the window.

The kernel's second stage expands E_+ once per z-exponent, not once per
intermediate state.  A stage-1 state carries pending creation modes of
a's J-factors, and those commute with E_+, which is a creation operator
too.  E_+ is linear, so the E_- images of every state that reaches the
same z-exponent e1 (pending creations merged in) are summed into one
state, and E_+(c alpha, z) is expanded once over that sum.  The E_+
orders p it needs depend only on e1, because the output weight is
wt a + wt b + e1 + p.

The charge flip phi: alpha_n -> -alpha_n, e^{k alpha} -> e^{-k alpha}
(state_space.apply_flip) is an automorphism, phi(a_(n) b) = (phi a)_(n)
(phi b).  It preserves [alpha_m, alpha_n] = 2N m delta_{m,-n}, and it
conjugates alpha_0 to -alpha_0, so it carries every field above to the
field of the flipped state: d^{(k)} alpha(z) to -d^{(k)} alpha(z),
z^{c alpha_0} to z^{-c alpha_0}, E_+-(c alpha, z) to E_+-(-c alpha, z),
and e_{c alpha} to e_{-c alpha}, as the rank-one cocycle is trivial
(Frenkel-Lepowsky-Meurman 1988).  On a monomial x with s J-factors
phi x = (-1)^s xbar, xbar being x with its charge negated, so if
a_(n) b = sum c_x x then abar_(n) bbar = sum (-1)^{len x - len a - len b}
c_x xbar.  state_space._flip_terms states that sign rule once, and
apply_flip is it at zero J-factors.  The kernel computes only
charge-canonical pairs (a's charge positive, or zero with b's charge
nonnegative) and reads every other pair as the image of its canonical
partner; _virasoro_mono does the same for negative charge, since nu is
phi-fixed and L_m commutes with phi.

Inside the kernel every state of a stage has one charge (b's in stage 1,
a's plus b's in the output blocks), so its dicts are keyed on bare
partition tuples and compare in C.  A BasisMonomial is built only for a
final block entry, by state_space._mk_mono, the interning constructor:
one object per (charge, partition) for as long as its bounded cache
keeps it, shared by the kernel, _flip_terms, _virasoro_mono and
heis_apply, so the dict lookups of vertex_window and Vector.__add__ on
engine outputs hit on identity.  Equality stays by value; an evicted
entry costs only speed.

The Heisenberg and Virasoro actions are the free-boson module action.
J_k removes a part (k > 0), adds one (k < 0), or is charge * sqrt(2N)
(k = 0), and _heis_terms is its one implementation on {partition: coeff}
dicts at one charge: _alpha_terms at norm 1, plus J_0.  The Virasoro
modes are the Sugawara sums

    L_m = (1/2) sum_j :J_j J_{m-j}:    (Frenkel-Lepowsky-Meurman 1988),

so on a monomial every coefficient of L_m is (rat + rad sqrt(2N)) / 2
with integers rat and rad (L_0, the only mode with a J_0 J_0 term, is
the weight).  Parity rule: a term of the sum has a radical exactly when
it used J_0, and then it changes the number of parts by one; every other
term changes it by 0 or 2.  So an output monomial has rat = 0 or rad = 0.
_virasoro_mono sums each output partition as an int pair [rat, rad] and
builds its Scalar once, through Context.from_ints, which folds sqrt(2N)
where it lies in Q(zeta_n); virasoro_apply sums the cached images into
one dict.

Everything is computed exactly; mode products of basis monomial pairs
are cached per lowest mode, in ints.  Callers address a window by its
lowest mode, vertex_window hands that mode to the kernel unchanged, and
the kernel alone turns it into z-exponent bounds by the grading
contract.  vertex_window is the only place where a Scalar meets the
cached ints: it sums every output entry as integer numerators over one
common denominator of the window and builds the entry's Scalar once.
When every pair factor is rational and sqrt(2N) is not in Q(zeta_n) or
is an int, an entry is one [rat, rad] int pair whose Scalar takes one
gcd; any other window sums 2 phi(n) ints per entry and builds its
Scalar through Context.from_ints.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .scalars import Context, ContextMismatchError, Scalar
from .state_space import (
    BasisMonomial,
    Vector,
    _flip_terms,
    _mk_mono,
    raw_vector,
)


def _alpha_terms(j: int, vec: dict, norm: int) -> dict:
    """alpha_j, j != 0, on a {partition: coefficient} dict at one fixed
    charge; the result is keyed on partitions too, and a caller that needs
    monomials re-attaches the charge with _mk_mono.  This is the only code
    in the package that adds or removes a single part.

    For j > 0 it removes a part j, times count * j * norm, count being the
    number of parts j; norm is the squared norm of the Heisenberg
    generator, 1 for J ([J_m, J_{-m}] = m) and 2N for alpha.  For j < 0 it
    adds the part j by a sorted merge, times 1.  Removing or adding one
    part is injective, so no two terms of the image meet.
    """
    out: dict = {}
    for lam, c in vec.items():
        if j < 0:
            out[tuple(sorted(lam + (j,)))] = c
        elif cnt := lam.count(-j):
            parts = list(lam)
            parts.remove(-j)
            out[tuple(parts)] = c * (cnt * j * norm)
    return out


def _heis_terms(k: int, terms: dict, charge: int) -> tuple:
    """J_k on a {partition: coefficient} dict at one charge, as (image,
    radical): J_k maps sum c lam to the image, times sqrt(2N) when radical
    is True.  J_k for k != 0 is _alpha_terms at norm 1; J_0 = charge *
    sqrt(2N) multiplies by the charge and marks the image radical."""
    if k:
        return _alpha_terms(k, terms, 1), False
    if not charge:
        return {}, False
    return {lam: c * charge for lam, c in terms.items()}, True


def heis_apply(m: int, v: Vector) -> Vector:
    """Heisenberg mode J_m; [J_m, J_n] = m delta_{m,-n} and J_0 = charge * sqrt(2N)."""
    ctx = v.ctx
    by_charge: dict = {}
    for mono, c in v.terms.items():
        by_charge.setdefault(mono.charge, {})[mono.partition] = c
    # J_m multiplies every coefficient by a nonzero factor and no two terms
    # meet, so no entry of the image is zero
    out = {}
    for charge, terms in by_charge.items():
        img, radical = _heis_terms(m, terms, charge)
        if radical:
            root = ctx.sqrt_2n()
            img = {lam: c * root for lam, c in img.items()}
        for lam, c in img.items():
            out[_mk_mono(charge, lam)] = c
    return raw_vector(ctx, out)


@lru_cache(maxsize=50_000)
def _virasoro_mono(ctx: Context, m: int, mono: BasisMonomial) -> Vector:
    """L_m of one basis monomial, summed in ints: each output partition
    gets (rat + rad sqrt(2N)) / 2, and its Scalar is built once through
    Context.from_ints, which folds the radical where it lies in Q(zeta_n).
    No entry is zero."""
    if mono.charge < 0:
        # L_m commutes with phi, since nu = (1/2) J_{-1}^2 vacuum is phi-fixed
        img = _virasoro_mono(ctx, m, _mk_mono(-mono.charge, mono.partition))
        return raw_vector(ctx, _flip_terms(img.terms, len(mono.partition)))
    if m == 0:
        w = mono.weight(ctx.N)
        return raw_vector(ctx, {mono: ctx.from_ints((w,))} if w else {})
    charge = mono.charge
    one = {mono.partition: 1}
    sums: dict = {}
    # L_m = (1/2) sum_j :J_j J_{m-j}:, and for m != 0 the two factors always
    # commute, so the terms j and m - j are equal: each pair p < q counts
    # twice, with J_q applied first (annihilator first).  A J_q with q > 0
    # needs a part of size q, so q runs up to the Fock weight; at most one
    # of p, q is 0, so a term is radical at most once.
    for q in range((m + 1) // 2, 1 - sum(mono.partition)):
        p = m - q
        img, rq = _heis_terms(q, one, charge)
        if not img:
            continue
        img, rp = _heis_terms(p, img, charge)
        slot = rq + rp
        twice = 1 if p == q else 2
        for lam, c in img.items():
            pair = sums.get(lam)
            if pair is None:
                pair = sums[lam] = [0, 0]
            pair[slot] += c * twice
    # every term adds a positive int, as the charge is >= 0, so no entry
    # cancels and none is zero
    return raw_vector(
        ctx,
        {
            _mk_mono(charge, lam): ctx.from_ints((rat,), (rad,), 2)
            for lam, (rat, rad) in sums.items()
        },
    )


def virasoro_apply(m: int, v: Vector) -> Vector:
    """Virasoro mode L_m of the free boson conformal vector, central charge 1.

    Sums every d * c into one dict and drops the entries that cancel; the
    cached images of _virasoro_mono are read, never handed out."""
    ctx = v.ctx
    out: dict = {}
    for mono, c in v.terms.items():
        for x, d in _virasoro_mono(ctx, m, mono).terms.items():
            prev = out.get(x)
            out[x] = d * c if prev is None else prev + d * c
    return raw_vector(ctx, {m: c for m, c in out.items() if not c.is_zero()})


@lru_cache(maxsize=4096)
def _eplus_pairs(k: int, m: int) -> tuple:
    """z^m coefficient of E_+(k alpha, z) times m!, as (creation partition,
    int) pairs in ascending order of the partition.

    It is _exp_series(k, -1) on the vacuum: in the alpha-basis E_+ =
    exp(sum_{j>0} k alpha_{-j} z^j / j), so the weight of a partition
    lambda of m is m! k^{len(lambda)}/z_lambda, an integer (see
    _mono_products_direct).  Adding a part ignores the norm.
    """
    return tuple(sorted(_exp_series(k, -1, {(): 1}, m, 1)[m].items()))


def _exp_series(c: int, sign: int, vec: dict, top: int, norm: int) -> list:
    """[T_0, ..., T_top], T_q = q! E_q vec for the coefficient E_q of w^q
    in E = exp(sum_{j>0} c alpha_{sign j} w^j / j), on a {partition: int}
    dict at one charge; norm as in _alpha_terms (2N for alpha).

    E_-(k alpha, z) is (c, sign) = (-k, 1) with w = z^{-1}, and E_+(k
    alpha, z) is (k, -1) with w = z.  The alpha_{sign j} commute, so d/dw
    E = (sum_j c alpha_{sign j} w^{j-1}) E gives q E_q = sum_{j=1..q} c
    alpha_{sign j} E_{q-j}, and times (q - 1)!:

        T_q = sum_{j=1..q} c (q-1)!/(q-j)! alpha_{sign j} T_{q-j},   T_0 = vec.

    Every weight is an int.  For c = 0, T_q = 0 for q > 0.
    """
    series = [vec]
    for q in range(1, top + 1):
        acc: dict = {}
        if c:
            w = c  # c (q-1)!/(q-j)!, starting at j = 1
            for j in range(1, q + 1):
                for lam, x in _alpha_terms(sign * j, series[q - j], norm).items():
                    add = x * w
                    prev = acc.get(lam)
                    acc[lam] = add if prev is None else prev + add
                w *= q - j
        series.append(acc)
    return series


def _field_coeff(k: int, m: int) -> int:
    """Coefficient of J_m z^{-m-k-1} in the k-th divided-power derivative of J(z)."""
    if m >= 0:
        c = comb(m + k, k)
        return -c if k % 2 else c
    if m <= -k - 1:
        return comb(-m - 1, k)
    return 0


@lru_cache(maxsize=200_000)
def _mono_products(ctx: Context, amono: BasisMonomial, bmono: BasisMonomial, lo: int) -> tuple:
    """All modes a_(n) b with n >= lo for two basis monomials.

    Keyed on the lowest mode lo itself, one entry per (pair, lo); the
    kernel body turns lo into its z-exponent bounds (see
    _mono_products_direct), so no caller converts a mode to a weight.
    Returns (den, {n: {monomial: num}}) in ints: the J-basis coefficient
    of monomial x in a_(n) b is num/den * sqrt(2N)^r, where r = (len(x) -
    len(a) - len(b)) & 1.  den > 0 and gcd(den, every num) = 1, no num is
    zero and no block is empty.  Only charge-canonical keys (ca > 0, or
    ca == 0 and cb >= 0) are computed, by _mono_products_direct; any
    other key is the phi-image of the cached canonical entry of
    (phi a, phi b): every output monomial's charge negated and its num
    times (-1)^r over the same den, which is exact by the phi-equivariance
    in the module docstring (the sign is (-1)^(len x - len a - len b), and
    only its parity r counts).  In the kernel's own terms, every E_+-
    weight (+-k)^{len lambda}/z_lambda and the alpha_0 factor 2N cb change
    sign once per alpha-factor, while zshift = 2N ca cb, base_e, top_e, F
    and the sqrt(2N) power do not change.
    """
    ca, cb = amono.charge, bmono.charge
    if ca > 0 or (ca == 0 and cb >= 0):
        return _mono_products_direct(ctx, amono, bmono, lo)
    den, canon = _mono_products(
        ctx, _mk_mono(-ca, amono.partition), _mk_mono(-cb, bmono.partition), lo
    )
    lab = len(amono.partition) + len(bmono.partition)
    return den, {n: _flip_terms(block, lab) for n, block in canon.items()}


def _mono_products_direct(
    ctx: Context, amono: BasisMonomial, bmono: BasisMonomial, lo: int
) -> tuple:
    """All modes a_(n) b with n >= lo for two basis monomials, uncached.

    Returns (den, {n: {monomial: num}}) as _mono_products does.  Stage 1
    enumerates, per J-factor of a, the annihilation-mode and creation-mode
    choices (merged on equal z-exponent and pending-creation multiset),
    each one _alpha_terms step.  Stage 2 applies E_- (through _exp_series,
    its recurrence) and the z^{(a|b)} shift from z^{alpha_0} at b's
    original charge to every stage-1 state, merges the state's pending
    creations into each partition, and sums the results into one state
    per z-exponent e1; then it expands E_+ once per e1 over that sum.
    This equals applying E_+ and the pending creations to each state
    apart: both are creation operators, so they commute, and E_+ is
    linear.  The E_+ orders p run over the same range for every state of
    one e1, as the total z-exponent e1 + p = -n - 1 must lie in [base_e,
    top_e], which depends on e1 alone.

    This is the one place that applies the grading contract wt(a_(n) b) =
    wt a + wt b - n - 1: the output of mode n has weight wt a + wt b + e
    at z-exponent e = -n - 1, and that weight is at least base = N (ca +
    cb)^2, the weight of the output's charge.  So a mode n >= lo has
    e <= top_e = -lo - 1 and e >= base_e = base - wt a - wt b, and a pair
    with top_e < base_e, which is lo >= wt a + wt b - base, has no mode
    n >= lo: its entry is (1, {}).

    Stage 1 makes no creation choice that cannot reach e <= top_e.  A
    factor d^{(k)} alpha(z) moves the z-exponent by s - k - 1 >= 0 for
    its creation mode -s (s > k), by -k - 1 for alpha_0 and by -s - k - 1
    for the annihilation mode s, which removes a part s of the state's
    partition lambda; E_- of order q moves it by -q and removes parts of
    lambda summing to q; zshift = 2N ca cb is a constant, and E_+ moves it
    by p >= 0.  Pending creations sit left of every annihilator, so they
    are never removed.  After this factor's creation mode -s a state
    therefore ends at e >= zexp + s - k - 1 - rem - lift + zshift, where
    rem is the sum of k_j + 1 over a's later factors and lift the largest
    weight that can still leave lambda: its whole Fock weight when ca !=
    0 (E_- can remove any parts), and else, E_-(0) being the identity, the
    sum of its `left` largest parts, one for each later factor (0 with
    none left).  So a creation s > top_e - zshift - zexp + k + 1 + rem +
    lift has every descendant at e > top_e, which is n < lo, and is not
    made: the kept entries, den and gcd are those of the full expansion.

    Works in the alpha-basis, one int per term: [alpha_m, alpha_n] =
    2N m delta_{m,-n}, alpha_0 = 2N k on charge k, and E_+-(k alpha) have
    coefficients (+-k)^{len lambda}/z_lambda.  Both are read scaled by F!,
    F = max(fmax, Fock weight of b): _exp_series gives T_q = q! E_q, on
    a state for E_- and on the vacuum for E_+ (_eplus_pairs), and each is
    multiplied by F!/order!.  Every such weight is an integer for an order
    at most F (T_q has the weights q! (+-k)^{len lambda}/z_lambda):
    z_lambda divides |lambda|!, since |lambda|!/z_lambda is the size of
    the conjugacy class of cycle type lambda in S_|lambda| (Macdonald,
    Symmetric Functions and Hall Polynomials, I.2), and |lambda|! divides
    F!.
    An E_- order q is at most the Fock weight of a stage-1 state, which
    is at most that of b.  An E_+ order p is at most fmax = top_e -
    base_e: the output's Fock weight is e - base_e <= fmax, and p is part
    of that Fock weight.  So a final entry is its rational times (F!)^2,
    and its J-basis coefficient is entry / (F!)^2 times sqrt(2N)^d, d =
    len(out) - len(a) - len(b).  With sqrt(2N)^d = (2N)^{floor(d/2)}
    sqrt(2N)^{d & 1}, the even part goes into the ints: each entry is
    multiplied by (2N)^{floor(d/2) - low} and den = (F!)^2 (2N)^{-low},
    low = min(0, every floor(d/2) of the pair); one gcd pass then reduces
    the pair.
    """
    n_lat = ctx.N
    two_n = 2 * n_lat
    ca, cb = amono.charge, bmono.charge
    ctot = ca + cb
    base_e = n_lat * ctot * ctot - amono.weight(n_lat) - bmono.weight(n_lat)
    top_e = -lo - 1
    fmax = top_e - base_e
    if fmax < 0:
        return 1, {}

    # stage 1: one mode choice per alpha-factor of a; every state has charge
    # cb, so the dicts are keyed on bare partitions
    zshift = 2 * n_lat * ca * cb
    entries: dict = {(0, ()): {bmono.partition: 1}}
    top = -min(bmono.partition, default=0)
    aparts = amono.partition
    for i, part in enumerate(aparts):
        k = -part - 1
        # the later factors lower the z-exponent by at most rem plus the
        # parts they remove; left of them can remove one part each
        left = len(aparts) - i - 1
        rem = -sum(aparts[i + 1 :])
        new: dict = {}
        # this factor's field coefficients, once per part: ann[s] at the
        # annihilation mode s <= top (no state has a part above b's
        # largest) and cre[s] at the creation mode -s, read for s > k only
        ann = [_field_coeff(k, s) for s in range(top + 1)]
        cre = [_field_coeff(k, -s) for s in range(fmax + 1)]
        zero_mode = ann[0] * two_n * cb

        def put(key, vec_terms, factor):
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
                put((zexp - k - 1, pend), vec, zero_mode)
            sizes = sorted({-p for lam in vec for p in lam})
            for s in sizes:
                put((zexp - s - k - 1, pend), _alpha_terms(s, vec, two_n), ann[s])
            # creation choices: modes -k-1, -k-2, ... within the Fock budget,
            # and low enough that the later factors and E_- can still bring
            # the z-exponent down to top_e by removing at most lift
            if ca:
                lift = max(-sum(lam) for lam in vec)
            elif left:
                lift = max(-sum(lam[:left]) for lam in vec)
            else:
                lift = 0
            cap = min(fmax - pend_sum, top_e - zshift - zexp + k + 1 + rem + lift)
            for s in range(k + 1, cap + 1):
                (grown,) = _alpha_terms(-s, {pend: 1}, two_n)
                put((zexp + s - k - 1, grown), vec, cre[s])
        entries = {key: {m: c for m, c in vec.items() if c} for key, vec in new.items()}
        entries = {key: vec for key, vec in entries.items() if vec}
        if not entries:
            return 1, {}

    # stage 2: E_- and the pending creations into one state per z-exponent
    # e1, then one E_+ pass per e1; weights scaled by F!, and every output
    # has charge ctot, so the states are keyed on partitions too
    scale = factorial(max(fmax, -sum(bmono.partition)))
    merged: dict = {}
    for (zexp, pend), vec in entries.items():
        # E_-(0 alpha) is the identity, and E_- of order q removes q from
        # the Fock weight; orders q with e1 > top_e leave no E_+ order
        # p >= 0 with n >= lo
        qtop = max(-sum(lam) for lam in vec) if ca else 0
        qlo = max(0, zexp + zshift - top_e)
        if qlo > qtop:
            continue
        series = _exp_series(-ca, 1, vec, qtop, two_n)
        for q in range(qlo, qtop + 1):
            mult = scale // factorial(q)
            state = merged.setdefault(zexp - q + zshift, {})
            for lam, c in series[q].items():
                if pend:
                    lam = tuple(sorted(lam + pend))
                c *= mult
                prev = state.get(lam)
                state[lam] = c if prev is None else prev + c
    result: dict = {}
    for e1, state in merged.items():
        state = [(lam, c) for lam, c in state.items() if c]
        if not state:
            continue
        # the z-exponent e1 + p = -n - 1 must lie in [base_e, top_e]
        for p in range(max(0, base_e - e1), top_e - e1 + 1):
            block = result.setdefault(-(e1 + p) - 1, {})
            mult = scale // factorial(p)
            for cparts, w in _eplus_pairs(ca, p):
                w *= mult
                for lam, c in state:
                    if cparts:
                        lam = tuple(sorted(lam + cparts))
                    add = c * w
                    prev = block.get(lam)
                    block[lam] = add if prev is None else prev + add

    # back to the J-basis: drop cancelled entries and empty blocks, fold
    # the even power of sqrt(2N) into the ints, reduce by one gcd, and key
    # each entry on its interned monomial
    blocks: dict = {}
    for n, block in result.items():
        block = {lam: c for lam, c in block.items() if c}
        if block:
            blocks[n] = block
    if not blocks:
        return 1, {}
    lab = len(amono.partition) + len(bmono.partition)
    lens = {len(lam) for block in blocks.values() for lam in block}
    low = min(0, (min(lens) - lab) >> 1)
    mult = {s: two_n ** (((s - lab) >> 1) - low) for s in lens}
    for block in blocks.values():
        for lam, c in block.items():
            block[lam] = c * mult[len(lam)]
    den = scale * scale * two_n**-low
    g = gcd(den, *(c for block in blocks.values() for c in block.values()))
    return den // g, {
        n: {_mk_mono(ctot, lam): c // g for lam, c in block.items()}
        for n, block in blocks.items()
    }


def vertex_mode(a: Vector, n: int, b: Vector) -> Vector:
    """The mode a_(n) b; bilinear in both slots, exact grading.

    One read of the window from n, so both share the same kernel cache
    entries.
    """
    return vertex_window(a, b, lo=n).get(n, Vector.zero(a.ctx))


def _nonzero_slots(rat, rad, deg: int) -> list:
    """(slot, coefficient) pairs of the nonzero entries of numerator tuples
    laid out as in vertex_window: rat at slots 0..deg-1, rad from deg on."""
    return [(i, x) for i, x in enumerate(rat) if x] + [
        (deg + i, x) for i, x in enumerate(rad) if x
    ]


def vertex_window(a: Vector, b: Vector, *, lo: int) -> dict:
    """All modes a_(n) b with n >= lo, as {n: Vector}.

    Shares one cache entry per monomial pair, so it is the right call in
    loops that sweep many modes of the same vectors.  Every pair am, bm
    is read from its kernel entry at the same lo, which holds exactly the
    pair's modes n >= lo; the kernel applies the grading contract, so a
    pair with no such mode reads as an empty entry.

    Each output entry is summed in integers and canonicalized once.  Let f
    be the factor of a monomial pair, (dp, blocks) its kernel entry and
    num/dp sqrt(2N)^r an entry of its blocks (see _mono_products).  An
    output entry is a list of 2 deg integer numerators, rat at slots
    0..deg-1 then rad, over den, the lcm of every f.den * dp in the
    window; a kernel entry adds num den/(f.den dp) times the numerators
    of f over f.den when r = 0, and of f sqrt(2N) over f.den when r = 1.
    There are two layouts, chosen by the window's input alone:

    - two ints (deg = 1) when every f is rational, p/f.den, and ctx.fold
      is None or one int s (2N = s^2).  An even entry adds num den/(f.den
      dp) p to rat, an odd one the same to rad, or p s to rat when
      sqrt(2N) = s.  Each entry's Scalar is (rat, rad) over den after one
      gcd, with no reduction mod Phi_n and no fold left to make;
    - 2 phi(n) ints (deg = phi(n)) for every other window.  f sqrt(2N) is
      one Scalar product per pair, made only for a pair with an odd
      entry, so a radical that folds into Q(zeta_n) takes the same path;
      its canonical den divides f.den.  ctx.from_ints builds each
      entry's Scalar.

    Both are the canonical form of the same value, so the two give the
    same bytes.  Entries that cancel are dropped, and so are modes left
    empty.
    """
    if a.ctx != b.ctx:
        raise ContextMismatchError("vertex mode needs a common context")
    ctx = a.ctx
    pairs = [
        (cav * cbv, len(am.partition) + len(bm.partition), *_mono_products(ctx, am, bm, lo))
        for am, cav in a.terms.items()
        for bm, cbv in b.terms.items()
    ]
    fold = ctx.fold
    # the two-int layout is the general one at deg = 1
    rational = (fold is None or len(fold) == 1) and all(
        not f.rad_num and len(f.rat_num) <= 1 for f, _, _, _ in pairs
    )
    deg, root = (1, None) if rational else (ctx.degree, ctx.sqrt_2n())
    den = lcm(*{f.den * dp for f, _, dp, _ in pairs})
    acc: dict = {}
    for f, lab, dp, prod in pairs:
        scale = den // (f.den * dp)
        if rational:
            even = [(0, x) for x in f.rat_num]
            if fold is None:
                odd = [(1, x) for x in f.rat_num]
            else:
                odd = [(0, x * fold[0]) for x in f.rat_num]
        else:
            even = _nonzero_slots(f.rat_num, f.rad_num, deg)
            odd = None
        for n, block in prod.items():
            dst = acc.get(n)
            if dst is None:
                dst = acc[n] = {}
            for mono, num in block.items():
                if (len(mono.partition) - lab) & 1:
                    if odd is None:
                        fr = f * root
                        up = f.den // fr.den
                        odd = [(i, x * up) for i, x in _nonzero_slots(fr.rat_num, fr.rad_num, deg)]
                    slots = odd
                else:
                    slots = even
                k = num * scale
                nums = dst.get(mono)
                if nums is None:
                    nums = dst[mono] = [0] * (2 * deg)
                for i, x in slots:
                    nums[i] += k * x
    out = {}
    for n, entries in acc.items():
        terms = {}
        for mono, nums in entries.items():
            if rational:
                rat, rad = nums
                if not (rat or rad):
                    continue
                g = gcd(den, rat, rad)
                c = Scalar(ctx, (rat // g,) if rat else (), (rad // g,) if rad else (), den // g)
            else:
                c = ctx.from_ints(nums[:deg], nums[deg:], den)
                if c.is_zero():
                    continue
            terms[mono] = c
        if terms:
            out[n] = raw_vector(ctx, terms)
    return out


def virasoro_field_of(omega: Vector, m: int, v: Vector) -> Vector:
    """Mode L^omega_m = omega_(m+1) v of a weight-2 conformal candidate."""
    if omega.is_zero() or omega.weight() != 2:
        raise ValueError("conformal candidates must be homogeneous of weight 2")
    return vertex_mode(omega, m + 1, v)


def find_locality_order(a: Vector, b: Vector) -> int:
    """Smallest order with (z-w)^order [Y(a,z), Y(b,w)] = 0.

    [Y(a,z), Y(b,w)] = sum_{j>=0} Y(a_(j) b, w) d_w^(j) delta(z-w) (Kac 1998), and
    Y(u, w) = 0 only for u = 0, since u_(-1) vacuum = u; so the order is 1 + the
    largest j >= 0 with a_(j) b != 0, or 0 if there is none, read off the
    window from mode 0.  A zero or non-homogeneous operand raises ValueError.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("locality needs nonzero operands")
    if not (a.is_homogeneous() and b.is_homogeneous()):
        raise ValueError("locality needs homogeneous operands")
    return 1 + max(vertex_window(a, b, lo=0), default=-1)
