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
and the odd power left to the reader, with each mode's entries split by
that parity into an even and an odd part.

Every multiset of parts that the kernel and the module action step
through is a packed multiplicity code, one int: a partition with m_s
parts -s at field width b is

    len | m_1 << b | m_2 << 2b | ...,

stated once by _part_code and _count (_pack and _unpack convert).  When
no field can exceed 2^b - 1 the code of a multiset is the sum of its
parts' codes, so adding or removing a part is one int addition or
subtraction (after one count read to weigh a removal), merging two
multisets is one addition, and the length parity is code & (2^b - 1).
A caller derives b = max(1, F.bit_length()) from a bound F on the Fock
weight of every state it makes (the kernel's proof is in
_mono_products_direct's docstring).  Outputs decode once each, through
the bounded decode cache _unpack, to partition tuples.

E_+ and E_- have one formula, _exp_series: E = exp(sum_j s_j w^j) has
q E_q = sum_j j s_j E_{q-j}, so T_q = q! E_q on a state comes from the
lower orders by one alpha_{+-j} each, in ints.  The kernel applies E_-
to each stage-2 partition by it, and reads E_+ from _eplus_pairs, the
series on the vacuum, cached as (creation code, int) pairs per field
width.  Every step of the series, of the kernel's first stage and of
the module action is _alpha_terms, alpha_j on a {code: int} dict,
the one code that removes (j > 0) or adds (j < 0) a part; a creation in
the kernel's first stage adds the part's code to the pending
creations, which is what _alpha_terms does for j < 0.

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
c_x xbar.  state_space._flip_terms states that sign rule once on
{monomial: coefficient} terms, and apply_flip is it at zero J-factors;
the kernel's parity split carries the sign already, so its flip keeps
the even part and negates the odd one.  The kernel computes only
charge-canonical pairs (a's charge positive, or zero with b's charge
nonnegative) and reads every other pair as the image of its canonical
partner; _virasoro_mono does the same for negative charge, since nu is
phi-fixed and L_m commutes with phi.

Inside the kernel every state of a stage has one charge (b's in stage 1,
a's plus b's in the output blocks), so its dicts are keyed on bare
codes and compare as ints.  A BasisMonomial is built only for a
final block entry, by state_space._mk_mono, the interning constructor:
one object per (charge, partition) for as long as its bounded cache
keeps it, shared by the kernel, _flip_terms, _virasoro_mono and
heis_apply, so the dict lookups of vertex_window and Vector.__add__ on
engine outputs hit on identity.  Equality stays by value; an evicted
entry costs only speed.

The Heisenberg and Virasoro actions are the free-boson module action.
J_k removes a part (k > 0), adds one (k < 0), or is charge * sqrt(2N)
(k = 0), and _heis_terms is its one implementation on {code: coeff}
dicts at one charge: _alpha_terms at norm 1, plus J_0.  _virasoro_mono
packs its monomial once and decodes each output once.  heis_apply reads
J_k, k != 0, of each term from _j_image(k, partition), a bounded cache
of the same _alpha_terms step on the packed partition, decoded once, so
it packs and decodes nothing per call; it applies J_0 to a term itself.
The Virasoro modes are the Sugawara sums

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
contract.  _window_ints is the one accumulator of the cached ints: it
sums every output entry of a window as integer numerators over one
common denominator, in one layout per Context: phi(n) slots where
sqrt(2N) folds into Q(zeta_n) and 2 phi(n), rat then rad, where it does
not.  It reads each part of a pair's entry with fixed slots, the pair
factor's scaled numerators for the even part and those of the factor
times sqrt(2N) for the odd one, so a factor with one nonzero numerator,
as every rational factor has, adds one int product per entry; it builds
no Scalar unless sqrt(2N) folds into Q(zeta_n) as a non-rational.
vertex_window builds each entry's Scalar from those ints once, with one
trim per half and one gcd (_block_vector); window_sums hands the same
ints to the identity checks as WindowSums, which compare with a Vector
or with each other by cross-multiplying, so a check that holds builds
no Scalar.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .scalars import Context, ContextMismatchError, Scalar, _canonical, _trim
from .state_space import (
    BasisMonomial,
    Vector,
    _flip_terms,
    _mk_mono,
    raw_vector,
)


def _width(f: int) -> int:
    """Field width b of the codes of states whose Fock weight is at most
    f.  A length and every multiplicity are at most the Fock weight, as
    every part is at least 1, so every field is at most f < 2^b, also in
    any sum of codes whose Fock weights sum to at most f."""
    return max(1, f.bit_length())


def _pack(lam: tuple, b: int) -> int:
    """The code len | m_1 << b | m_2 << 2b | ... of a partition at field
    width b (module docstring): one in field 0 and one in field s for
    each part -s."""
    code = len(lam)
    for p in lam:
        code += 1 << -p * b
    return code


def _part_code(s: int, b: int) -> int:
    """The code of the one-part partition (-s,), _pack((-s,), b); adding
    or removing a part -s adds or subtracts it."""
    return 1 | 1 << s * b


def _count(code: int, s: int, b: int) -> int:
    """The multiplicity of the part -s in a code (field s); field 0,
    s = 0, is the length."""
    return code >> s * b & (1 << b) - 1


@lru_cache(maxsize=16_384)
def _unpack(code: int, b: int) -> tuple:
    """The partition of a code, as an ascending tuple of negative modes;
    the decode cache.  It holds tuples, never monomials: a caller that
    needs one interns it through _mk_mono."""
    mask = (1 << b) - 1
    parts: list = []
    s = 0
    code >>= b
    while code:
        s += 1
        parts += [-s] * (code & mask)
        code >>= b
    parts.reverse()
    return tuple(parts)


def _alpha_terms(j: int, vec: dict, norm: int, b: int) -> dict:
    """alpha_j, j != 0, on a {code: coefficient} dict at one fixed charge
    and field width b; the result is keyed on codes too, and a caller that
    needs monomials decodes with _unpack and re-attaches the charge with
    _mk_mono.  The exponential series, the kernel's first stage and the
    Heisenberg action all step through it.

    For j > 0 it removes a part j, times count * j * norm, count being the
    number of parts j; norm is the squared norm of the Heisenberg
    generator, 1 for J ([J_m, J_{-m}] = m) and 2N for alpha.  For j < 0 it
    adds the part j, times 1.  Removing or adding one part is injective,
    so no two terms of the image meet.
    """
    if j < 0:
        step = _part_code(-j, b)
        return {code + step: c for code, c in vec.items()}
    step = _part_code(j, b)
    out: dict = {}
    for code, c in vec.items():
        if cnt := _count(code, j, b):
            out[code - step] = c * (cnt * j * norm)
    return out


def _heis_terms(k: int, terms: dict, charge: int, b: int) -> tuple:
    """J_k on a {code: coeff} dict at one charge and field width b, as
    (image, radical): J_k maps sum c lam to the image, times sqrt(2N) when
    radical is True.  J_k for k != 0 is _alpha_terms at norm 1; J_0 =
    charge * sqrt(2N) multiplies by the charge and marks the image
    radical."""
    if k:
        return _alpha_terms(k, terms, 1, b), False
    if not charge:
        return {}, False
    return {code: c * charge for code, c in terms.items()}, True


@lru_cache(maxsize=512)
def _j_image(k: int, lam: tuple) -> tuple:
    """J_k, k != 0, on a monomial with partition lam at any charge, as
    (image partition, int factor); for k > 0 lam must have a part -k.
    lam is packed once, takes one _alpha_terms step at norm 1, and the
    image is decoded once.  The bound trades a few misses for memory: on
    the axiom suite at N = 3, cutoff 6, 512 entries serve 79% of the
    calls against 88% unbounded, where it grows to 902 entries and adds
    1.0-1.5% to the peak RSS."""
    b = _width(max(0, -k) - sum(lam))
    ((code, c),) = _alpha_terms(k, {_pack(lam, b): 1}, 1, b).items()
    return _unpack(code, b), c


def heis_apply(m: int, v: Vector) -> Vector:
    """Heisenberg mode J_m; [J_m, J_n] = m delta_{m,-n} and J_0 = charge * sqrt(2N)."""
    ctx = v.ctx
    # J_m multiplies every coefficient by a nonzero factor and no two terms
    # meet, so no entry of the image is zero
    out = {}
    for (charge, lam), c in v.terms.items():
        if m:
            # J_m, m > 0, kills a partition with no part -m
            if m > 0 and -m not in lam:
                continue
            lam, f = _j_image(m, lam)
            out[_mk_mono(charge, lam)] = c if f == 1 else c * f
        elif charge:
            out[_mk_mono(charge, lam)] = c * charge * ctx.sqrt_2n()
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
    charge, part = mono
    fock = -sum(part)
    # every state on the way has Fock weight at most fock - m (m < 0) or
    # fock (m > 0); the monomial is packed once and each output decoded once
    b = _width(fock + max(0, -m))
    one = {_pack(part, b): 1}
    sums: dict = {}
    # L_m = (1/2) sum_j :J_j J_{m-j}:, and for m != 0 the two factors always
    # commute, so the terms j and m - j are equal: each pair p < q counts
    # twice, with J_q applied first (annihilator first).  A J_q with q > 0
    # needs a part of size q, so q runs up to the Fock weight; at most one
    # of p, q is 0, so a term is radical at most once.
    sizes = set(part)
    for q in range((m + 1) // 2, 1 + fock):
        # J_q, q > 0, kills a partition with no part -q
        if q > 0 and -q not in sizes:
            continue
        p = m - q
        img, rq = _heis_terms(q, one, charge, b)
        if not img:
            continue
        img, rp = _heis_terms(p, img, charge, b)
        slot = rq + rp
        twice = 1 if p == q else 2
        for code, c in img.items():
            pair = sums.get(code)
            if pair is None:
                pair = sums[code] = [0, 0]
            pair[slot] += c * twice
    # every term adds a positive int, as the charge is >= 0, so no entry
    # cancels and none is zero
    return raw_vector(
        ctx,
        {
            _mk_mono(charge, _unpack(code, b)): ctx.from_ints((rat,), (rad,), 2)
            for code, (rat, rad) in sums.items()
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
def _eplus_pairs(k: int, m: int, b: int) -> tuple:
    """z^m coefficient of E_+(k alpha, z) times m!, as (creation code, int)
    pairs at field width b, in ascending order of the code.

    It is _exp_series(k, -1) on the vacuum: in the alpha-basis E_+ =
    exp(sum_{j>0} k alpha_{-j} z^j / j), so the weight of a partition
    lambda of m is m! k^{len(lambda)}/z_lambda, an integer (see
    _mono_products_direct).  Adding a part ignores the norm.
    """
    return tuple(sorted(_exp_series(k, -1, {0: 1}, m, 1, b)[m].items()))


def _exp_series(c: int, sign: int, vec: dict, top: int, norm: int, b: int) -> list:
    """[T_0, ..., T_top], T_q = q! E_q vec for the coefficient E_q of w^q
    in E = exp(sum_{j>0} c alpha_{sign j} w^j / j), on a {code: int} dict
    at one charge and field width b; norm as in _alpha_terms (2N for
    alpha).

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
                for code, x in _alpha_terms(sign * j, series[q - j], norm, b).items():
                    acc[code] = acc.get(code, 0) + x * w
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
    Returns (den, even, odd) in ints, each part {n: {monomial: num}}: the
    J-basis coefficient of monomial x in a_(n) b is num/den *
    sqrt(2N)^r, where r = (len(x) - len(a) - len(b)) & 1 is 0 for an
    entry of even and 1 for an entry of odd.  A mode may sit in either
    part or in both.  den > 0 and gcd(den, every num of both parts) = 1,
    no num is zero and no block is empty.  Only charge-canonical keys
    (ca > 0, or ca == 0 and cb >= 0) are computed, by
    _mono_products_direct; any other key is the phi-image of the cached
    canonical entry of (phi a, phi b): every output monomial's charge
    negated, even unchanged and odd negated over the same den, which is
    exact by the phi-equivariance in the module docstring (the sign is
    (-1)^(len x - len a - len b), and only its parity r counts).  In the
    kernel's own terms, every E_+- weight (+-k)^{len lambda}/z_lambda and
    the alpha_0 factor 2N cb change sign once per alpha-factor, while
    zshift = 2N ca cb, base_e, top_e, F and the sqrt(2N) power do not
    change.
    """
    ca, cb = amono.charge, bmono.charge
    if ca > 0 or (ca == 0 and cb >= 0):
        return _mono_products_direct(ctx, amono, bmono, lo)
    den, even, odd = _mono_products(
        ctx, _mk_mono(-ca, amono.partition), _mk_mono(-cb, bmono.partition), lo
    )
    ctot = ca + cb
    return (
        den,
        {n: {_mk_mono(ctot, m.partition): c for m, c in b.items()} for n, b in even.items()},
        {n: {_mk_mono(ctot, m.partition): -c for m, c in b.items()} for n, b in odd.items()},
    )


def _mono_products_direct(
    ctx: Context, amono: BasisMonomial, bmono: BasisMonomial, lo: int
) -> tuple:
    """All modes a_(n) b with n >= lo for two basis monomials, uncached.

    Returns (den, even, odd) as _mono_products does: the last stage reads
    each entry's length to fold its even sqrt(2N) power into the ints,
    and files the entry by the parity r of that power in the same pass.
    Every multiset is a packed code of one field width b (see Codes
    below).  Stage 1 enumerates, per J-factor of a, the annihilation-mode
    and creation-mode choices on one flat dict {(zexp, pend, lam): int},
    pend the code of the pending creations and lam that of the state's
    partition, merged on equal keys.  The annihilation choices and the
    creation bound depend on lam alone, so they are made once per
    distinct lam and factor, alpha_s by one _alpha_terms step; a creation
    adds its part's code to pend.  Stage 2 applies E_- (through
    _exp_series, its recurrence, once per distinct lam) and the z^{(a|b)}
    shift from z^{alpha_0} at b's original charge to every stage-1 state,
    adds the state's pending creations to each image code, and sums the
    results into one state per z-exponent e1; then it expands E_+ once
    per e1 over that sum, each term one addition of a code from
    _eplus_pairs.
    This equals applying E_+ and the pending creations to each state
    apart: both are creation operators, so they commute, and E_+ is
    linear.  The E_+ orders p run over the same range for every state of
    one e1, as the total z-exponent e1 + p = -n - 1 must lie in [base_e,
    top_e], which depends on e1 alone; for ca = 0 only p = 0 is read, as
    E_+(0 alpha) is the identity and every higher order is empty.

    This is the one place that applies the grading contract wt(a_(n) b) =
    wt a + wt b - n - 1: the output of mode n has weight wt a + wt b + e
    at z-exponent e = -n - 1, and that weight is at least base = N (ca +
    cb)^2, the weight of the output's charge.  So a mode n >= lo has
    e <= top_e = -lo - 1 and e >= base_e = base - wt a - wt b, and a pair
    with top_e < base_e, which is lo >= wt a + wt b - base, has no mode
    n >= lo: its entry is (1, {}, {}).

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

    Codes.  With b = _width(F), every multiset the kernel makes has Fock
    weight at most F, so no field of its code exceeds F < 2^b (a length
    or a multiplicity is at most the Fock weight, every part being at
    least 1), and adding two codes whose Fock weights sum to at most F
    adds their multisets:
    - a stage-1 partition and its E_- images are sub-multisets of b's
      partition, of Fock weight at most that of b;
    - pending creations weigh at most fmax, as a creation s is made only
      for s <= cap <= fmax - (pending weight so far);
    - a merged state at e1 has Fock weight e1 - base_e <= fmax: the
      output at z-exponent e has Fock weight e - base_e, E_+ of order p
      adds p of it, and only E_- orders with e1 <= top_e are merged;
    - an E_+ term is a partition of p <= fmax, and an output has Fock
      weight at most fmax.
    The last stage reads each entry's length as lam & (2^b - 1) and
    decodes each output code once, through _unpack, to the partition
    tuple that _mk_mono interns.
    """
    n_lat = ctx.N
    two_n = 2 * n_lat
    ca, cb = amono.charge, bmono.charge
    ctot = ca + cb
    base_e = n_lat * ctot * ctot - amono.weight(n_lat) - bmono.weight(n_lat)
    top_e = -lo - 1
    fmax = top_e - base_e
    if fmax < 0:
        return 1, {}, {}
    fock_b = -sum(bmono.partition)
    big_f = max(fmax, fock_b)
    b = _width(big_f)
    # the code of each part a creation can add (Codes, below)
    steps = [_part_code(s, b) for s in range(fmax + 1)]

    # stage 1: one mode choice per alpha-factor of a, on one flat dict
    # {(zexp, pend, lam): int} of codes, pend the pending creations and lam
    # the partition of the state, of charge cb
    zshift = 2 * n_lat * ca * cb
    states: dict = {(0, 0, _pack(bmono.partition, b)): 1}
    top = -min(bmono.partition, default=0)
    aparts = amono.partition
    done = 0  # the sum of a's parts before this factor
    for i, part in enumerate(aparts):
        k = -part - 1
        # the later factors lower the z-exponent by at most rem plus the
        # parts they remove; left of them can remove one part each
        left = len(aparts) - i - 1
        rem = -sum(aparts[i + 1 :])
        # this factor's field coefficients, once per part: ann[s] at the
        # annihilation mode s <= top (no state has a part above b's
        # largest) and cre[s] at the creation mode -s, read for s > k only
        ann = [_field_coeff(k, s) for s in range(top + 1)]
        cre = [_field_coeff(k, -s) for s in range(fmax + 1)]
        zero_mode = _field_coeff(k, 0) * two_n * cb
        # every choice so far moved zexp by its factor's part, plus the
        # parts it created, minus the parts it removed, so a state's
        # pending weight is zexp - done + fock_b - |lam|; both creation
        # bounds below are a function of lam minus zexp
        budget = fmax + done - fock_b
        reach = top_e - zshift + k + 1 + rem
        moves: dict = {}
        new: dict = {}
        for (zexp, pend, lam), c in states.items():
            got = moves.get(lam)
            if got is None:
                parts = _unpack(lam, b)
                # annihilation choices: alpha_0 (nonzero charge) and alpha_s
                # for every part size s, as (z-exponent drop, image, factor)
                anns = [(k + 1, lam, zero_mode)] if cb else []
                for s in sorted({-p for p in parts}):
                    ((img, f),) = _alpha_terms(s, {lam: 1}, two_n, b).items()
                    anns.append((s + k + 1, img, f * ann[s]))
                # creation choices: modes -k-1, -k-2, ... within the Fock
                # budget, and low enough that the later factors and E_- can
                # still bring the z-exponent down to top_e by removing at
                # most lift
                if ca:
                    lift = -sum(parts)
                elif left:
                    lift = -sum(parts[:left])
                else:
                    lift = 0
                got = moves[lam] = anns, min(budget - sum(parts), reach + lift)
            anns, cap = got
            for drop, img, f in anns:
                key = (zexp - drop, pend, img)
                new[key] = new.get(key, 0) + c * f
            for s in range(k + 1, cap - zexp + 1):
                key = (zexp + s - k - 1, pend + steps[s], lam)
                new[key] = new.get(key, 0) + c * cre[s]
        states = {key: c for key, c in new.items() if c}
        if not states:
            return 1, {}, {}
        done += part

    # stage 2: E_- and the pending creations into one state per z-exponent
    # e1, then one E_+ pass per e1; weights scaled by F!, and every output
    # has charge ctot.  E_- runs once per partition lam, on lam alone
    scale = factorial(big_f)
    mults = [scale // factorial(q) for q in range(big_f + 1)]
    eminus: dict = {}
    merged: dict = {}
    for (zexp, pend, lam), c in states.items():
        # E_-(0 alpha) is the identity, and E_- of order q removes q from
        # the Fock weight; orders q with e1 > top_e leave no E_+ order
        # p >= 0 with n >= lo
        series = eminus.get(lam)
        if series is None:
            qtop = -sum(_unpack(lam, b)) if ca else 0
            series = eminus[lam] = _exp_series(-ca, 1, {lam: 1}, qtop, two_n, b)
        for q in range(max(0, zexp + zshift - top_e), len(series)):
            state = merged.setdefault(zexp - q + zshift, {})
            cq = c * mults[q]
            for img, x in series[q].items():
                img += pend
                state[img] = state.get(img, 0) + cq * x
    result: dict = {}
    for e1, state in merged.items():
        state = [(lam, c) for lam, c in state.items() if c]
        if not state:
            continue
        # the z-exponent e1 + p = -n - 1 must lie in [base_e, top_e]; E_+(0
        # alpha) is the identity, so a charge-0 a reads only its order 0
        for p in range(max(0, base_e - e1), (top_e - e1 if ca else 0) + 1):
            block = result.setdefault(-(e1 + p) - 1, {})
            mult = mults[p]
            for cparts, w in _eplus_pairs(ca, p, b):
                w *= mult
                for lam, c in state:
                    lam += cparts
                    block[lam] = block.get(lam, 0) + c * w

    # back to the J-basis: drop cancelled entries, fold the even power of
    # sqrt(2N) into the ints and file each entry in the part of its parity,
    # both read off its length, field 0 of its code; reduce by one gcd, and
    # key each entry on its interned monomial
    mask = (1 << b) - 1
    lab = len(amono.partition) + len(bmono.partition)
    lens = {lam & mask for block in result.values() for lam in block}
    if not lens:
        return 1, {}, {}
    low = min(0, (min(lens) - lab) >> 1)
    fold = {s: (two_n ** (((s - lab) >> 1) - low), (s - lab) & 1) for s in lens}
    parts = ({}, {})
    for n, block in result.items():
        halves = ({}, {})
        for lam, c in block.items():
            if c:
                mult, r = fold[lam & mask]
                halves[r][lam] = c * mult
        for part, half in zip(parts, halves):
            if half:
                part[n] = half
    if not any(parts):
        return 1, {}, {}
    den = scale * scale * two_n**-low
    g = gcd(den, *(c for part in parts for block in part.values() for c in block.values()))
    return den // g, *(
        {
            n: {_mk_mono(ctot, _unpack(lam, b)): c // g for lam, c in block.items()}
            for n, block in part.items()
        }
        for part in parts
    )


def vertex_mode(a: Vector, n: int, b: Vector) -> Vector:
    """The mode a_(n) b; bilinear in both slots, exact grading.

    One read of the window from n, so both share the same kernel cache
    entries.
    """
    return vertex_window(a, b, lo=n).get(n, Vector.zero(a.ctx))


def _nonzero_slots(rat, rad, deg: int, scale: int) -> list:
    """(slot, coefficient times scale) pairs of the nonzero entries of
    numerator tuples laid out as in vertex_window: rat at slots 0..deg-1,
    rad from deg on."""
    return [(i, x * scale) for i, x in enumerate(rat) if x] + [
        (deg + i, x * scale) for i, x in enumerate(rad) if x
    ]


def _odd_slots(ctx: Context, f: Scalar, slots: list, deg: int, scale: int) -> list:
    """The nonzero slots of f sqrt(2N) scale over f.den, in a layout of
    degree deg, from those of f scale (slots).  Where sqrt(2N) is an int
    s they are slots times s, and where it does not fold rat slot i moves
    to deg + i and rad slot deg + i to i times 2N: no Scalar product.
    Where it folds into Q(zeta_n) as a non-rational they come from one
    product f sqrt(2N), whose canonical den divides f.den."""
    fold = ctx.fold
    if fold is None:
        two_n = 2 * ctx.N
        return [(i + deg, x) if i < deg else (i - deg, x * two_n) for i, x in slots]
    if len(fold) == 1:
        s = fold[0]
        return [(i, x * s) for i, x in slots]
    fr = f * ctx.sqrt_2n()
    return _nonzero_slots(fr.rat_num, fr.rad_num, deg, scale * (f.den // fr.den))


def _window_ints(a: Vector, b: Vector, lo: int) -> tuple:
    """All modes a_(n) b with n >= lo as (den, {n: {monomial: nums}}), in
    ints: the coefficient of a monomial is nums over den in the layout of
    vertex_window, whose docstring has the rules.  An entry whose terms
    cancel stays, all zero.  This is the one accumulator of the engine's
    windows, and it builds no Scalar where sqrt(2N) is an int or does not
    fold.

    The layout is the Context's alone, deg = phi(n) and width = deg where
    sqrt(2N) folds into Q(zeta_n), which leaves no rad half, and 2 deg
    where it does not.  Each pair's kernel entry comes split by parity,
    so a block is read with its slots fixed: the even part with the slots
    of f, the odd one with those of f sqrt(2N) (_odd_slots, made only for
    a pair with an odd part), both with den/(f.den dp) folded in once per
    pair.  A part read with one slot, the case of every rational factor,
    adds num x to one int per entry."""
    if a.ctx != b.ctx:
        raise ContextMismatchError("vertex mode needs a common context")
    ctx = a.ctx
    pairs = [
        (cav * cbv, *_mono_products(ctx, am, bm, lo))
        for am, cav in a.terms.items()
        for bm, cbv in b.terms.items()
    ]
    deg = ctx.degree
    width = deg if ctx.fold is not None else 2 * deg
    den = lcm(*{f.den * dp for f, dp, _, _ in pairs})
    acc: dict = {}
    for f, dp, even, odd in pairs:
        scale = den // (f.den * dp)
        slots = _nonzero_slots(f.rat_num, f.rad_num, deg, scale)
        if even:
            _add_part(acc, even, slots, width)
        if odd:
            _add_part(acc, odd, _odd_slots(ctx, f, slots, deg, scale), width)
    return den, acc


def _add_part(acc: dict, part: dict, slots: list, width: int) -> None:
    """Adds num x at slot i of every entry {n: {monomial: num}} of part to
    the numerator lists of acc, for each (i, x) in slots."""
    if len(slots) == 1:
        ((i, x),) = slots
        for n, block in part.items():
            dst = acc.get(n)
            if dst is None:
                dst = acc[n] = {}
            for mono, num in block.items():
                nums = dst.get(mono)
                if nums is None:
                    nums = dst[mono] = [0] * width
                nums[i] += num * x
        return
    for n, block in part.items():
        dst = acc.get(n)
        if dst is None:
            dst = acc[n] = {}
        for mono, num in block.items():
            nums = dst.get(mono)
            if nums is None:
                nums = dst[mono] = [0] * width
            for i, x in slots:
                nums[i] += num * x


def _block_vector(ctx: Context, den: int, block: dict) -> Vector:
    """The Vector of one mode of an integer window: each nonzero entry's
    Scalar is its rat and rad halves, trimmed once each, over den after
    one gcd.  The numerators are reduced mod Phi_n and folded already, so
    no reduction or fold is left to make."""
    deg = ctx.degree
    terms = {}
    for mono, nums in block.items():
        rat, rad = _trim(nums[:deg]), _trim(nums[deg:])
        if rat or rad:
            terms[mono] = _canonical(ctx, rat, rad, den)
    return raw_vector(ctx, terms)


def vertex_window(a: Vector, b: Vector, *, lo: int) -> dict:
    """All modes a_(n) b with n >= lo, as {n: Vector}.

    Shares one cache entry per monomial pair, so it is the right call in
    loops that sweep many modes of the same vectors.  Every pair am, bm
    is read from its kernel entry at the same lo, which holds exactly the
    pair's modes n >= lo; the kernel applies the grading contract, so a
    pair with no such mode reads as an empty entry.

    Each output entry is summed in integers by _window_ints and
    canonicalized once by _block_vector.  Let f be the factor of a
    monomial pair, (dp, blocks) its kernel entry and num/dp sqrt(2N)^r an
    entry of its blocks (see _mono_products).  An output entry is a list
    of integer numerators over den, the lcm of every f.den * dp in the
    window: rat at slots 0..deg-1, deg = phi(n), then rad at slots
    deg..2 deg-1 where sqrt(2N) is not in Q(zeta_n).  Where it is, every
    radical folds into Q(zeta_n) and the list stops at deg.  The layout
    depends on the Context alone.  A kernel entry adds num times the
    numerators of f den/(f.den dp) over f.den when it is in the even part
    (r = 0), and of f sqrt(2N) den/(f.den dp) when it is in the odd one
    (r = 1); both slot lists are fixed once per pair.  The slots of f
    sqrt(2N) are those of f times s when sqrt(2N) = s, and those of f
    with the two halves swapped (the rad half times 2N) when sqrt(2N) is
    not in Q(zeta_n).  Only a radical that folds into Q(zeta_n) as a
    non-rational takes one Scalar product f sqrt(2N) per pair, made only
    for a pair with an odd part; its canonical den divides f.den.

    Every numerator list lies in the reduced basis {zeta^i, zeta^i
    sqrt(2N) : i < deg}, so an entry is zero exactly when its ints are,
    and its Scalar is the list over den after one gcd.  Entries that
    cancel are dropped, and so are modes left empty.
    """
    den, blocks = _window_ints(a, b, lo)
    ctx = a.ctx
    out = {}
    for n, block in blocks.items():
        v = _block_vector(ctx, den, block)
        if v.terms:
            out[n] = v
    return out


class WindowSum:
    """An exact vector sum_i k_i B_i / d_i over modes B_i of integer
    windows, compared with a Vector or another WindowSum in ints.

    A term (k, d, block) is one mode of a _window_ints window: block maps
    a monomial to its numerators over d in the Context's one layout, and
    k is a nonzero int.  As with Vectors, a sum is unequal to anything of
    another Context.  Equality cross-multiplies and builds no Scalar:
    the terms are summed slot by slot over the lcm D of their d, and a
    Vector entry c = (rat_num, rad_num)/c.den matches a summed entry w/D
    exactly when w c.den == (rat_num, rad_num) D slot by slot, rat_num
    from slot 0 and rad_num from slot phi(n).  Both sides lie in the
    reduced basis of Q(zeta_n)(sqrt(2N)), so no gcd or reduction is
    needed, and a c too long for the layout is not in its span.  vector()
    builds the Vector through vertex_window's Scalar path, for a defect or
    a table that needs one; a sum of one mode at k = 1, as window_sums
    makes it, gives the same Vector as vertex_window with no product.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=()):
        self.ctx = ctx
        self.terms = tuple(terms)

    def scale(self, k: int) -> "WindowSum":
        return WindowSum(self.ctx, [(k * c, d, b) for c, d, b in self.terms] if k else ())

    def __sub__(self, other: "WindowSum") -> "WindowSum":
        return WindowSum(self.ctx, self.terms + other.scale(-1).terms)

    def vector(self) -> Vector:
        out = Vector.zero(self.ctx)
        for k, den, block in self.terms:
            v = _block_vector(self.ctx, den, block)
            out = out + (v if k == 1 else v.scale(k))
        return out

    def __eq__(self, other):
        if isinstance(other, WindowSum):
            return self.ctx == other.ctx and (self - other)._matches({})
        if isinstance(other, Vector):
            return self.ctx == other.ctx and self._matches(other.terms)
        return NotImplemented

    def _matches(self, terms: dict) -> bool:
        """Whether the sum equals the {monomial: Scalar} terms."""
        deg = self.ctx.degree
        den = lcm(*(d for _, d, _ in self.terms))
        acc: dict = {}
        for k, d, block in self.terms:
            f = k * (den // d)
            for mono, nums in block.items():
                dst = acc.get(mono)
                if dst is None:
                    dst = acc[mono] = [0] * len(nums)
                for i, x in enumerate(nums):
                    if x:
                        dst[i] += f * x
        for mono, c in terms.items():
            nums = acc.pop(mono, None)
            rat, rad = c.rat_num, c.rad_num
            if nums is None or len(rat) > deg or deg + len(rad) > len(nums):
                return False
            cn = [*rat, *[0] * (deg - len(rat)), *rad]
            cn += [0] * (len(nums) - len(cn))
            cd = c.den
            if any(x * cd != y * den for x, y in zip(nums, cn)):
                return False
        return not any(any(nums) for nums in acc.values())


def window_sums(a: Vector, b: Vector, *, lo: int) -> dict:
    """Every mode of the integer window of vertex_window as {n:
    WindowSum}, with no Scalar built; a mode whose entries all cancel
    stays, as a zero sum."""
    den, blocks = _window_ints(a, b, lo)
    ctx = a.ctx
    return {n: WindowSum(ctx, ((1, den, block),)) for n, block in blocks.items()}


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
