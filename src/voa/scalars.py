"""Exact coefficient field for lattice vertex algebra computations.

Scalars live in Q(zeta_n)(sqrt(2N)): the cyclotomic field of conductor n
(a multiple of 4, so i = zeta_n^{n/4} exists) extended by the square root
of 2N.  A scalar is a pair of polynomials in zeta_n with integer
coefficients, reduced mod the n-th cyclotomic polynomial, over one shared
denominator:

    value = (rat(zeta_n) + rad(zeta_n) * sqrt(2N)) / den

Canonical form: both numerator components are tuples of Python ints by
increasing power, degree below phi(n), trailing zeros dropped; den is a
positive int with gcd(den, every numerator) = 1, and zero is stored with
den = 1.  Equality is structural equality of canonical forms.  Phi_n is
monic with integer coefficients (Cohen, A Course in Computational
Algebraic Number Theory, 1993, 4.2), so sums, products, reduction,
conjugation and inversion run in int arithmetic with one gcd pass per
result: an inverse is the product of the other Galois conjugates over
the integer norm.  Fraction appears only at the boundaries (constructor
inputs and the read-only rat/rad/as_fraction views).

When sqrt(2N) already lies in Q(zeta_n) the two-component form would not
be canonical (nor a field), so construction eagerly folds the radical
part into the cyclotomic part.  This covers perfect squares 2N = s^2 and
also genuine coincidences such as sqrt(2) in Q(zeta_8): writing
2N = s^2 * d with d squarefree, sqrt(d) lies in Q(zeta_n) iff m | n where
m = d for d = 1 mod 4 and m = 4d otherwise, and the embedding is built
from quadratic Gauss sums.

All arithmetic is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm


class ContextMismatchError(ValueError):
    """Raised when scalars from different contexts are combined."""


class ConductorError(ValueError):
    """Raised for a conductor the scalar field does not support, or when a
    requested root of unity does not exist at this conductor."""


# largest supported conductor: at 400, phi(n) = 160, a dense product takes
# milliseconds and a dense inverse under two seconds; at 1000 (phi = 400)
# the inverse takes 45 s and the Z_1000 fixed-point command over a minute
MAX_CONDUCTOR = 400


_ZERO = Fraction(0)


def _trim(coeffs) -> tuple:
    k = len(coeffs)
    while k and not coeffs[k - 1]:
        k -= 1
    return tuple(coeffs[:k])


def _combine(a, fa: int, b, fb: int) -> tuple:
    """fa * a + fb * b for trimmed integer coefficient tuples and nonzero fa, fb."""
    if len(a) < len(b):
        a, fa, b, fb = b, fb, a, fa
    if fa == 1 and fb == 1:
        out = [x + y for x, y in zip(a, b)]
    else:
        out = [fa * x + fb * y for x, y in zip(a, b)]
    k = len(out)
    if k < len(a):
        # a's nonzero top coefficient survives, so nothing to trim
        out.extend(a[k:] if fa == 1 else [fa * x for x in a[k:]])
        return tuple(out)
    while k and not out[k - 1]:
        k -= 1
    return tuple(out[:k])


def _common_den(coeffs) -> tuple:
    """Fractions as (integer numerators, their positive lcm denominator)."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _divisors(n: int) -> list:
    """Divisors of n in increasing order, by trial division up to sqrt(n)."""
    low, high = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            low.append(d)
            if d * d < n:
                high.append(n // d)
        d += 1
    return low + high[::-1]


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, increasing powers, monic."""
    # Phi_n = (x^n - 1) / prod over proper divisors d | n of Phi_d,
    # computed by exact integer long division.
    num = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        num = _int_polydiv(num, _cyclotomic(d))
    return tuple(num)


def _int_polydiv(num: list, den) -> list:
    # exact division of integer polynomials, den monic up to sign of lead
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            q, r = divmod(c, lead)
            assert r == 0
            out[k - dd] = q
            for i, pc in enumerate(den):
                num[k - dd + i] -= q * pc
    assert not any(num)
    return out


def _reduce(coeffs: list, n: int) -> tuple:
    """Integer coefficients mod Phi_n, trimmed; overwrites the list.

    They stay integers because Phi_n is monic.
    """
    phi = _cyclotomic(n)
    deg = len(phi) - 1
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(deg):
                coeffs[k - deg + i] -= c * phi[i]
    return _trim(coeffs[:deg])


def _pmulmod(a, b, n: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _reduce(out, n)


def _galois(a, k: int, n: int) -> tuple:
    # zeta^j -> zeta^{jk} on the power basis, then reduce; k is a unit mod n
    if not a:
        return a
    out = [0] * n
    for j, c in enumerate(a):
        out[(j * k) % n] += c
    return _reduce(out, n)


def _pinv_mod(a, n: int) -> tuple:
    """Inverse of the integer polynomial a mod Phi_n, as (numerators, den).

    Q(zeta_n) is Galois over Q with group (Z/n)^x acting by zeta -> zeta^k,
    so adj = prod over units k != 1 of sigma_k(a) gives a * adj = norm(a),
    a nonzero integer.  It is positive, so it serves as the denominator as
    it is: for n >= 3 Q(zeta_n) is a CM field, and norm(a) is the norm from
    the real subfield of the totally positive a * conj(a) (Washington,
    Introduction to Cyclotomic Fields, 4).
    """
    if not a:
        raise ZeroDivisionError("scalar inverse of zero")
    adj = (1,)
    for k in range(2, n):
        if gcd(k, n) == 1:
            adj = _pmulmod(adj, _galois(a, k, n), n)
    (norm,) = _pmulmod(a, adj, n)
    return adj, norm


@lru_cache(maxsize=1024)
def _sqrt_fold(n: int, two_n: int):
    """sqrt(two_n) in Q(zeta_n) as an integer polynomial mod Phi_n, or None.

    With two_n = s^2 d, d squarefree, sqrt(d) lies in Q(zeta_n) iff m | n,
    m = d for d = 1 mod 4 and m = 4d otherwise, so only the squarefree
    divisors d of n with m | n can fold, and each is tested with one isqrt
    of two_n / d; no factoring of two_n is needed, however large.  At most
    one d passes, the squarefree part of two_n.

    Built from quadratic Gauss sums: for odd m, sum over a mod m of
    zeta_m^{a^2} equals sqrt(m) when m = 1 mod 4 and i*sqrt(m) when
    m = 3 mod 4; sqrt(2) = zeta_8 - zeta_8^3.
    """
    for d in _divisors(n):
        q, r = divmod(two_n, d)
        s = isqrt(q)
        if (
            not r
            and s * s == q
            and n % (d if d % 4 == 1 else 4 * d) == 0
            and all(d % (p * p) for p in range(2, isqrt(d) + 1))
        ):
            break
    else:
        return None
    root = (s,)
    e = d
    if e % 2 == 0:
        e //= 2
        sqrt2 = [0] * n
        sqrt2[n // 8] = 1
        sqrt2[3 * n // 8] = -1
        root = _pmulmod(root, _reduce(sqrt2, n), n)
    if e > 1:
        gauss = [0] * n
        step = n // e
        for a in range(e):
            gauss[(step * a * a) % n] += 1
        gauss = _reduce(gauss, n)
        if e % 4 == 3:
            minus_i = [0] * n
            minus_i[n // 4] = -1
            gauss = _pmulmod(gauss, _reduce(minus_i, n), n)
        root = _pmulmod(root, gauss, n)
    return root


@dataclass(frozen=True)
class Context:
    """Coefficient field Q(zeta_conductor)(sqrt(2N)) for the lattice L_{2N}.

    N is the lattice parameter; conductor must be a multiple of 4 between
    4 and MAX_CONDUCTOR (default 4, giving Q(i) plus the radical).
    """

    N: int
    conductor: int = 4

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("lattice parameter N must be a positive integer")
        if self.conductor < 4 or self.conductor % 4:
            raise ConductorError(
                f"conductor must be a multiple of 4 and >= 4, got {self.conductor}"
            )
        if self.conductor > MAX_CONDUCTOR:
            raise ConductorError(
                f"conductor must be at most {MAX_CONDUCTOR}, got {self.conductor}"
            )

    # computed once per Context: a cached_property writes the instance
    # __dict__ directly, which a frozen dataclass allows, and eq, hash and
    # repr read only the fields
    @cached_property
    def degree(self) -> int:
        """phi(conductor), the degree of Q(zeta_n) over Q."""
        return len(_cyclotomic(self.conductor)) - 1

    @cached_property
    def fold(self):
        """sqrt(2N) as an integer polynomial mod Phi_n, or None (_sqrt_fold)."""
        return _sqrt_fold(self.conductor, 2 * self.N)

    def scalar(self, rat=0, rad=0) -> "Scalar":
        """(rat + rad * sqrt(2N)) from two rationals or sequences of them."""
        ratp = [rat] if isinstance(rat, (int, Fraction)) else list(rat)
        radp = [rad] if isinstance(rad, (int, Fraction)) else list(rad)
        nums, den = _common_den([Fraction(c) for c in ratp + radp])
        return self.from_ints(nums[: len(ratp)], nums[len(ratp) :], den)

    def from_ints(self, rat=(), rad=(), den: int = 1) -> "Scalar":
        """(rat + rad * sqrt(2N)) / den from integer coefficient sequences, den > 0.

        Reduces mod Phi_n, folds the radical where it lies in Q(zeta_n),
        and divides out the gcd.
        """
        n = self.conductor
        deg = self.degree
        # only inputs longer than phi(n) need reducing, which overwrites a copy
        rat = _reduce(list(rat), n) if len(rat) > deg else _trim(rat)
        rad = _reduce(list(rad), n) if len(rad) > deg else _trim(rad)
        if rad and self.fold is not None:
            rat = _combine(rat, 1, _pmulmod(rad, self.fold, n), 1)
            rad = ()
        return _canonical(self, rat, rad, den)

    def zero(self) -> "Scalar":
        return Scalar(self, (), (), 1)

    def one(self) -> "Scalar":
        return Scalar(self, (1,), (), 1)

    def from_fraction(self, value) -> "Scalar":
        f = value if type(value) is Fraction else Fraction(value)
        return Scalar(self, (f.numerator,) if f else (), (), f.denominator)

    def zeta(self, power: int = 1) -> "Scalar":
        """zeta_conductor raised to the given power."""
        k = power % self.conductor
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        # a power of zeta is a unit of Z[zeta], so its numerators are coprime
        return Scalar(self, _reduce(coeffs, self.conductor), (), 1)

    def i(self) -> "Scalar":
        return self.zeta(self.conductor // 4)

    def sqrt_2n(self) -> "Scalar":
        """sqrt(2N), the norm of the lattice generator."""
        return self.from_ints((), (1,))

    def embed_root_of_unity(self, p: int, q: int) -> "Scalar":
        """zeta_q^p as an element of this field; q must divide the conductor."""
        if q < 1:
            raise ValueError("root order must be positive")
        if self.conductor % q:
            need = lcm(self.conductor, q, 4)
            hint = (
                f"rebuild the context with conductor {need}"
                if need <= MAX_CONDUCTOR
                else f"it needs conductor {need}, above the cap of {MAX_CONDUCTOR}"
            )
            raise ConductorError(f"zeta_{q} is not in Q(zeta_{self.conductor}); {hint}")
        return self.zeta((self.conductor // q) * p)


def _canonical(ctx: Context, rat: tuple, rad: tuple, den: int) -> "Scalar":
    """Scalar from trimmed integer tuples over den > 0, after one gcd pass."""
    g = gcd(den, *rat, *rad)
    if g != 1:
        den //= g
        rat = tuple([c // g for c in rat])
        if rad:
            rad = tuple([c // g for c in rad])
    return Scalar(ctx, rat, rad, den)


class Scalar:
    """Element (rat_num + rad_num * sqrt(2N)) / den of Q(zeta_n)(sqrt(2N)).

    rat_num and rad_num are integer coefficient tuples in zeta_n over the
    shared positive denominator den, in the canonical form of the module
    docstring; the rat and rad properties give the same two components as
    tuples of reduced Fractions.  Treated as immutable.  Do not call the
    constructor with unreduced data; go through the Context constructors,
    which canonicalize and fold the radical.
    """

    __slots__ = ("ctx", "rat_num", "rad_num", "den")

    def __init__(self, ctx: Context, rat_num: tuple, rad_num: tuple, den: int):
        self.ctx = ctx
        self.rat_num = rat_num
        self.rad_num = rad_num
        self.den = den

    @property
    def rat(self) -> tuple:
        den = self.den
        return tuple(Fraction(c, den) for c in self.rat_num)

    @property
    def rad(self) -> tuple:
        den = self.den
        return tuple(Fraction(c, den) for c in self.rad_num)

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return (
            self.den == other.den
            and self.rat_num == other.rat_num
            and self.rad_num == other.rad_num
            and self.ctx == other.ctx
        )

    def __hash__(self):
        return hash((self.rat_num, self.rad_num, self.den))

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatchError(
                    f"cannot combine scalars over {self.ctx} and {other.ctx}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not Scalar or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.rat_num and not other.rad_num:
            return self
        if not self.rat_num and not self.rad_num:
            return other
        da, db = self.den, other.den
        if da == db:
            fa = fb = 1
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
        rat = _combine(self.rat_num, fa, other.rat_num, fb)
        rad = (
            _combine(self.rad_num, fa, other.rad_num, fb)
            if self.rad_num or other.rad_num
            else ()
        )
        return _canonical(self.ctx, rat, rad, da * fa)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(
            self.ctx, tuple(-c for c in self.rat_num), tuple(-c for c in self.rad_num), self.den
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Scalar or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ctx = self.ctx
        # fast path: a rational factor p/q; as for Fractions, the gcds of p
        # with the other den and of q with the other numerators leave the
        # product canonical without a further pass
        if not other.rad_num and len(other.rat_num) <= 1:
            x, y = other, self
        elif not self.rad_num and len(self.rat_num) <= 1:
            x, y = self, other
        else:
            n = ctx.conductor
            a, b = self, other
            rat = _pmulmod(a.rat_num, b.rat_num, n)
            if a.rad_num and b.rad_num:
                rat = _combine(rat, 1, _pmulmod(a.rad_num, b.rad_num, n), 2 * ctx.N)
            rad = _combine(
                _pmulmod(a.rat_num, b.rad_num, n), 1, _pmulmod(a.rad_num, b.rat_num, n), 1
            )
            return _canonical(ctx, rat, rad, a.den * b.den)
        if not x.rat_num:
            return ctx.zero()
        p, q = x.rat_num[0], x.den
        rat, rad, den = y.rat_num, y.rad_num, y.den
        g = gcd(p, den)
        if g != 1:
            p //= g
            den //= g
        if q != 1:
            g = gcd(q, *rat, *rad)
            if g != 1:
                q //= g
                rat = [c // g for c in rat]
                rad = [c // g for c in rad]
            den *= q
        return Scalar(
            ctx,
            tuple([p * c for c in rat]),
            tuple([p * c for c in rad]) if rad else (),
            den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.ctx.conductor
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        d = self.den
        if not self.rad_num:
            inv, den = _pinv_mod(self.rat_num, n)
            return _canonical(self.ctx, tuple(d * c for c in inv), (), den)
        # (a + b r)^-1 = (a - b r) / (a^2 - 2N b^2); the denominator is a
        # nonzero cyclotomic number because r = sqrt(2N) is not in Q(zeta_n)
        # whenever the radical component survives canonicalization.  Over
        # the shared den, (a + b r) / d inverts to d (a - b r) / (a^2 - 2N b^2).
        norm = _combine(
            _pmulmod(self.rat_num, self.rat_num, n),
            1,
            _pmulmod(self.rad_num, self.rad_num, n),
            -2 * self.ctx.N,
        )
        inv, den = _pinv_mod(norm, n)
        return _canonical(
            self.ctx,
            tuple(d * c for c in _pmulmod(self.rat_num, inv, n)),
            tuple(-d * c for c in _pmulmod(self.rad_num, inv, n)),
            den,
        )

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Scalar":
        n = self.ctx.conductor
        return _canonical(
            self.ctx, _galois(self.rat_num, -1, n), _galois(self.rad_num, -1, n), self.den
        )

    def is_zero(self) -> bool:
        return not self.rat_num and not self.rad_num

    def is_one(self) -> bool:
        return self.den == 1 and self.rat_num == (1,) and not self.rad_num

    def is_rational(self) -> bool:
        return not self.rad_num and len(self.rat_num) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return Fraction(self.rat_num[0], self.den) if self.rat_num else _ZERO

    def to_json(self) -> dict:
        return {
            "rat": [[c.numerator, c.denominator] for c in self.rat],
            "rad": [[c.numerator, c.denominator] for c in self.rad],
            "n": self.ctx.conductor,
            "N": self.ctx.N,
        }

    def __str__(self):
        def side(coeffs):
            if not coeffs:
                return "0"
            parts = []
            for k, c in enumerate(coeffs):
                if not c:
                    continue
                if k == 0:
                    parts.append(str(c))
                elif k == 1:
                    parts.append(f"{c}*z" if c != 1 else "z")
                else:
                    parts.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
            return " + ".join(parts)

        rat, rad = self.rat, self.rad
        if not rad:
            return side(rat)
        if not rat:
            return f"({side(rad)})*r"
        return f"{side(rat)} + ({side(rad)})*r"

    __repr__ = __str__


def json_int(value, what: str) -> int:
    """value if it is a JSON integer (not a boolean), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def scalar_from_json(data: dict, ctx: Context | None = None) -> Scalar:
    """Parse scalar JSON; malformed input raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"scalar JSON must be an object, got {data!r}")
    want = Context(
        N=json_int(data.get("N"), "scalar N"), conductor=json_int(data.get("n"), "scalar n")
    )
    if ctx is not None and ctx != want:
        raise ContextMismatchError(
            f"scalar JSON carries context {want}, expected {ctx}"
        )
    parts = []
    for key in ("rat", "rad"):
        pairs = data.get(key)
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            raise ValueError(f"scalar {key} must be a list of [p, q] pairs, got {pairs!r}")
        if any(json_int(q, f"scalar {key} denominator") == 0 for _, q in pairs):
            raise ValueError(f"scalar {key} has a zero denominator")
        parts.append([Fraction(json_int(p, f"scalar {key} numerator"), q) for p, q in pairs])
    return want.scalar(*parts)
