"""Exact coefficient field for lattice vertex algebra computations.

Scalars live in Q(zeta_n)(sqrt(2N)): the cyclotomic field of conductor n
(a multiple of 4, so i = zeta_n^{n/4} exists) extended by the square root
of 2N.  A scalar is a pair of polynomials in zeta_n with rational
coefficients, reduced mod the n-th cyclotomic polynomial:

    value = rat(zeta_n) + rad(zeta_n) * sqrt(2N)

Canonical form: both components are coefficient tuples by increasing
power, degree below phi(n), trailing zeros dropped, every coefficient a
reduced Fraction.  Equality is structural equality of canonical forms.

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
from functools import lru_cache
from math import isqrt, lcm


class ContextMismatchError(ValueError):
    """Raised when scalars from different contexts are combined."""


class ConductorError(ValueError):
    """Raised when a requested root of unity does not exist at this conductor."""


Poly = "tuple[Fraction, ...]"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(coeffs) -> tuple:
    k = len(coeffs)
    while k and not coeffs[k - 1]:
        k -= 1
    return tuple(coeffs[:k])


def _padd(a, b) -> tuple:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _trim(out)


def _pneg(a) -> tuple:
    return tuple(-c for c in a)


def _pscale(a, f: Fraction) -> tuple:
    if not f:
        return ()
    return tuple(c * f for c in a)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, increasing powers, monic."""
    # Phi_n = (x^n - 1) / prod over proper divisors d | n of Phi_d,
    # computed by exact integer long division.
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic(d)
            num = _int_polydiv(num, den)
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
    phi = _cyclotomic(n)
    deg = len(phi) - 1
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(deg):
                coeffs[k - deg + i] -= c * phi[i]
            coeffs[k] = _ZERO
    return _trim(coeffs[:deg])


def _pmulmod(a, b, n: int) -> tuple:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _reduce(out, n)


def _conj_poly(a, n: int) -> tuple:
    # zeta^k -> zeta^{-k} on the power basis, then reduce
    if not a:
        return a
    out = [_ZERO] * n
    for k, c in enumerate(a):
        out[(n - k) % n] += c
    return _reduce(out, n)


def _pinv_mod(a, n: int) -> tuple:
    """Inverse of a mod Phi_n by the extended Euclidean algorithm over Q[x]."""
    if not a:
        raise ZeroDivisionError("scalar inverse of zero")
    r0, r1 = [Fraction(c) for c in _cyclotomic(n)], list(a)
    s0, s1 = [], [_ONE]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if len(r1) == 1:
            inv = 1 / r1[0]
            return _reduce([c * inv for c in s1], n)
        q = _q_polydivmod(r0, r1)
        r0, r1 = r1, r0
        s0, s1 = s1, _psub_list(s0, _plmul(q, s1))


def _q_polydivmod(num: list, den: list) -> list:
    # divides num by den in place (num becomes the remainder), returns quotient
    dd = len(den) - 1
    lead = den[-1]
    if len(num) <= dd:
        return []
    out = [_ZERO] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            q = c / lead
            out[k - dd] = q
            for i in range(dd + 1):
                num[k - dd + i] -= q * den[i]
    while num and not num[-1]:
        num.pop()
    return out


def _plmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _psub_list(a: list, b: list) -> list:
    out = list(a) + [_ZERO] * max(0, len(b) - len(a))
    for k, c in enumerate(b):
        out[k] -= c
    return out


def _squarefree_split(m: int) -> tuple:
    """m = s^2 * d with d squarefree; returns (s, d)."""
    s, d, k = 1, m, 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1
    return s, d


@lru_cache(maxsize=None)
def _sqrt_fold(n: int, two_n: int):
    """Canonical representation of sqrt(two_n) in Q(zeta_n), or None.

    Built from quadratic Gauss sums: for odd m, sum over a mod m of
    zeta_m^{a^2} equals sqrt(m) when m = 1 mod 4 and i*sqrt(m) when
    m = 3 mod 4; sqrt(2) = zeta_8 - zeta_8^3.
    """
    s, d = _squarefree_split(two_n)
    if d == 1:
        return (Fraction(s),)
    m = d if d % 4 == 1 else 4 * d
    if n % m:
        return None
    root = (Fraction(s),)
    e = d
    if e % 2 == 0:
        e //= 2
        sqrt2 = [_ZERO] * n
        sqrt2[n // 8] = _ONE
        sqrt2[3 * n // 8] = -_ONE
        root = _pmulmod(root, _reduce(sqrt2, n), n)
    if e > 1:
        gauss = [_ZERO] * n
        step = n // e
        for a in range(e):
            gauss[(step * a * a) % n] += _ONE
        gauss = _reduce(gauss, n)
        if e % 4 == 3:
            minus_i = [_ZERO] * n
            minus_i[n // 4] = -_ONE
            gauss = _pmulmod(gauss, _reduce(minus_i, n), n)
        root = _pmulmod(root, gauss, n)
    return root


@dataclass(frozen=True)
class Context:
    """Coefficient field Q(zeta_conductor)(sqrt(2N)) for the lattice L_{2N}.

    N is the lattice parameter; conductor must be a multiple of 4 and at
    least 4 (default 4, giving Q(i) plus the radical).
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

    @property
    def fold(self):
        return _sqrt_fold(self.conductor, 2 * self.N)

    def scalar(self, rat=0, rad=0) -> "Scalar":
        ratp = self._coerce_poly(rat)
        radp = self._coerce_poly(rad)
        if radp and self.fold is not None:
            ratp = _padd(ratp, _pmulmod(radp, self.fold, self.conductor))
            radp = ()
        return Scalar(self, ratp, radp)

    def _coerce_poly(self, value) -> tuple:
        if isinstance(value, (int, Fraction)):
            return _trim((Fraction(value),))
        return _reduce([Fraction(c) for c in value], self.conductor)

    def zero(self) -> "Scalar":
        return Scalar(self, (), ())

    def one(self) -> "Scalar":
        return Scalar(self, (_ONE,), ())

    def from_fraction(self, value) -> "Scalar":
        return Scalar(self, _trim((Fraction(value),)), ())

    def zeta(self, power: int = 1) -> "Scalar":
        """zeta_conductor raised to the given power."""
        k = power % self.conductor
        coeffs = [_ZERO] * (k + 1)
        coeffs[k] = _ONE
        return Scalar(self, _reduce(coeffs, self.conductor), ())

    def i(self) -> "Scalar":
        return self.zeta(self.conductor // 4)

    def sqrt_2n(self) -> "Scalar":
        """sqrt(2N), the norm of the lattice generator."""
        return self.scalar(0, 1)

    def embed_root_of_unity(self, p: int, q: int) -> "Scalar":
        """zeta_q^p as an element of this field; q must divide the conductor."""
        if q < 1:
            raise ValueError("root order must be positive")
        if self.conductor % q:
            need = lcm(self.conductor, q, 4)
            raise ConductorError(
                f"zeta_{q} is not in Q(zeta_{self.conductor}); "
                f"rebuild the context with conductor {need}"
            )
        return self.zeta((self.conductor // q) * p)


@dataclass(frozen=True)
class Scalar:
    """Element of Q(zeta_n)(sqrt(2N)) in canonical two-component form.

    Do not call the constructor with unreduced data; go through
    Context.scalar, which canonicalizes and folds the radical.
    """

    ctx: Context
    rat: tuple
    rad: tuple

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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.rat and not other.rad:
            return self
        if not self.rat and not self.rad:
            return other
        return Scalar(self.ctx, _padd(self.rat, other.rat), _padd(self.rad, other.rad))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, _pneg(self.rat), _pneg(self.rad))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.ctx.conductor
        a, b = self, other
        # fast path: rational factor
        for x, y in ((a, b), (b, a)):
            if not x.rad and len(x.rat) <= 1:
                if not x.rat:
                    return self.ctx.zero()
                f = x.rat[0]
                return Scalar(self.ctx, _pscale(y.rat, f), _pscale(y.rad, f))
        two_n = 2 * self.ctx.N
        rat = _padd(
            _pmulmod(a.rat, b.rat, n),
            _pscale(_pmulmod(a.rad, b.rad, n), Fraction(two_n)),
        )
        rad = _padd(_pmulmod(a.rat, b.rad, n), _pmulmod(a.rad, b.rat, n))
        return Scalar(self.ctx, rat, rad)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.ctx.conductor
        if not self.rat and not self.rad:
            raise ZeroDivisionError("scalar inverse of zero")
        if not self.rad:
            return Scalar(self.ctx, _pinv_mod(self.rat, n), ())
        # (a + b r)^-1 = (a - b r) / (a^2 - 2N b^2); the denominator is a
        # nonzero cyclotomic number because r = sqrt(2N) is not in Q(zeta_n)
        # whenever the radical component survives canonicalization.
        two_n = Fraction(2 * self.ctx.N)
        denom = _padd(
            _pmulmod(self.rat, self.rat, n),
            _pscale(_pmulmod(self.rad, self.rad, n), -two_n),
        )
        di = _pinv_mod(denom, n)
        return Scalar(self.ctx, _pmulmod(self.rat, di, n), _pneg(_pmulmod(self.rad, di, n)))

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
        return Scalar(self.ctx, _conj_poly(self.rat, n), _conj_poly(self.rad, n))

    def is_zero(self) -> bool:
        return not self.rat and not self.rad

    def is_rational(self) -> bool:
        return not self.rad and len(self.rat) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return self.rat[0] if self.rat else _ZERO

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

        if not self.rad:
            return side(self.rat)
        if not self.rat:
            return f"({side(self.rad)})*r"
        return f"{side(self.rat)} + ({side(self.rad)})*r"

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
