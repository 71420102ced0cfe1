"""Exact Laurent-polynomial and cyclotomic-integer arithmetic.

Everything in this module is exact.  Laurent polynomials carry int
coefficients only; elements of Z[q], with q a primitive 2p-th root of unity,
are kept in a canonical coordinate vector so that equality of field
elements is literal equality of tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


class IntegralityError(ArithmeticError):
    """An exact division left a remainder, or a value that is an integer by
    theorem failed to be one.  Signals an implementation bug or inconsistent
    input, never a rounding problem."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def check_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError("p = 2 is not supported here: the trace machinery needs p > 2")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


class LaurentPoly:
    """Finitely supported Laurent polynomial sum_j b_j z^j.

    Immutable; zero coefficients are never stored.  Coefficients are ints
    (bool and every other type raise TypeError).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(c) is not int:
                    raise TypeError(f"coefficient must be int, got {type(c).__name__}")
                if c != 0:
                    data[int(e)] = c
        object.__setattr__(self, "_coeffs", data)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exponent: coeff})

    # -- inspection --------------------------------------------------------

    def coeff(self, e: int) -> int:
        return self._coeffs.get(e, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient (0 for the zero polynomial)."""
        return max(self._coeffs) if self._coeffs else 0

    def valuation(self) -> int:
        return min(self._coeffs) if self._coeffs else 0

    def is_symmetric(self) -> bool:
        """True iff b_j = b_{-j} for all j, i.e. the polynomial is fixed by z -> 1/z."""
        return all(self._coeffs.get(-e, 0) == c for e, c in self._coeffs.items())

    def evaluate(self, x: int | Fraction) -> int | Fraction:
        """The value at a nonzero rational x, as an int whenever it is one."""
        if x == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at 0")
        total = sum(c * Fraction(x) ** e for e, c in self._coeffs.items())
        return int(total) if total.denominator == 1 else total

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else -LaurentPoly.constant(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.constant(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of Laurent polynomials are not defined")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale_exponents(self, k: int) -> "LaurentPoly":
        """The image under z -> z^k, for nonzero k."""
        if k == 0:
            raise ValueError("exponent scale factor must be nonzero")
        return LaurentPoly({k * e: c for e, c in self._coeffs.items()})

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other by integer long division; raises
        IntegralityError on any remainder.  A step that does not divide
        evenly leaves its floor remainder in a position no later step
        touches, so a non-integral quotient is a remainder too."""
        if other.is_zero():
            raise ValueError("division by the zero polynomial")
        sn, sd = self.valuation(), other.valuation()
        rem = [self._coeffs.get(e, 0) for e in range(sn, self.degree() + 1)]
        den = [other._coeffs.get(e, 0) for e in range(sd, other.degree() + 1)]
        quot = {}
        for i in range(len(rem) - len(den), -1, -1):
            c = rem[i + len(den) - 1] // den[-1]
            if c:
                quot[i + sn - sd] = c
                for j, dc in enumerate(den):
                    rem[i + j] -= c * dc
        if any(rem):
            raise IntegralityError("Laurent division left a nonzero remainder")
        return LaurentPoly(quot)

    # -- object protocol ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items(), reverse=True):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            cs = str(mag) if (mag != 1 or e == 0) else ""
            if e == 0:
                term = cs or "1"
            elif e == 1:
                term = f"{cs}z"
            else:
                term = f"{cs}z^{e}"
            parts.append((sign, term))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, term in parts[1:]:
            text += sign + term
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"


# Bound on quantum_int's memo table: library callers ask for r up to about
# 2p, and the wire formats expand [r]_z through quantum_sum instead.
_QUANTUM_INT_CACHE_SIZE = 256


@lru_cache(maxsize=_QUANTUM_INT_CACHE_SIZE)
def quantum_int(r: int) -> LaurentPoly:
    """The quantum integer [r]_z = (z^r - z^-r) / (z - z^-1).

    Expands to z^{r-1} + z^{r-3} + ... + z^{1-r} for r >= 1; [0]_z = 0 and
    [-r]_z = -[r]_z.  Always symmetric and integral.
    """
    if r == 0:
        return LaurentPoly.zero()
    if r < 0:
        return -quantum_int(-r)
    return LaurentPoly({r - 1 - 2 * k: 1 for k in range(r)})


def quantum_sum(weights) -> LaurentPoly:
    """sum_r weights[r-1] [r]_z in O(len(weights)) integer additions.

    The coefficient of z^e is the sum of weights[r-1] over r > |e| with
    r - e odd, so one suffix sum over each parity class of r gives them all.
    """
    n = len(weights)
    suffix = [0] * (n + 3)
    for r in range(n, 0, -1):
        suffix[r] = weights[r - 1] + suffix[r + 2]
    return LaurentPoly({e: suffix[abs(e) + 1] for e in range(1 - n, n)})


def gauss_binom(n: int, m: int) -> LaurentPoly:
    """The symmetrized Gauss polynomial binom(n, m)_z.

    row[b] holds the q-coefficients of [a+b, b]_q, stepped from a = 0 to n-m
    by the q-Pascal rule [a+b, b]_q = [a+b-1, b-1]_q + q^b [a+b-1, b]_q in
    integer additions alone, then centred at q = z^2 by z^{-m(n-m)}.  The
    value at z = 1 is the ordinary binomial coefficient.
    """
    if m < 0 or n < 0 or m > n:
        raise ValueError(f"gauss_binom requires 0 <= m <= n, got n={n}, m={m}")
    row = [[1] for _ in range(m + 1)]
    for a in range(1, n - m + 1):
        for b in range(1, m + 1):
            left, right = row[b - 1], row[b]  # already at a, still at a - 1
            row[b] = left[:b] + [x + y for x, y in zip(left[b:], right)] + right[len(left) - b :]
    shift = m * (n - m)
    return LaurentPoly({2 * d - shift: c for d, c in enumerate(row[m])})


def _alternating_sum(contributions: tuple[tuple[int, int], ...]) -> int:
    """sum_j (-1)^j c over (j, c) pairs."""
    return sum(-c if j % 2 else c for j, c in contributions)


def alternating_p_sum(f: LaurentPoly, p: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The functional sum_j (-1)^j c_{pj} on f = sum_j c_j z^j, which is the
    constant term of f mod z^p + 1, with its nonzero (j, c_{pj}) pairs sorted
    by j.  Walks the support of f, so its cost does not grow with degree."""
    contributions = tuple(sorted((e // p, c) for e, c in f._coeffs.items() if e % p == 0))
    return _alternating_sum(contributions), contributions


def twice_trace(f: LaurentPoly, p: int) -> int:
    """Twice the field trace of f(q) from the real subfield of Q(q) down to Q,
    for q a primitive 2p-th root of unity, computed combinatorially:

        p * sum_j (-1)^j b_{pj}  -  f(-1),

    where b_j are the coefficients of f.  Requires f symmetric, so that f(q)
    is real.
    """
    check_odd_prime(p)
    if not f.is_symmetric():
        raise ValueError("twice_trace requires a symmetric Laurent polynomial")
    return p * alternating_p_sum(f, p)[0] - f.evaluate(-1)


# ---------------------------------------------------------------------------
# Canonical elements of Z[q], q = primitive 2p-th root of unity.
# ---------------------------------------------------------------------------


def _canonical_coords(p: int, terms: dict[int, int]) -> tuple[int, ...]:
    """Reduce an integer combination of powers of q to coordinates over the
    basis 1, q, ..., q^{p-2}, using q^{2p} = 1, q^p = -1 and the minimal
    polynomial q^{p-1} - q^{p-2} + ... - q + 1 = 0."""
    acc = [0] * p
    for e, c in terms.items():
        e %= 2 * p
        if e >= p:
            acc[e - p] -= c
        else:
            acc[e] += c
    top = acc.pop()
    if top:
        # q^{p-1} = q^{p-2} - q^{p-3} + ... + q - 1
        for i in range(p - 1):
            acc[i] += top if i % 2 else -top
    return tuple(acc)


@dataclass(frozen=True)
class Cyclotomic:
    """Canonical element of Z[q] with q a primitive 2p-th root of unity.

    Coordinates are over the basis 1, q, ..., q^{p-2}; two elements are equal
    iff their coordinate tuples are equal.  For p = 2 the ring degenerates to
    Z (a single coordinate) since the real subfield is Q.
    """

    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if len(self.coords) != self.p - 1:
            raise ValueError(f"expected {self.p - 1} coordinates, got {len(self.coords)}")
        if not all(type(c) is int for c in self.coords):
            raise TypeError("coordinates must be integers (bool is rejected)")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "Cyclotomic":
        return cls.from_int(p, 1)

    @classmethod
    def from_int(cls, p: int, n: int) -> "Cyclotomic":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def root_power(cls, p: int, e: int) -> "Cyclotomic":
        """The canonical form of q^e."""
        check_odd_prime(p)
        return cls(p, _canonical_coords(p, {e: 1}))

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "Cyclotomic") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed cyclotomic orders: p={self.p} vs p={other.p}")

    def __add__(self, other: "Cyclotomic | int") -> "Cyclotomic":
        if isinstance(other, int):
            other = Cyclotomic.from_int(self.p, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check_same(other)
        return Cyclotomic(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.p, tuple(-a for a in self.coords))

    def __sub__(self, other: "Cyclotomic | int") -> "Cyclotomic":
        if isinstance(other, int):
            other = Cyclotomic.from_int(self.p, other)
        return self + (-other)

    def __rsub__(self, other: int) -> "Cyclotomic":
        return Cyclotomic.from_int(self.p, other) - self

    def __mul__(self, other: "Cyclotomic | int") -> "Cyclotomic":
        if isinstance(other, int):
            return Cyclotomic(self.p, tuple(a * other for a in self.coords))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check_same(other)
        if self.p == 2:
            return Cyclotomic(2, (self.coords[0] * other.coords[0],))
        prod: dict[int, int] = {}
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    prod[i + j] = prod.get(i + j, 0) + a * b
        return Cyclotomic(self.p, _canonical_coords(self.p, prod))

    __rmul__ = __mul__

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coords)

    @property
    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def as_int(self) -> int:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def conjugate(self) -> "Cyclotomic":
        """The image under q -> 1/q (complex conjugation); identity for p = 2."""
        if self.p == 2:
            return self
        return galois(self, 2 * self.p - 1)

    @property
    def is_real(self) -> bool:
        return self.conjugate() == self

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in range(self.p - 2, -1, -1):
            c = self.coords[e]
            if c == 0:
                continue
            mag = str(abs(c)) if (abs(c) != 1 or e == 0) else ""
            if e == 0:
                term = mag or "1"
            elif e == 1:
                term = f"{mag}q"
            else:
                term = f"{mag}q^{e}"
            parts.append(("-" if c < 0 else "+", term))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, term in parts[1:]:
            text += sign + term
        return text


def to_cyclotomic(f: LaurentPoly, p: int) -> Cyclotomic:
    """Evaluate a Laurent polynomial at q and reduce to canonical form."""
    check_odd_prime(p)
    return Cyclotomic(p, _canonical_coords(p, f._coeffs))


def galois(x: Cyclotomic, k: int) -> Cyclotomic:
    """The ring automorphism q -> q^k of Z[q], for k coprime to 2p."""
    p = x.p
    check_odd_prime(p)
    if gcd(k, 2 * p) != 1:
        raise ValueError(f"k = {k} is not coprime to 2p = {2 * p}")
    terms: dict[int, int] = {}
    for i, c in enumerate(x.coords):
        if c:
            e = (i * k) % (2 * p)
            terms[e] = terms.get(e, 0) + c
    return Cyclotomic(p, _canonical_coords(p, terms))
