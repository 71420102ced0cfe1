"""The Grothendieck ring of the Verlinde category Ver_p.

Objects are integer multiplicity vectors over the simples L_1, ..., L_{p-1}
(L_1 is the unit).  Negative multiplicities are allowed: such "virtual"
elements of the Grothendieck group arise from Adams operations and from
decompositions of inconsistent dimension data.
"""
from __future__ import annotations

from dataclasses import dataclass

from .laurent import Cyclotomic, LaurentPoly, is_prime, quantum_sum, to_cyclotomic


def _reject_p2(p: int, what: str) -> None:
    if p == 2:
        raise ValueError(f"{what} is only defined for p > 2 (the parity grading degenerates at p = 2)")


@dataclass(frozen=True)
class VerObj:
    """Element of the Grothendieck group of Ver_p: mults[r-1] copies of L_r."""

    p: int
    mults: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if len(self.mults) != self.p - 1:
            raise ValueError(f"expected {self.p - 1} multiplicities for p = {self.p}, got {len(self.mults)}")
        if not all(type(a) is int for a in self.mults):
            raise TypeError("multiplicities must be integers (bool is rejected)")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "VerObj":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def unit(cls, p: int) -> "VerObj":
        return cls.simple(p, 1)

    @classmethod
    def simple(cls, p: int, r: int) -> "VerObj":
        if not 1 <= r <= p - 1:
            raise ValueError(f"simple index r = {r} out of range 1..{p - 1}")
        return cls(p, tuple(1 if s == r else 0 for s in range(1, p)))

    # -- inspection --------------------------------------------------------

    def mult(self, r: int) -> int:
        """Multiplicity of L_r."""
        if not 1 <= r <= self.p - 1:
            raise ValueError(f"simple index r = {r} out of range 1..{self.p - 1}")
        return self.mults[r - 1]

    def is_effective(self) -> bool:
        return all(a >= 0 for a in self.mults)

    def is_zero(self) -> bool:
        return not any(self.mults)

    def length(self) -> int:
        """Total number of simple summands (for effective objects)."""
        return sum(self.mults)

    def support(self) -> tuple[int, ...]:
        return tuple(r for r in range(1, self.p) if self.mults[r - 1])

    def simple_multiset(self) -> tuple[int, ...]:
        """The simples of an effective object, with multiplicity, as a sorted tuple."""
        if not self.is_effective():
            raise ValueError("virtual element has no multiset of simples")
        out = []
        for r in range(1, self.p):
            out.extend([r] * self.mults[r - 1])
        return tuple(out)

    # -- group and ring structure -------------------------------------------

    def _check_same(self, other: "VerObj") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed primes: p={self.p} vs p={other.p}")

    def __add__(self, other: "VerObj") -> "VerObj":
        if not isinstance(other, VerObj):
            return NotImplemented
        self._check_same(other)
        return VerObj(self.p, tuple(a + b for a, b in zip(self.mults, other.mults)))

    def __sub__(self, other: "VerObj") -> "VerObj":
        if not isinstance(other, VerObj):
            return NotImplemented
        self._check_same(other)
        return VerObj(self.p, tuple(a - b for a, b in zip(self.mults, other.mults)))

    def __neg__(self) -> "VerObj":
        return VerObj(self.p, tuple(-a for a in self.mults))

    def __mul__(self, other: "VerObj | int") -> "VerObj":
        if isinstance(other, int):
            return VerObj(self.p, tuple(a * other for a in self.mults))
        if isinstance(other, VerObj):
            return fuse(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for r in range(1, self.p):
            a = self.mults[r - 1]
            if a == 0:
                continue
            mag = "" if abs(a) == 1 else str(abs(a))
            parts.append(("-" if a < 0 else "+", f"{mag}L{r}"))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, term in parts[1:]:
            text += sign + term
        return text


@dataclass(frozen=True)
class ParitySplit:
    """Decomposition of an element into its odd-index and even-index parts."""

    plus: VerObj
    minus: VerObj

    @property
    def total(self) -> VerObj:
        return self.plus + self.minus


def fuse(x: VerObj, y: VerObj) -> VerObj:
    """Product in the Grothendieck ring, extended bilinearly from the
    truncated Clebsch-Gordan rule on simples:

        L_r . L_s = sum of L_{|r-s| + 2i - 1}  for  i = 1 .. min(r, s, p-r, p-s).
    """
    x._check_same(y)
    p = x.p
    out = [0] * (p - 1)
    for r in range(1, p):
        a = x.mults[r - 1]
        if a == 0:
            continue
        for s in range(1, p):
            b = y.mults[s - 1]
            if b == 0:
                continue
            for i in range(1, min(r, s, p - r, p - s) + 1):
                out[abs(r - s) + 2 * i - 2] += a * b
    return VerObj(p, tuple(out))


def character(j: int, x: VerObj) -> Cyclotomic:
    """The j-th character of the fusion ring: L_r maps to [r] evaluated at q^j.

    The characters for j = 1 .. p-1 are exactly the ring homomorphisms to the
    cyclotomic integers; j = 1 is the Frobenius-Perron dimension and j = p-1
    the signed (super) dimension.  Computed by folding the representative
    fpdim_rep(x) once: z^e goes to q^{je}, then one canonical reduction.
    """
    p = x.p
    if p == 2:
        if j != 1:
            raise ValueError("for p = 2 the only character is j = 1")
        return Cyclotomic(2, (x.mults[0],))
    if not 1 <= j <= p - 1:
        raise ValueError(f"character index j = {j} out of range 1..{p - 1}")
    return to_cyclotomic(fpdim_rep(x).scale_exponents(j), p)


def fpdim(x: VerObj) -> Cyclotomic:
    """Frobenius-Perron dimension: the unique character with positive values."""
    return character(1, x)


def fpdim_rep(x: VerObj) -> LaurentPoly:
    """Distinguished symmetric Laurent representative of fpdim: sum_r a_r [r]_z."""
    return quantum_sum(x.mults)


def sfpdim(x: VerObj) -> Cyclotomic:
    """Super Frobenius-Perron dimension: fpdim of the odd-index part minus
    fpdim of the even-index part.  Equals the (p-1)-st character; for p = 2
    it coincides with fpdim."""
    return character(x.p - 1, x)


def sfpdim_rep(x: VerObj) -> LaurentPoly:
    """Symmetric Laurent representative of sfpdim: sum_r (-1)^{r-1} a_r [r]_z."""
    return quantum_sum([a if r % 2 else -a for r, a in enumerate(x.mults, start=1)])


def parity_split(x: VerObj) -> ParitySplit:
    """Split by index parity; odd-index simples span the even ("plus") part."""
    _reject_p2(x.p, "parity_split")
    plus = tuple(a if r % 2 == 1 else 0 for r, a in enumerate(x.mults, start=1))
    minus = tuple(a if r % 2 == 0 else 0 for r, a in enumerate(x.mults, start=1))
    return ParitySplit(VerObj(x.p, plus), VerObj(x.p, minus))


def dim_mod_p(x: VerObj) -> int:
    """Categorical dimension in F_p: L_r has dimension r mod p."""
    _reject_p2(x.p, "dim_mod_p")
    return sum(r * a for r, a in enumerate(x.mults, start=1)) % x.p
