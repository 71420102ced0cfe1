"""Ground truth by brute force: exact F_p linear algebra on unipotent
matrices, i.e. on representations of the cyclic group of order p.

Nothing here uses a closed-form decomposition rule.  Tensor, symmetric and
exterior powers are realized as explicit matrices on monomial or wedge bases,
Jordan types are read off ranks of powers of u - 1, and the passage to the
Verlinde ring just deletes blocks of size p (the negligible ones).

Matrices over F_p are plain numpy int64 arrays with entries reduced mod p;
all rank computations are exact Gauss elimination mod p.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .laurent import is_prime
from .ring import VerObj


@dataclass(frozen=True)
class JordanType:
    """Multiset of Jordan block sizes of a unipotent operator over F_p.

    Every block of a representation of Z/pZ has size at most p.
    """

    p: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks)))
        if not all(1 <= b <= self.p for b in self.blocks):
            raise ValueError(f"block sizes must lie in 1..{self.p}, got {self.blocks}")

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    def count(self, size: int) -> int:
        return sum(1 for b in self.blocks if b == size)

    def __str__(self) -> str:
        return "{" + ",".join(str(b) for b in self.blocks) + "}"


def unipotent_block(r: int) -> np.ndarray:
    """The r x r unipotent Jordan block (ones on the diagonal and superdiagonal)."""
    if r < 1:
        raise ValueError("block size must be positive")
    u = np.eye(r, dtype=np.int64)
    for k in range(r - 1):
        u[k, k + 1] = 1
    return u


def direct_sum(*mats: np.ndarray) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=np.int64)
    k = 0
    for m in mats:
        d = m.shape[0]
        out[k : k + d, k : k + d] = m
        k += d
    return out


def unipotent_of_type(t: JordanType) -> np.ndarray:
    if not t.blocks:
        return np.zeros((0, 0), dtype=np.int64)
    return direct_sum(*(unipotent_block(b) for b in t.blocks))


def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over F_p by Gauss elimination."""
    return len(_column_basis(a, p))


def jordan_type_of(u: np.ndarray, p: int) -> JordanType:
    """Jordan type of a unipotent matrix, from the ranks of powers of u - 1:
    the number of blocks of size >= k is rank((u-1)^{k-1}) - rank((u-1)^k).

    The powers are never formed: a column basis of the image is carried along
    (im N^{k+1} = N(im N^k)), so each elimination runs on a shrinking matrix.
    """
    u = np.array(u, dtype=np.int64) % p
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    n = u.shape[0]
    if n == 0:
        return JordanType(p, ())
    nil = (u - np.eye(n, dtype=np.int64)) % p
    ranks = [n]
    image = nil
    for _ in range(p):
        pivots = _column_basis(image, p)
        ranks.append(len(pivots))
        if not pivots:
            break
        image = (nil @ image[:, pivots]) % p
    if ranks[-1] != 0:
        raise ValueError("matrix is not unipotent of order dividing p: (u-1)^p != 0")
    ranks.append(0)
    blocks = []
    for k in range(1, len(ranks) - 1):
        exactly_k = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        blocks.extend([k] * exactly_k)
    return JordanType(p, tuple(blocks))


def jordan_tensor(r: int, s: int, p: int) -> JordanType:
    """Jordan type of the Kronecker product of two unipotent blocks over F_p."""
    _check_block(r, p)
    _check_block(s, p)
    return jordan_type_of(np.kron(unipotent_block(r), unipotent_block(s)) % p, p)


def sym_power_matrix(u: np.ndarray, i: int, p: int) -> np.ndarray:
    """Matrix of the induced action on the i-th symmetric power, over the
    basis of degree-i monomials: each variable maps to the linear form read
    off its column, and monomials map to expanded products mod p."""
    u = np.array(u, dtype=np.int64) % p
    n = u.shape[0]
    basis = list(itertools.combinations_with_replacement(range(n), i))
    index = {b: k for k, b in enumerate(basis)}
    images = [
        {(l,): int(u[l, k]) for l in range(n) if u[l, k]} for k in range(n)
    ]
    out = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for col, mono in enumerate(basis):
        acc: dict[tuple[int, ...], int] = {(): 1}
        for var in mono:
            nxt: dict[tuple[int, ...], int] = {}
            for t1, c1 in acc.items():
                for t2, c2 in images[var].items():
                    key = tuple(sorted(t1 + t2))
                    nxt[key] = (nxt.get(key, 0) + c1 * c2) % p
            acc = nxt
        for key, c in acc.items():
            if c:
                out[index[key], col] = c
    return out


def ext_power_matrix(u: np.ndarray, i: int, p: int) -> np.ndarray:
    """Matrix of the induced action on the i-th exterior power, over the
    basis of strictly increasing index tuples, with the usual signs."""
    u = np.array(u, dtype=np.int64) % p
    n = u.shape[0]
    basis = list(itertools.combinations(range(n), i))
    index = {b: k for k, b in enumerate(basis)}
    images = [[(l, int(u[l, k])) for l in range(n) if u[l, k]] for k in range(n)]
    out = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for col, tup in enumerate(basis):
        acc: dict[tuple[int, ...], int] = {(): 1}
        for var in tup:
            nxt: dict[tuple[int, ...], int] = {}
            for t1, c1 in acc.items():
                for l, c2 in images[var]:
                    if l in t1:
                        continue
                    above = sum(1 for s in t1 if s > l)
                    sign = -1 if above % 2 else 1
                    key = tuple(sorted(t1 + (l,)))
                    nxt[key] = (nxt.get(key, 0) + sign * c1 * c2) % p
            acc = nxt
        for key, c in acc.items():
            if c:
                out[index[key], col] = c
    return out


def jordan_sym(i: int, m: int, p: int) -> JordanType:
    """Jordan type of the i-th symmetric power of a single unipotent block.

    Requires i < p: above that, i! is not invertible and the symmetric power
    stops being a direct summand of the tensor power.
    """
    _check_block(m, p)
    if not 0 <= i < p:
        raise ValueError(f"symmetric power index i = {i} out of range 0..{p - 1}")
    return jordan_type_of(sym_power_matrix(unipotent_block(m), i, p), p)


def jordan_ext(i: int, m: int, p: int) -> JordanType:
    """Jordan type of the i-th exterior power of a single unipotent block.
    Above the top power (i > m) the module is zero and the type is empty."""
    _check_block(m, p)
    if i < 0:
        raise ValueError(f"exterior power index i = {i} must be nonnegative")
    return jordan_type_of(ext_power_matrix(unipotent_block(m), i, p), p)


def _column_basis(a: np.ndarray, p: int) -> list[int]:
    """Pivot columns of a matrix over F_p (forward elimination only).

    The pivot of column c is the first row at or below the current rank that
    is nonzero in column c.  Each step clears column c only in the rows below
    the pivot that are nonzero there, and only on columns c:, because every
    row from the current rank down is already zero left of c.  The oracle's
    matrices are mostly zeros, so most rows are never touched.
    """
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    pivots = []
    for c in range(cols):
        nonzero = np.flatnonzero(a[rank:, c])
        if nonzero.size == 0:
            continue
        piv = rank + int(nonzero[0])
        if piv != rank:
            a[[rank, piv], c:] = a[[piv, rank], c:]
        # after the swap, row piv holds the old row rank, which is zero in column c
        targets = rank + nonzero[1:]
        if targets.size:
            inv = pow(int(a[rank, c]), p - 2, p)
            factors = (a[targets, c] * inv) % p
            a[targets, c:] = (a[targets, c:] - factors[:, None] * a[rank, c:]) % p
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return pivots


def negligible_quotient(t: JordanType) -> VerObj:
    """Image in the Verlinde ring: blocks of size p are negligible and die,
    every other block of size r contributes one copy of L_r."""
    mults = [0] * (t.p - 1)
    for b in t.blocks:
        if b < t.p:
            mults[b - 1] += 1
    return VerObj(t.p, tuple(mults))


def _check_block(r: int, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not 1 <= r <= p:
        raise ValueError(f"block size {r} out of range 1..{p}")
