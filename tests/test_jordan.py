import itertools
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from verlinde_kit import (
    JordanType,
    VerObj,
    jordan_ext,
    jordan_sym,
    jordan_tensor,
    jordan_type_of,
    negligible_quotient,
)
from verlinde_kit.jordan import (
    _column_basis,
    direct_sum,
    ext_power_matrix,
    rank_mod,
    sym_power_matrix,
    unipotent_block,
    unipotent_of_type,
)


# -- test-only references -----------------------------------------------------
# Kept out of the package and independent of the engine's elimination: the
# second-level symmetrizer oracle and the pivot cross-check below use them.


def _dense_column_basis(a: np.ndarray, p: int) -> list[int]:
    """Pivot columns over F_p by plain dense Gauss elimination: every pivot
    step rewrites the whole trailing matrix."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    pivots = []
    for c in range(cols):
        nonzero = np.nonzero(a[rank:, c])[0]
        if nonzero.size == 0:
            continue
        piv = rank + int(nonzero[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        below = a[rank + 1 :, c]
        if below.size and below.any():
            a[rank + 1 :] = (a[rank + 1 :] - np.outer(below, a[rank])) % p
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return pivots


def _solve_in_basis(basis: np.ndarray, target: np.ndarray, p: int) -> np.ndarray:
    """Solve basis @ X = target mod p, where basis has full column rank and
    the columns of target lie in its span."""
    rows, d = basis.shape
    k = target.shape[1]
    aug = np.concatenate([basis, target], axis=1) % p
    rank = 0
    for c in range(d):
        piv = None
        for i in range(rank, rows):
            if aug[i, c]:
                piv = i
                break
        if piv is None:
            raise ValueError("basis matrix does not have full column rank")
        if piv != rank:
            aug[[rank, piv]] = aug[[piv, rank]]
        inv = pow(int(aug[rank, c]), p - 2, p)
        aug[rank] = (aug[rank] * inv) % p
        col = aug[:, c].copy()
        col[rank] = 0
        aug = (aug - np.outer(col, aug[rank])) % p
        rank += 1
    if np.any(aug[d:, d:] % p):
        raise ValueError("target columns are not in the span of the basis")
    return aug[:d, d : d + k] % p


def sym_power_matrix_slow(u: np.ndarray, i: int, p: int, max_dim: int = 4096) -> np.ndarray:
    """Second-level oracle for symmetric powers: build the full i-fold tensor
    power (dimension n^i), project with the symmetrizer, and restrict to a
    column basis of its image.  Needs i < p so the symmetrizer exists."""
    u = np.array(u, dtype=np.int64) % p
    n = u.shape[0]
    if not 0 <= i < p:
        raise ValueError(f"symmetrizer needs 0 <= i < p, got i = {i}")
    if n**i > max_dim:
        raise ValueError(f"tensor power dimension {n**i} exceeds budget {max_dim}")
    if i == 0:
        return np.eye(1, dtype=np.int64)
    big = u
    for _ in range(i - 1):
        big = np.kron(big, u) % p
    dim = n**i
    sym = np.zeros((dim, dim), dtype=np.int64)
    tuples = list(itertools.product(range(n), repeat=i))
    flat = {t: k for k, t in enumerate(tuples)}
    for perm in itertools.permutations(range(i)):
        for t, k in flat.items():
            permuted = tuple(t[perm[j]] for j in range(i))
            sym[flat[permuted], k] += 1
    inv_fact = pow(factorial(i) % p, p - 2, p)
    sym = (sym * inv_fact) % p
    cols = _dense_column_basis(sym, p)
    basis = sym[:, cols]
    # restriction of the tensor action to the image of the symmetrizer
    return _solve_in_basis(basis, (big @ basis) % p, p)


@st.composite
def fp_matrices(draw):
    """A matrix over F_p with its prime: dense, mostly zero, all zero, or a
    product A.B through an inner dimension below both sides, so rank-deficient."""
    p = draw(st.sampled_from((2, 3, 13, 101)))
    rows = draw(st.integers(0, 10))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 10))
    kind = draw(st.sampled_from(("dense", "sparse", "zero", "product")))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64), p
    if kind == "sparse":
        entries = st.sampled_from((0, 0, 0, 0, 0, 1, p - 1))
    else:
        entries = st.integers(0, p - 1)
    if kind == "product":
        inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        a = draw(arrays(np.int64, (rows, inner), elements=entries))
        b = draw(arrays(np.int64, (inner, cols), elements=entries))
        return (a @ b) % p, p
    return draw(arrays(np.int64, (rows, cols), elements=entries)), p


@st.composite
def conjugated_unipotents(draw):
    """A Jordan type t and a dense invertible P over F_p: the rows of L.U in
    random order, with L unit lower triangular and U upper triangular with a
    nonzero diagonal."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    blocks = draw(st.lists(st.integers(1, p), min_size=1, max_size=3).filter(lambda b: sum(b) <= 16))
    t = JordanType(p, tuple(blocks))
    n = t.dim
    m = draw(arrays(np.int64, (n, n), elements=st.integers(0, p - 1)))
    diag = draw(arrays(np.int64, (n,), elements=st.integers(1, p - 1)))
    lower = np.tril(m, -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(m, 1) + np.diag(diag)
    perm = draw(st.permutations(range(n)))
    return t, (lower @ upper)[list(perm)] % p


def test_rank_mod():
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert rank_mod(a, 5) == 2
    assert rank_mod(np.zeros((3, 3), dtype=np.int64), 5) == 0
    assert rank_mod(np.eye(4, dtype=np.int64), 3) == 4
    # determinant 5, so the rank drops exactly at p = 5
    b = np.array([[1, 1], [1, 6]], dtype=np.int64)
    assert rank_mod(b, 5) == 1
    assert rank_mod(b, 7) == 2


@settings(max_examples=200)
@given(fp_matrices())
def test_sparse_pivots_match_dense_reference(case):
    a, p = case
    assert _column_basis(a, p) == _dense_column_basis(a, p)


@settings(max_examples=100)
@given(conjugated_unipotents())
def test_jordan_type_of_conjugated_unipotent(case):
    # dense conjugates force the row swaps that Jordan-block inputs rarely hit
    t, perm_lu = case
    n = t.dim
    inverse = _solve_in_basis(perm_lu, np.eye(n, dtype=np.int64), t.p)
    assert np.array_equal((perm_lu @ inverse) % t.p, np.eye(n, dtype=np.int64))
    conjugate = (perm_lu @ unipotent_of_type(t) @ inverse) % t.p
    assert jordan_type_of(conjugate, t.p) == t


def test_jordan_type_validation():
    with pytest.raises(ValueError):
        JordanType(5, (6,))
    with pytest.raises(ValueError):
        JordanType(4, (1,))
    t = JordanType(5, (3, 1, 3))
    assert t.blocks == (1, 3, 3)
    assert t.dim == 7
    assert t.count(3) == 2


def test_jordan_type_of_identity():
    assert jordan_type_of(np.eye(4, dtype=np.int64), 5) == JordanType(5, (1, 1, 1, 1))


def test_jordan_type_of_single_block():
    for p in (3, 5, 7):
        for r in range(1, p + 1):
            assert jordan_type_of(unipotent_block(r), p) == JordanType(p, (r,))


def test_jordan_type_of_direct_sum():
    u = direct_sum(unipotent_block(2), unipotent_block(3))
    assert jordan_type_of(u, 5) == JordanType(5, (2, 3))
    assert jordan_type_of(unipotent_of_type(JordanType(7, (1, 4, 4))), 7) == JordanType(7, (1, 4, 4))


def test_jordan_type_of_rejects_non_unipotent():
    with pytest.raises(ValueError):
        jordan_type_of(2 * np.eye(3, dtype=np.int64), 5)
    # a block of size p+1 is unipotent in characteristic 0 but not of order p
    with pytest.raises(ValueError):
        jordan_type_of(unipotent_block(6), 5)


def test_jordan_tensor_unit():
    for p in (3, 5, 7):
        for s in range(1, p + 1):
            assert jordan_tensor(1, s, p) == JordanType(p, (s,))


def test_jordan_tensor_examples():
    assert jordan_tensor(2, 2, 5) == JordanType(5, (1, 3))
    assert jordan_tensor(4, 4, 5) == JordanType(5, (1, 5, 5, 5))


def test_jordan_tensor_dimensions():
    for p in (3, 5, 7):
        for r in range(1, p + 1):
            for s in range(1, p + 1):
                assert jordan_tensor(r, s, p).dim == r * s


def test_jordan_sym_base_and_example():
    for p in (3, 5, 7):
        for m in range(1, p + 1):
            assert jordan_sym(1, m, p) == JordanType(p, (m,))
            assert jordan_sym(0, m, p) == JordanType(p, (1,))
    assert jordan_sym(2, 2, 5) == JordanType(5, (3,))


def test_jordan_sym_dimensions():
    for p in (5, 7):
        for m in range(1, p):
            for i in range(0, p):
                assert jordan_sym(i, m, p).dim == comb(m + i - 1, i), (p, m, i)


def test_jordan_ext_dimensions_and_top():
    for p in (5, 7):
        for m in range(1, p + 1):
            for i in range(0, m + 1):
                assert jordan_ext(i, m, p).dim == comb(m, i), (p, m, i)
            assert jordan_ext(m, m, p) == JordanType(p, (1,))


def test_square_decomposition_of_tensor_square():
    # V (x) V = S^2 V + w^2 V when 2 is invertible
    for p in (3, 5, 7):
        for m in range(1, p):
            combined = tuple(sorted(jordan_sym(2, m, p).blocks + jordan_ext(2, m, p).blocks))
            assert combined == jordan_tensor(m, m, p).blocks, (p, m)


def test_jordan_sym_rejects_large_index():
    with pytest.raises(ValueError):
        jordan_sym(5, 2, 5)


def test_jordan_ext_above_top_is_zero():
    assert jordan_ext(3, 2, 5) == JordanType(5, ())
    assert negligible_quotient(jordan_ext(3, 2, 5)).is_zero()


def test_slow_symmetrizer_oracle_agrees():
    cells = [(2, 2, 5), (3, 2, 5), (2, 3, 5), (2, 2, 3), (4, 2, 5), (2, 4, 7), (3, 3, 7)]
    for i, m, p in cells:
        fast = jordan_sym(i, m, p)
        slow = jordan_type_of(sym_power_matrix_slow(unipotent_block(m), i, p), p)
        assert fast == slow, (i, m, p)


def test_slow_symmetrizer_budget():
    with pytest.raises(ValueError):
        sym_power_matrix_slow(unipotent_block(10), 6, 11, max_dim=4096)


def test_sym_matrix_on_general_unipotent():
    u = direct_sum(unipotent_block(2), unipotent_block(2))
    t = jordan_type_of(sym_power_matrix(u, 2, 5), 5)
    assert t.dim == comb(5, 2)
    assert negligible_quotient(t) == VerObj(5, (1, 0, 3, 0))


def test_ext_matrix_on_general_unipotent():
    u = direct_sum(unipotent_block(2), unipotent_block(3))
    t = jordan_type_of(ext_power_matrix(u, 2, 5), 5)
    assert t.dim == comb(5, 2)


def test_negligible_quotient():
    assert negligible_quotient(JordanType(5, (5,))).is_zero()
    assert negligible_quotient(JordanType(5, (1, 3))) == VerObj(5, (1, 0, 1, 0))
    assert negligible_quotient(JordanType(5, (1, 5, 5, 5))) == VerObj.unit(5)


def test_negligible_quotient_p2():
    assert negligible_quotient(JordanType(2, (1, 2, 2))) == VerObj(2, (1,))
