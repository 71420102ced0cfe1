import itertools

import pytest

from verlinde_kit import (
    VerObj,
    Weight,
    alcove_check,
    decompose_weyl,
    fpdim,
    gauss_binom,
    qweyl_dim,
    quantum_int,
    super_sign,
    sym_power_simple,
    to_cyclotomic,
)


def alcove_weights(m, p):
    """All dominant weights for SL_m inside the alcove for p."""
    top = p - m  # lambda_1 <= p - m
    for parts in itertools.product(range(top + 1), repeat=m - 1):
        if all(parts[k] >= parts[k + 1] for k in range(m - 2)):
            yield Weight(m, parts)


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(3, (1, 2))
    with pytest.raises(ValueError):
        Weight(3, (1,))
    with pytest.raises(ValueError):
        Weight(3, (1, -1))
    with pytest.raises(ValueError):
        Weight.of(3, (1, 0, 2))
    assert Weight.of(3, (3, 1, 0)) == Weight(3, (3, 1))
    assert Weight.of(4, (2,)) == Weight(4, (2, 0, 0))


def test_alcove_check():
    for p in (5, 7):
        for i in range(p + 2):
            assert alcove_check(Weight.of(2, (i,)), p) == (i + 1 < p)
    assert not alcove_check(Weight.of(3, (3, 1)), 5)
    for p in (5, 7, 11):
        for m in (2, 3, 4):
            assert alcove_check(Weight.of(m, ()), p)


def test_qweyl_dim_sl2():
    for i in range(8):
        assert qweyl_dim(Weight.of(2, (i,))) == quantum_int(i + 1)


def test_qweyl_dim_row_weights_are_gauss_binomials():
    for m in (2, 3, 4, 5):
        for i in range(7):
            assert qweyl_dim(Weight.of(m, (i,))) == gauss_binom(i + m - 1, m - 1), (m, i)


def test_qweyl_dim_trivial_weight():
    for m in (2, 3, 4):
        assert qweyl_dim(Weight.of(m, ())) == 1


def test_qweyl_dim_classical_value():
    # adjoint of SL_3 has dimension 8
    assert qweyl_dim(Weight.of(3, (2, 1))).evaluate(1) == 8


def test_qweyl_dim_positive_coefficients_on_alcove():
    for p in (5, 7, 11):
        for m in (2, 3, 4):
            for w in alcove_weights(m, p):
                f = qweyl_dim(w)
                assert f.is_symmetric()
                assert f.evaluate(1) > 0
                assert all(c >= 0 for _, c in f.items()), (p, m, w)


def test_super_sign():
    assert super_sign(Weight.of(3, ())) == 1
    for i in range(6):
        assert super_sign(Weight.of(2, (i,))) == (-1) ** i
        assert super_sign(Weight.of(3, (i,))) == 1  # exponent 2i is even
    for m in (2, 3, 4, 5):
        for i in range(6):
            assert super_sign(Weight.of(m, (i,))) == (-1) ** (i * (m - 1)), (m, i)


def test_decompose_weyl_fundamental():
    for p in (5, 7, 11):
        for m in range(2, min(p, 6)):
            assert decompose_weyl(Weight.fundamental(m), p) == VerObj.simple(p, m)


def test_decompose_weyl_trivial():
    for p in (5, 7):
        assert decompose_weyl(Weight.of(3, ()), p) == VerObj.unit(p)


def test_decompose_weyl_row_weights_match_sym_powers():
    for p in (5, 7, 11):
        for m in (2, 3, 4):
            for i in range(p - m + 1):
                got = decompose_weyl(Weight.of(m, (i,)), p)
                assert got == sym_power_simple(i, m, p), (p, m, i)


def test_decompose_weyl_fpdim_consistency():
    for p in (5, 7, 11):
        for m in (2, 3, 4):
            for w in alcove_weights(m, p):
                obj = decompose_weyl(w, p)
                assert fpdim(obj) == to_cyclotomic(qweyl_dim(w), p), (p, m, w)


def test_decompose_weyl_rejects_outside_alcove():
    with pytest.raises(ValueError):
        decompose_weyl(Weight.of(3, (3, 1)), 5)
    with pytest.raises(ValueError):
        decompose_weyl(Weight.of(2, (4,)), 5)
