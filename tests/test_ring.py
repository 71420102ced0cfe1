import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde_kit import (
    Cyclotomic,
    LaurentPoly,
    VerObj,
    character,
    dim_mod_p,
    fpdim,
    fpdim_rep,
    fuse,
    galois,
    jordan_tensor,
    negligible_quotient,
    parity_split,
    quantum_int,
    sfpdim,
    sfpdim_rep,
    to_cyclotomic,
)

from conftest import ODD_PRIMES, effective_verobj, sampled_verobj


def simples(p):
    return [VerObj.simple(p, r) for r in range(1, p)]


# -- construction ---------------------------------------------------------------


def test_verobj_validation():
    with pytest.raises(ValueError):
        VerObj(4, (1, 1, 1))
    with pytest.raises(ValueError):
        VerObj(5, (1, 1, 1))
    with pytest.raises(TypeError):
        VerObj(5, (1, 1, 1, 1.5))
    with pytest.raises(TypeError):
        VerObj(5, (True, 0, 0, 0))
    with pytest.raises(ValueError):
        VerObj.simple(5, 5)


def test_verobj_str():
    assert str(VerObj(5, (1, 0, 3, 0))) == "L1+3L3"
    assert str(VerObj.zero(5)) == "0"
    assert str(VerObj(5, (-1, 0, 1, 0))) == "-L1+L3"


# -- fusion ----------------------------------------------------------------------


def test_fusion_examples():
    p = 5
    L = simples(p)
    assert fuse(L[1], L[1]) == VerObj(5, (1, 0, 1, 0))  # L1 + L3
    assert fuse(L[3], L[3]) == VerObj.unit(5)
    for x in L:
        assert fuse(VerObj.unit(p), x) == x


def test_fusion_p3():
    assert fuse(VerObj.simple(3, 2), VerObj.simple(3, 2)) == VerObj.unit(3)


def test_fusion_commutative_associative_exhaustive():
    for p in ODD_PRIMES:
        L = simples(p)
        for x, y in itertools.combinations_with_replacement(L, 2):
            assert fuse(x, y) == fuse(y, x)
        for x, y, z in itertools.product(L, repeat=3):
            assert fuse(fuse(x, y), z) == fuse(x, fuse(y, z))


@settings(max_examples=40)
@given(effective_verobj(p=7), effective_verobj(p=7), effective_verobj(p=7))
def test_fusion_bilinear(x, y, z):
    assert fuse(x + y, z) == fuse(x, z) + fuse(y, z)
    assert fuse(x - y, z) == fuse(x, z) - fuse(y, z)


def test_fusion_mismatched_p():
    with pytest.raises(ValueError):
        fuse(VerObj.unit(5), VerObj.unit(7))


def test_fusion_agrees_with_jordan_oracle_small():
    for p in (3, 5):
        for r in range(1, p):
            for s in range(1, p):
                oracle = negligible_quotient(jordan_tensor(r, s, p))
                assert oracle == fuse(VerObj.simple(p, r), VerObj.simple(p, s)), (p, r, s)


# -- characters -------------------------------------------------------------------


def test_character_unit_and_fpdim():
    for p in ODD_PRIMES:
        for j in range(1, p):
            assert character(j, VerObj.unit(p)) == Cyclotomic.one(p)
        for r in range(1, p):
            assert character(1, VerObj.simple(p, r)) == to_cyclotomic(quantum_int(r), p)


def test_character_p5_chi4_of_L2():
    minus_fp = -(Cyclotomic.root_power(5, 1) + Cyclotomic.root_power(5, -1))
    assert character(4, VerObj.simple(5, 2)) == minus_fp


def test_character_out_of_range():
    with pytest.raises(ValueError):
        character(0, VerObj.unit(5))
    with pytest.raises(ValueError):
        character(5, VerObj.unit(5))


@settings(max_examples=25)
@given(effective_verobj(), effective_verobj())
def test_characters_are_ring_homs(x, y):
    if x.p != y.p:
        return
    p = x.p
    for j in range(1, p):
        assert character(j, fuse(x, y)) == character(j, x) * character(j, y)
        assert character(j, x + y) == character(j, x) + character(j, y)


def test_character_galois_compatibility():
    for p in ODD_PRIMES:
        for s in range((p - 1) // 2):
            for r in range(1, p):
                x = VerObj.simple(p, r)
                assert character(2 * s + 1, x) == galois(character(1, x), 2 * s + 1)
                assert character(p - 2 * s - 1, x) == galois(character(p - 1, x), 2 * s + 1)


def test_characters_pairwise_distinct():
    for p in ODD_PRIMES:
        rows = [tuple(character(j, x).coords for x in simples(p)) for j in range(1, p)]
        assert len(set(rows)) == p - 1


# Reference implementations: each simple contributes its own quantum integer,
# added one Laurent polynomial at a time.


def _fpdim_rep_ref(x, signed=False):
    total = LaurentPoly.zero()
    for r in range(1, x.p):
        a = x.mults[r - 1]
        if a:
            total = total + quantum_int(r) * (-a if signed and r % 2 == 0 else a)
    return total


def _character_ref(j, x):
    total = LaurentPoly.zero()
    for r in range(1, x.p):
        a = x.mults[r - 1]
        if a:
            total = total + quantum_int(r).scale_exponents(j) * a
    return to_cyclotomic(total, x.p)


@settings(max_examples=60)
@given(st.booleans().flatmap(sampled_verobj), st.data())
def test_characters_and_representatives_match_reference(x, data):
    assert fpdim_rep(x) == _fpdim_rep_ref(x)
    assert sfpdim_rep(x) == _fpdim_rep_ref(x, signed=True)
    p = x.p
    js = {1, p - 1} | set(data.draw(st.lists(st.integers(1, p - 1), max_size=4)))
    for j in sorted(js):
        assert character(j, x).coords == _character_ref(j, x).coords, j


# -- the two dimensions ------------------------------------------------------------


def test_fpdim_examples():
    assert fpdim(VerObj.unit(5)) == Cyclotomic.one(5)
    assert fpdim_rep(VerObj.simple(5, 3)) == quantum_int(3)


def test_sfpdim_examples():
    p = 5
    assert sfpdim(VerObj.simple(p, 2)) == -(Cyclotomic.root_power(p, 1) + Cyclotomic.root_power(p, -1))
    assert sfpdim(VerObj.unit(p)) == Cyclotomic.one(p)
    assert sfpdim_rep(VerObj.simple(p, 2)) == -quantum_int(2)


@settings(max_examples=30)
@given(effective_verobj())
def test_fpdim_is_real(x):
    assert fpdim(x).is_real
    assert galois(fpdim(x), 2 * x.p - 1) == fpdim(x)


@settings(max_examples=30)
@given(effective_verobj())
def test_sfpdim_via_parity_split(x):
    split = parity_split(x)
    assert sfpdim(x) == fpdim(split.plus) - fpdim(split.minus)
    assert split.total == x


def test_sfpdim_on_odd_support_equals_fpdim():
    for p in ODD_PRIMES:
        for r in range(1, p, 2):
            x = VerObj.simple(p, r)
            assert sfpdim(x) == fpdim(x)


# -- parity split -------------------------------------------------------------------


def test_parity_split_examples():
    p = 5
    split = parity_split(VerObj.simple(p, 2))
    assert split.plus == VerObj.zero(p)
    assert split.minus == VerObj.simple(p, 2)
    both = parity_split(VerObj(p, (1, 1, 0, 0)))
    assert both.plus == VerObj.simple(p, 1)
    assert both.minus == VerObj.simple(p, 2)


def test_odd_support_closed_under_fusion():
    for p in ODD_PRIMES:
        for r in range(1, p, 2):
            for s in range(1, p, 2):
                prod = fuse(VerObj.simple(p, r), VerObj.simple(p, s))
                assert all(a == 0 for t, a in enumerate(prod.mults, start=1) if t % 2 == 0), (p, r, s)


# -- dimension mod p ----------------------------------------------------------------


def test_dim_mod_p():
    for p in ODD_PRIMES:
        for r in range(1, p):
            assert dim_mod_p(VerObj.simple(p, r)) == r % p
    assert dim_mod_p(fuse(VerObj.simple(5, 2), VerObj.simple(5, 3))) == 1


@settings(max_examples=30)
@given(effective_verobj(), effective_verobj())
def test_dim_mod_p_multiplicative(x, y):
    if x.p != y.p:
        return
    p = x.p
    assert dim_mod_p(fuse(x, y)) == (dim_mod_p(x) * dim_mod_p(y)) % p
    assert dim_mod_p(x + y) == (dim_mod_p(x) + dim_mod_p(y)) % p


def test_dim_mod_p_matches_oracle_block_dims():
    for p in (3, 5, 7):
        for r in range(1, p):
            for s in range(1, p):
                t = jordan_tensor(r, s, p)
                assert dim_mod_p(negligible_quotient(t)) == t.dim % p


# -- p = 2 degeneration ---------------------------------------------------------------


def test_p2_objects_and_fusion():
    one = VerObj.unit(2)
    assert one.mults == (1,)
    assert fuse(one, one) == one
    x = VerObj(2, (3,))
    assert fuse(x, x) == VerObj(2, (9,))


def test_p2_dimensions():
    x = VerObj(2, (3,))
    assert fpdim(x) == Cyclotomic(2, (3,))
    assert sfpdim(x) == fpdim(x)
    assert character(1, x) == Cyclotomic(2, (3,))
    assert fpdim_rep(x) == 3
    assert sfpdim_rep(x) == 3


def test_p2_rejections():
    x = VerObj(2, (1,))
    with pytest.raises(ValueError):
        character(2, x)
    with pytest.raises(ValueError):
        parity_split(x)
    with pytest.raises(ValueError):
        dim_mod_p(x)
