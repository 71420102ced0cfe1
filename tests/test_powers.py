import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde_kit import (
    Cyclotomic,
    IntegralityError,
    LaurentPoly,
    VerObj,
    adams2,
    classical_invariant_count,
    decompose_from_dims,
    decompose_terms,
    ext_power,
    ext_power_simple,
    fpdim_rep,
    fuse,
    galois,
    invariant_dim,
    jordan_ext,
    jordan_sym,
    length_identity_holds,
    negligible_quotient,
    padic_dims,
    sfpdim,
    sfpdim_rep,
    sfpdim_via_adams,
    sym_power,
    sym_power_simple,
    to_cyclotomic,
    transcendence_degrees,
)
from verlinde_kit.jordan import direct_sum, jordan_type_of, sym_power_matrix, unipotent_block
from verlinde_kit.laurent import alternating_p_sum
from verlinde_kit.powers import DecompositionTerm

from conftest import ODD_PRIMES, effective_verobj, random_effective, sampled_verobj


# -- decomposition from the two dimension characters -----------------------------


def test_decompose_frozen_examples():
    q3 = fpdim_rep(VerObj.simple(5, 3))
    assert decompose_from_dims(q3, q3, 5) == VerObj.simple(5, 3)
    one = LaurentPoly.one()
    assert decompose_from_dims(one, one, 5) == VerObj.unit(5)
    q2 = fpdim_rep(VerObj.simple(5, 2))
    assert decompose_from_dims(q2, -q2, 5) == VerObj.simple(5, 2)


@settings(max_examples=60)
@given(effective_verobj(max_mult=4))
def test_decompose_roundtrip(x):
    assert decompose_from_dims(fpdim_rep(x), sfpdim_rep(x), x.p) == x


def test_decompose_roundtrip_p13():
    rng = random.Random(13)
    for _ in range(60):
        x = random_effective(rng, 13)
        assert decompose_from_dims(fpdim_rep(x), sfpdim_rep(x), 13) == x


def test_decompose_virtual_roundtrip():
    x = VerObj(5, (1, -2, 0, 3))
    got = decompose_from_dims(fpdim_rep(x), sfpdim_rep(x), 5, expect_effective=False)
    assert got == x


def test_decompose_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        decompose_from_dims(LaurentPoly({1: 1}), LaurentPoly.one(), 5)


def test_decompose_rejects_inconsistent_input():
    with pytest.raises(IntegralityError):
        decompose_from_dims(LaurentPoly.one(), LaurentPoly({1: 1, -1: 1}), 5)


def test_decompose_rejects_negative_when_effective():
    x = VerObj(5, (1, -2, 0, 3))
    with pytest.raises(IntegralityError):
        decompose_from_dims(fpdim_rep(x), sfpdim_rep(x), 5, expect_effective=True)


def _decompose_via_galois_sum(p_fp, p_sfp, p):
    """Independent route: rational trace by literally summing Galois
    conjugates in the cyclotomic ring, divided by 2p."""
    mults = []
    for r in range(1, p):
        combined = p_fp + (p_sfp if r % 2 else -p_sfp)
        f = LaurentPoly({-r: 1, r: -1}) * LaurentPoly({1: 1, -1: -1}) * combined
        x = to_cyclotomic(f, p)
        total = Cyclotomic.zero(p)
        for s in range((p - 1) // 2):
            total = total + galois(x, 2 * s + 1)
        assert total.is_rational
        value, rem = divmod(total.as_int(), 2 * p)
        assert rem == 0
        mults.append(value)
    return VerObj(p, tuple(mults))


def _decompose_terms_ref(p_fp, p_sfp, p):
    """Reference: the trace projection as its formula reads, forming
    f_r = (z^-r - z^r)(z - z^-1)(P_fp - (-1)^r P_sfp) and taking
    alternating_p_sum of it."""
    terms = []
    for r in range(1, p):
        combined = p_fp + (p_sfp if r % 2 else -p_sfp)
        f = LaurentPoly({-r: 1, r: -1}) * LaurentPoly({1: 1, -1: -1}) * combined
        total, contributions = alternating_p_sum(f, p)
        terms.append(DecompositionTerm(r, contributions, total, Fraction(total, 4)))
    return terms


@st.composite
def sparse_symmetric(draw):
    """Symmetric polynomials with a few terms, at exponents near the
    four-shift windows of small p or anywhere up to 10^6."""
    exps = st.one_of(st.integers(0, 200), st.integers(0, 10**6))
    data = draw(st.dictionaries(exps, st.integers(-5, 5), max_size=6))
    return LaurentPoly({s * e: c for e, c in data.items() for s in (1, -1)})


@st.composite
def dimension_data(draw):
    """Representatives of an object, of a virtual class, or inconsistent
    ones (an object's representatives plus symmetric noise)."""
    kind = draw(st.sampled_from(("effective", "virtual", "inconsistent")))
    x = draw(sampled_verobj(virtual=kind == "virtual"))
    p_fp, p_sfp = fpdim_rep(x), sfpdim_rep(x)
    if kind == "inconsistent":
        p_fp, p_sfp = p_fp + draw(sparse_symmetric()), p_sfp + draw(sparse_symmetric())
    return p_fp, p_sfp, x.p


@settings(max_examples=150)
@given(dimension_data())
def test_decompose_terms_match_reference(case):
    p_fp, p_sfp, p = case
    assert decompose_terms(p_fp, p_sfp, p) == _decompose_terms_ref(p_fp, p_sfp, p)


def test_decompose_terms_huge_exponents_match_reference():
    big = LaurentPoly({300000000: 1, -300000000: 1, 299999999: 2, -299999999: 2})
    for p in (3, 5, 61):
        assert decompose_terms(big, big, p) == _decompose_terms_ref(big, big, p)
        assert decompose_terms(big, LaurentPoly.zero(), p) == _decompose_terms_ref(big, LaurentPoly.zero(), p)


def test_decompose_matches_galois_sum_route():
    for p in (3, 5, 7):
        rng = random.Random(100 + p)
        for _ in range(25):
            x = random_effective(rng, p)
            got = _decompose_via_galois_sum(fpdim_rep(x), sfpdim_rep(x), p)
            assert got == x


# -- symmetric powers ---------------------------------------------------------------


def test_sym_power_simple_base_cases():
    for p in ODD_PRIMES:
        for m in range(1, p):
            assert sym_power_simple(0, m, p) == VerObj.unit(p)
            assert sym_power_simple(1, m, p) == VerObj.simple(p, m)
        for i in range(6):
            assert sym_power_simple(i, 1, p) == VerObj.unit(p)


def test_sym_power_simple_example():
    assert sym_power_simple(2, 2, 5) == VerObj.simple(5, 3)


def test_sym_power_vanishing():
    for p in ODD_PRIMES:
        for m in range(2, p):
            for i in range(p - m + 1, p + 1):
                assert sym_power_simple(i, m, p).is_zero(), (p, m, i)
            assert not sym_power_simple(p - m, m, p).is_zero(), (p, m)


def test_sym_power_parity_support():
    for p in ODD_PRIMES:
        for m in range(2, p):
            for i in range(p - m + 1):
                obj = sym_power_simple(i, m, p)
                even_graded = (i * (m - 1)) % 2 == 0
                for r in range(1, p):
                    if obj.mults[r - 1]:
                        assert (r % 2 == 1) == even_graded, (p, m, i, r)


def test_sym_power_simple_matches_oracle_small():
    for p in (3, 5):
        for m in range(2, p):
            for i in range(p - m + 1):
                oracle = negligible_quotient(jordan_sym(i, m, p))
                assert sym_power_simple(i, m, p) == oracle, (p, m, i)


def test_sym_power_of_two_units():
    p = 5
    two = VerObj(p, (2, 0, 0, 0))
    for n in range(6):
        obj = sym_power(n, two)
        assert obj == VerObj(p, (n + 1, 0, 0, 0))


def test_sym_power_of_sum_example_and_oracle():
    p = 5
    x = VerObj(p, (0, 2, 0, 0))  # two copies of L2
    got = sym_power(2, x)
    assert got == VerObj(p, (1, 0, 3, 0))  # L1 + 3 L3
    u = direct_sum(unipotent_block(2), unipotent_block(2))
    oracle = negligible_quotient(jordan_type_of(sym_power_matrix(u, 2, p), p))
    assert got == oracle


def test_sym_power_of_zero():
    p = 5
    zero = VerObj.zero(p)
    assert sym_power(0, zero) == VerObj.unit(p)
    for i in range(1, 4):
        assert sym_power(i, zero).is_zero()


def test_sym_power_rejects_virtual():
    with pytest.raises(ValueError):
        sym_power(2, VerObj(5, (1, -1, 0, 0)))


def test_sym_power_agrees_with_simple():
    for p in (5, 7):
        for m in range(1, p):
            for i in range(p - m + 1):
                assert sym_power(i, VerObj.simple(p, m)) == sym_power_simple(i, m, p)


# -- exterior powers -----------------------------------------------------------------


def test_ext_power_first_is_identity():
    for p in ODD_PRIMES:
        for r in range(1, p):
            assert ext_power_simple(1, r, p) == VerObj.simple(p, r)


def test_ext_square_of_L3_p5():
    # the twist L4 appears squared, so it cancels: w^2 L3 = S^2 L2 = L3,
    # confirmed by the Jordan oracle
    got = ext_power_simple(2, 3, 5)
    assert got == negligible_quotient(jordan_ext(2, 3, 5))
    assert got == VerObj.simple(5, 3)


def test_ext_vanishing_above_top():
    for p in ODD_PRIMES:
        for r in range(1, p - 1):
            for i in range(r + 1, r + 4):
                assert ext_power_simple(i, r, p).is_zero(), (p, r, i)
            assert not ext_power_simple(r, r, p).is_zero()


def test_ext_of_invertible_odd_simple():
    for p in ODD_PRIMES:
        for i in range(2 * p):
            want = VerObj.simple(p, p - 1) if i % 2 else VerObj.unit(p)
            assert ext_power_simple(i, p - 1, p) == want


def test_ext_power_simple_matches_oracle_small():
    for p in (3, 5):
        for r in range(1, p):
            for i in range(r + 1):
                oracle = negligible_quotient(jordan_ext(i, r, p))
                assert ext_power_simple(i, r, p) == oracle, (p, r, i)


def test_ext_power_of_sum_vs_oracle():
    p = 5
    x = VerObj(p, (0, 1, 1, 0))  # L2 + L3
    from verlinde_kit.jordan import ext_power_matrix

    u = direct_sum(unipotent_block(2), unipotent_block(3))
    for i in range(4):
        oracle = negligible_quotient(jordan_type_of(ext_power_matrix(u, i, p), p))
        assert ext_power(i, x) == oracle, i


def test_ext_power_rejects_virtual():
    with pytest.raises(ValueError):
        ext_power(2, VerObj(5, (1, -1, 0, 0)))


# -- the second Adams operation --------------------------------------------------------


def test_adams_of_unit():
    for p in ODD_PRIMES:
        assert adams2(VerObj.unit(p)) == VerObj.unit(p)


def test_adams_of_L2():
    for p in (5, 7, 11):
        got = adams2(VerObj.simple(p, 2))
        assert got == VerObj.simple(p, 3) - VerObj.unit(p)


def test_adams_additive_and_multiplicative():
    for p in (3, 5, 7):
        rng = random.Random(200 + p)
        for _ in range(15):
            x = random_effective(rng, p, 2)
            y = random_effective(rng, p, 2)
            assert adams2(x + y) == adams2(x) + adams2(y)
            assert adams2(fuse(x, y)) == fuse(adams2(x), adams2(y))


def test_sfpdim_via_adams_matches_character():
    for p in ODD_PRIMES:
        for r in range(1, p):
            x = VerObj.simple(p, r)
            assert sfpdim_via_adams(x) == sfpdim(x), (p, r)
        rng = random.Random(300 + p)
        for _ in range(20):
            x = random_effective(rng, p)
            assert sfpdim_via_adams(x) == sfpdim(x)


def test_sfpdim_via_adams_worked_values():
    # p = 3: the Galois twist is trivial and the square of L2 is the unit
    assert sfpdim_via_adams(VerObj.simple(3, 2)) == Cyclotomic.from_int(3, -1)
    # p = 5: fpdim of the Adams class of L2 is q^2 + q^-2, twisted to -q - q^-1
    got = sfpdim_via_adams(VerObj.simple(5, 2))
    assert got == -(Cyclotomic.root_power(5, 1) + Cyclotomic.root_power(5, -1))


# -- invariants --------------------------------------------------------------------------


def test_invariant_dim_base():
    for p in ODD_PRIMES:
        for m in range(2, p):
            assert invariant_dim(0, m, p) == 1


def test_invariant_dim_examples():
    assert invariant_dim(2, 2, 5) == 0
    want = sym_power_simple(4, 3, 7).mult(1)
    assert invariant_dim(4, 3, 7) == want
    assert invariant_dim(4, 3, 7) == jordan_sym(4, 3, 7).count(1)


def test_invariant_dim_equals_unit_multiplicity():
    for p in ODD_PRIMES:
        for m in range(2, p):
            for i in range(p - m + 1):
                assert invariant_dim(i, m, p) == sym_power_simple(i, m, p).mult(1), (p, m, i)


def test_invariant_dim_range_errors():
    with pytest.raises(ValueError):
        invariant_dim(4, 2, 5)
    with pytest.raises(ValueError):
        invariant_dim(1, 1, 5)


def _partition_count(total, max_parts, max_size):
    if total == 0:
        return 1
    count = 0
    stack = [(total, max_parts, max_size)]
    while stack:
        t, k, s = stack.pop()
        if t == 0:
            count += 1
            continue
        if k == 0 or s == 0:
            continue
        for first in range(min(t, s), 0, -1):
            stack.append((t - first, k - 1, first))
    return count


def _cayley_sylvester(i, n):
    """Invariant count for degree-i covariants of weight 0 of a binary form
    of degree n, by direct partition counting in an i x n box."""
    if (i * n) % 2:
        return 0
    half = i * n // 2
    return _partition_count(half, i, n) - _partition_count(half - 1, i, n)


def test_classical_count_against_partition_oracle():
    for d in range(1, 8):
        for i in range(0, 9 - d + 2):
            assert classical_invariant_count(i, d) == _cayley_sylvester(i, d - 1), (i, d)


def test_classical_count_known_values():
    # the binary quartic has exactly one invariant in each of degrees 2 and 3
    assert classical_invariant_count(2, 5) == 1
    assert classical_invariant_count(3, 5) == 1
    for d in range(2, 8):
        assert classical_invariant_count(1, d) == 0


def test_invariant_dim_stabilizes_once_corrections_vanish():
    # the alternating sum reduces to the constant term exactly when
    # 2p exceeds the degree i(m-1) + 2 of the weighted Gauss polynomial
    for p in (3, 5, 7, 11, 13):
        for m in range(2, min(p, 9)):
            for i in range(p - m + 1):
                if m + i > 10:
                    continue
                if 2 * p > i * (m - 1) + 2:
                    assert invariant_dim(i, m, p) == classical_invariant_count(i, m), (p, m, i)


def test_invariant_dim_correction_cell():
    # at p = 11, m = 5, i = 6 the box has corners at exponent 24 = 2p + 2,
    # so the fusion correction is live: one less invariant than classically
    assert classical_invariant_count(6, 5) == 2
    assert invariant_dim(6, 5, 11) == 1
    assert jordan_sym(6, 5, 11).count(1) == 1


# -- transcendence degrees, p-adic dimensions, length ------------------------------------


def test_transcendence_degrees():
    p = 7
    assert transcendence_degrees(VerObj.unit(p)) == (1, 0)
    for r in range(2, p - 1):
        assert transcendence_degrees(VerObj.simple(p, r)) == (0, 0)
    assert transcendence_degrees(VerObj.simple(p, p - 1)) == (0, 1)
    assert transcendence_degrees(VerObj(5, (3, 0, 0, 2))) == (3, 2)


def test_transcendence_degrees_via_trace_functional():
    # a_1 and a_{p-1} recomputed as (1/2p) tau(-(z - z^-1)^2 * rep) with the
    # representative taken from each parity part
    from fractions import Fraction

    from verlinde_kit import LaurentPoly, parity_split, twice_trace

    weight = -(LaurentPoly({1: 1, -1: -1}) ** 2)
    for p in ODD_PRIMES:
        rng = random.Random(500 + p)
        for _ in range(15):
            x = random_effective(rng, p)
            split = parity_split(x)
            got_plus = Fraction(twice_trace(weight * fpdim_rep(split.plus), p), 2 * p)
            got_minus = Fraction(twice_trace(weight * fpdim_rep(split.minus), p), 2 * p)
            assert (got_plus, got_minus) == transcendence_degrees(x), (p, x)


def test_padic_dims_on_simples():
    for p in ODD_PRIMES:
        assert padic_dims(VerObj.unit(p)) == (1, 1)
        assert padic_dims(VerObj.simple(p, p - 1)) == (-1, -1)
        for r in range(2, p - 1):
            assert padic_dims(VerObj.simple(p, r)) == (r - p, r)
    assert padic_dims(VerObj.simple(5, 3)) == (-2, 3)


@settings(max_examples=40)
@given(effective_verobj())
def test_padic_dims_reduce_to_dim_mod_p(x):
    from verlinde_kit import dim_mod_p

    dplus, dminus = padic_dims(x)
    assert dplus % x.p == dim_mod_p(x)
    assert dminus % x.p == dim_mod_p(x)


def test_length_identity():
    assert length_identity_holds(VerObj.unit(5))
    assert length_identity_holds(VerObj.simple(5, 3))
    for p in ODD_PRIMES:
        rng = random.Random(400 + p)
        for _ in range(30):
            assert length_identity_holds(random_effective(rng, p))


def test_effective_only_surfaces_reject_virtual():
    bad = VerObj(5, (0, -1, 0, 0))
    for fn in (transcendence_degrees, padic_dims, length_identity_holds, adams2):
        with pytest.raises(ValueError):
            fn(bad)


# -- generating functions of categorical dimensions ---------------------------------------


def test_sym_dimension_series_is_binomial_expansion():
    from math import comb

    from verlinde_kit import dim_mod_p

    for p in ODD_PRIMES:
        for m in range(2, p):
            series = [dim_mod_p(sym_power_simple(i, m, p)) for i in range(p - m + 1)]
            want = [comb(p - m, i) * (-1) ** i % p for i in range(p - m + 1)]
            assert series == want, (p, m)


def test_ext_dimension_series_is_binomial_expansion():
    from math import comb

    from verlinde_kit import dim_mod_p

    for p in ODD_PRIMES:
        for r in range(1, p - 1):
            series = [dim_mod_p(ext_power_simple(i, r, p)) for i in range(r + 1)]
            assert series == [comb(r, i) % p for i in range(r + 1)], (p, r)
        series = [dim_mod_p(ext_power_simple(i, p - 1, p)) for i in range(2 * p)]
        assert series == [(-1) ** i % p for i in range(2 * p)], p
