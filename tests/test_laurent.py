from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde_kit import (
    Cyclotomic,
    IntegralityError,
    LaurentPoly,
    galois,
    gauss_binom,
    quantum_int,
    to_cyclotomic,
    twice_trace,
)
from verlinde_kit.laurent import alternating_p_sum, quantum_sum

from conftest import ODD_PRIMES, integral_laurent, symmetric_laurent


# -- independent brute-force reduction oracle for Z[q] ------------------------
#
# An integral Laurent polynomial f and a coordinate vector c agree in Z[q]
# iff the cyclotomic polynomial of order 2p divides fold(f) - c(x) over Z,
# where fold(f) reduces exponents mod 2p.  This uses nothing from the
# canonicalization under test.


def _fold_mod_2p(f: LaurentPoly, p: int) -> list[int]:
    out = [0] * (2 * p)
    for e, c in f.items():
        out[e % (2 * p)] += c
    return out


def _phi_2p(p: int) -> list[int]:
    # x^{p-1} - x^{p-2} + ... - x + 1 for odd p, low-to-high coefficients
    return [(-1) ** k for k in range(p)]


def _divisible(num: list[int], den: list[int]) -> bool:
    num = num[:]
    while len(num) >= len(den):
        lead = num[-1]
        if lead % den[-1]:
            return False
        q = lead // den[-1]
        off = len(num) - len(den)
        for k, d in enumerate(den):
            num[off + k] -= q * d
        assert num[-1] == 0
        num.pop()
    return not any(num)


def assert_same_in_zq(f: LaurentPoly, x: Cyclotomic, p: int):
    diff = _fold_mod_2p(f, p)
    for k, c in enumerate(x.coords):
        diff[k] -= c
    while diff and diff[-1] == 0:
        diff.pop()
    assert not diff or _divisible(diff, _phi_2p(p)), f"{f} does not reduce to {x} for p={p}"


# -- LaurentPoly basics -------------------------------------------------------


def test_zero_coefficients_are_dropped():
    f = LaurentPoly({2: 1, 0: 0, -1: 3})
    assert f.support == (-1, 2)
    assert f.coeff(0) == 0


def test_equality_with_scalars():
    assert LaurentPoly({0: 3}) == 3
    assert LaurentPoly.zero() == 0
    assert LaurentPoly({1: 1}) != 1


def test_non_int_coefficients_rejected():
    assert LaurentPoly({1: 2, -1: 2}).coeff(1) == 2
    for bad in (Fraction(1, 2), Fraction(4, 2), True, 1.0):
        with pytest.raises(TypeError):
            LaurentPoly({0: bad})


def test_evaluate():
    f = LaurentPoly({2: 1, 0: 1, -2: 1})
    assert f.evaluate(1) == 3
    assert f.evaluate(-1) == 3
    assert f.evaluate(2) == Fraction(21, 4)
    with pytest.raises(ValueError):
        f.evaluate(0)


def test_str_forms():
    assert str(LaurentPoly({2: 1, 0: 1, -2: 1})) == "z^2+1+z^-2"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({1: -2, 0: 1})) == "-2z+1"


def test_exact_div_remainder_raises():
    num = LaurentPoly({1: 1, 0: 1})
    den = LaurentPoly({1: 1, -1: -1})
    with pytest.raises(IntegralityError):
        num.exact_div(den)
    with pytest.raises(ValueError):
        num.exact_div(LaurentPoly.zero())


def test_exact_div_non_integral_quotient_raises():
    # (2z + 2) / 2 is fine; (z + 1) / 2 and (z^2 - 1) / (2z - 2) are not integral
    assert LaurentPoly({1: 2, 0: 2}).exact_div(LaurentPoly({0: 2})) == LaurentPoly({1: 1, 0: 1})
    with pytest.raises(IntegralityError):
        LaurentPoly({1: 1, 0: 1}).exact_div(LaurentPoly({0: 2}))
    with pytest.raises(IntegralityError):
        LaurentPoly({2: 1, 0: -1}).exact_div(LaurentPoly({1: 2, 0: -2}))


@given(integral_laurent(), integral_laurent(), integral_laurent())
def test_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@given(integral_laurent(), integral_laurent())
def test_exact_div_roundtrip(f, g):
    if g.is_zero():
        return
    assert (f * g).exact_div(g) == f


# -- quantum integers ---------------------------------------------------------


def test_quantum_int_examples():
    assert quantum_int(1) == 1
    assert quantum_int(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert quantum_int(0).is_zero()
    assert quantum_int(-3) == -quantum_int(3)


def test_quantum_int_at_one():
    for r in range(-100, 101):
        assert quantum_int(r).evaluate(1) == r


def test_quantum_int_symmetric_integral():
    for r in range(-20, 21):
        f = quantum_int(r)
        assert f.is_symmetric()


def test_quantum_int_defining_quotient():
    z = LaurentPoly({1: 1, -1: -1})
    for r in range(1, 15):
        assert quantum_int(r) == LaurentPoly({r: 1, -r: -1}).exact_div(z)


# -- Gauss binomials ----------------------------------------------------------


def _gauss_binom_by_division(n: int, m: int) -> LaurentPoly:
    """Reference definition: the exact quotient of
    prod_{j=1}^m (z^{n-j+1} - z^{-(n-j+1)}) by prod_{j=1}^m (z^j - z^-j)."""
    num = LaurentPoly.one()
    den = LaurentPoly.one()
    for j in range(1, m + 1):
        num = num * LaurentPoly({n - j + 1: 1, -(n - j + 1): -1})
        den = den * LaurentPoly({j: 1, -j: -1})
    return num.exact_div(den)


@settings(max_examples=100)
@given(st.lists(st.integers(-9, 9), max_size=40))
def test_quantum_sum_adds_quantum_integers(weights):
    want = LaurentPoly.zero()
    for r, w in enumerate(weights, start=1):
        want = want + quantum_int(r) * w
    assert quantum_sum(weights) == want


def test_gauss_against_division_definition():
    for n in range(21):
        for m in range(n + 1):
            assert gauss_binom(n, m) == _gauss_binom_by_division(n, m), (n, m)


def test_gauss_examples():
    assert gauss_binom(2, 1) == quantum_int(2)
    assert gauss_binom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert gauss_binom(3, 0) == 1


def test_gauss_value_at_one():
    for n in range(13):
        for m in range(n + 1):
            assert gauss_binom(n, m).evaluate(1) == comb(n, m)


def test_gauss_pascal_recurrence():
    # the recurrence is the test, not the implementation
    for n in range(1, 21):
        for m in range(1, n):
            lhs = gauss_binom(n, m)
            rhs = LaurentPoly({m: 1}) * gauss_binom(n - 1, m) + LaurentPoly(
                {-(n - m): 1}
            ) * gauss_binom(n - 1, m - 1)
            assert lhs == rhs, (n, m)


def test_gauss_against_recurrence_table():
    # rebuild the whole triangle from the recurrence alone and compare
    table = {(0, 0): LaurentPoly.one()}
    for n in range(1, 15):
        table[(n, 0)] = LaurentPoly.one()
        table[(n, n)] = LaurentPoly.one()
        for m in range(1, n):
            table[(n, m)] = (
                LaurentPoly({m: 1}) * table[(n - 1, m)]
                + LaurentPoly({-(n - m): 1}) * table[(n - 1, m - 1)]
            )
    for (n, m), want in table.items():
        assert gauss_binom(n, m) == want


def test_gauss_symmetric_integral_nonnegative():
    for n in range(12):
        for m in range(n + 1):
            f = gauss_binom(n, m)
            assert f.is_symmetric()
            assert all(c > 0 for _, c in f.items())


def test_gauss_errors():
    with pytest.raises(ValueError):
        gauss_binom(2, 3)
    with pytest.raises(ValueError):
        gauss_binom(-1, 0)
    with pytest.raises(ValueError):
        gauss_binom(3, -1)


# -- the trace functional -----------------------------------------------------


def _constant_term_mod_zp_plus_1(f: LaurentPoly, p: int) -> int:
    # fold f into Z[z]/(z^p + 1): z^e = (-1)^k z^r for e = kp + r, 0 <= r < p
    folded = [0] * p
    for e, c in f.items():
        k, r = divmod(e, p)
        folded[r] += -c if k % 2 else c
    return folded[0]


@settings(max_examples=200)
@given(
    st.dictionaries(st.integers(-60, 60), st.integers(-9, 9), max_size=12),
    st.sampled_from((2,) + ODD_PRIMES + (13,)),
)
def test_alternating_p_sum_is_constant_term_mod_zp_plus_1(data, p):
    f = LaurentPoly(data)
    total, contributions = alternating_p_sum(f, p)
    assert total == _constant_term_mod_zp_plus_1(f, p)
    want = [(e // p, c) for e, c in sorted(data.items()) if c and e % p == 0]
    assert list(contributions) == want


def test_twice_trace_power_sums():
    for p in ODD_PRIMES:
        for r in range(1, 4 * p + 1):
            if r % p == 0:
                continue
            f = LaurentPoly({r: 1, -r: 1})
            assert twice_trace(f, p) == 2 * (-1) ** (r - 1), (p, r)


def test_twice_trace_constant():
    assert twice_trace(LaurentPoly({0: 2}), 5) == 8  # trace of a rational c is c(p-1)/2


def test_twice_trace_at_exponent_p():
    assert twice_trace(LaurentPoly({5: 1, -5: 1}), 5) == -8


def test_twice_trace_rejects():
    with pytest.raises(ValueError):
        twice_trace(LaurentPoly({1: 1}), 5)
    with pytest.raises(ValueError):
        twice_trace(LaurentPoly.one(), 2)
    with pytest.raises(ValueError):
        twice_trace(LaurentPoly.one(), 9)


@settings(max_examples=60)
@given(symmetric_laurent(), st.sampled_from(ODD_PRIMES))
def test_twice_trace_equals_galois_conjugate_sum(f, p):
    x = to_cyclotomic(f, p)
    total = Cyclotomic.zero(p)
    for s in range((p - 1) // 2):
        total = total + galois(x, 2 * s + 1)
    assert total.is_rational
    assert twice_trace(f, p) == 2 * total.as_int()


# -- canonical cyclotomic reduction --------------------------------------------


def test_to_cyclotomic_examples():
    for p in ODD_PRIMES:
        assert to_cyclotomic(LaurentPoly({2 * p: 1}), p) == Cyclotomic.one(p)
        assert to_cyclotomic(LaurentPoly({p: 1}), p) == Cyclotomic.from_int(p, -1)
        assert to_cyclotomic(quantum_int(p), p).is_zero()


def test_to_cyclotomic_known_folds():
    # q^6 = -q for p = 5
    assert to_cyclotomic(LaurentPoly({6: 1}), 5) == to_cyclotomic(LaurentPoly({1: -1}), 5)


def test_to_cyclotomic_rejects():
    with pytest.raises(ValueError):
        to_cyclotomic(LaurentPoly.one(), 2)
    with pytest.raises(ValueError):
        to_cyclotomic(LaurentPoly.one(), 15)


@settings(max_examples=80)
@given(integral_laurent(max_exp=14), st.sampled_from(ODD_PRIMES))
def test_to_cyclotomic_against_divisibility_oracle(f, p):
    assert_same_in_zq(f, to_cyclotomic(f, p), p)


@settings(max_examples=60)
@given(integral_laurent(), integral_laurent(), st.sampled_from(ODD_PRIMES))
def test_to_cyclotomic_is_ring_hom(f, g, p):
    assert to_cyclotomic(f * g, p) == to_cyclotomic(f, p) * to_cyclotomic(g, p)
    assert to_cyclotomic(f + g, p) == to_cyclotomic(f, p) + to_cyclotomic(g, p)


# -- Galois action --------------------------------------------------------------


def test_galois_identity():
    x = Cyclotomic.root_power(5, 1)
    assert galois(x, 1) == x


def test_galois_on_real_pair():
    for p in ODD_PRIMES:
        pair = Cyclotomic.root_power(p, 1) + Cyclotomic.root_power(p, -1)
        for s in range((p - 1) // 2):
            k = 2 * s + 1
            want = Cyclotomic.root_power(p, k) + Cyclotomic.root_power(p, -k)
            assert galois(pair, k) == want


@settings(max_examples=60)
@given(
    integral_laurent(),
    st.sampled_from(ODD_PRIMES),
    st.integers(0, 40),
    st.integers(0, 40),
)
def test_galois_composition(f, p, a, b):
    from math import gcd

    ks = [k for k in range(1, 2 * p) if gcd(k, 2 * p) == 1]
    k1, k2 = ks[a % len(ks)], ks[b % len(ks)]
    x = to_cyclotomic(f, p)
    assert galois(galois(x, k1), k2) == galois(x, (k1 * k2) % (2 * p))


def test_galois_rejects_bad_exponent():
    x = Cyclotomic.root_power(5, 1)
    with pytest.raises(ValueError):
        galois(x, 2)
    with pytest.raises(ValueError):
        galois(x, 5)


def test_cyclotomic_rejects_bool_coordinates():
    with pytest.raises(TypeError):
        Cyclotomic(5, (True, 0, 0, 0))
    assert Cyclotomic(5, (1, 0, 0, 0)) == Cyclotomic.one(5)


def test_cyclotomic_arithmetic_and_reality():
    p = 7
    x = Cyclotomic.root_power(p, 3)
    assert x * Cyclotomic.root_power(p, 4) == Cyclotomic.from_int(p, -1)
    real = x + x.conjugate()
    assert real.is_real
    assert not x.is_real
