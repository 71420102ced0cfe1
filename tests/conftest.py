import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from verlinde_kit import LaurentPoly, VerObj

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

ODD_PRIMES = (3, 5, 7, 11)


def random_effective(rng: random.Random, p: int, max_mult: int = 3) -> VerObj:
    return VerObj(p, tuple(rng.randint(0, max_mult) for _ in range(p - 1)))


@st.composite
def symmetric_laurent(draw, max_exp=8, max_coeff=5):
    """Integral symmetric Laurent polynomials b_0 + sum b_j (z^j + z^-j)."""
    top = draw(st.integers(0, max_exp))
    coeffs = draw(st.lists(st.integers(-max_coeff, max_coeff), min_size=top + 1, max_size=top + 1))
    data = {0: coeffs[0]}
    for j, c in enumerate(coeffs[1:], start=1):
        data[j] = c
        data[-j] = c
    return LaurentPoly(data)


@st.composite
def integral_laurent(draw, max_exp=6, max_coeff=5):
    lo = draw(st.integers(-max_exp, 0))
    hi = draw(st.integers(0, max_exp))
    return LaurentPoly(
        {
            e: draw(st.integers(-max_coeff, max_coeff))
            for e in range(lo, hi + 1)
        }
    )


@st.composite
def effective_verobj(draw, p=None, max_mult=3):
    if p is None:
        p = draw(st.sampled_from(ODD_PRIMES))
    mults = draw(st.lists(st.integers(0, max_mult), min_size=p - 1, max_size=p - 1))
    return VerObj(p, tuple(mults))


# Primes of the reference-equality properties: small ones for coverage of
# edge cases, 31 and 61 for the sizes the benchmark runs.
REFERENCE_PRIMES = (3, 5, 7, 11, 13, 31, 61)


@st.composite
def sampled_verobj(draw, virtual: bool):
    """An object (virtual=False) or a virtual class over a prime from
    REFERENCE_PRIMES, with a drawn share of zero multiplicities."""
    p = draw(st.sampled_from(REFERENCE_PRIMES))
    mult = st.integers(-3, 3) if virtual else st.integers(0, 3)
    mults = draw(st.lists(st.one_of(st.just(0), mult), min_size=p - 1, max_size=p - 1))
    return VerObj(p, tuple(mults))


@pytest.fixture
def rng():
    return random.Random(987654321)
