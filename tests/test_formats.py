import pytest
from hypothesis import given
from hypothesis import strategies as st

from verlinde_kit import LaurentPoly, VerObj, Weight, quantum_int
from verlinde_kit.formats import (
    QUANTUM_INT_CAP,
    laurent_from_json,
    laurent_to_json,
    parse_laurent,
    parse_mults,
    parse_weight,
    verobj_from_json,
    verobj_to_json,
    weight_from_json,
    weight_to_json,
)

from conftest import integral_laurent


def test_laurent_json_roundtrip_examples():
    f = LaurentPoly({2: 1, 0: 1, -2: 1})
    assert laurent_to_json(f) == {"offset": -2, "coeffs": [1, 0, 1, 0, 1]}
    assert laurent_from_json(laurent_to_json(f)) == f
    assert laurent_to_json(LaurentPoly.zero()) == {"offset": 0, "coeffs": []}
    assert laurent_from_json({"offset": 0, "coeffs": []}).is_zero()


@given(integral_laurent())
def test_laurent_json_roundtrip(f):
    assert laurent_from_json(laurent_to_json(f)) == f


def test_laurent_json_errors():
    with pytest.raises(ValueError):
        laurent_from_json({"coeffs": [1]})


@pytest.mark.parametrize(
    "obj",
    [
        {"offset": 0, "coeffs": [1.5]},
        {"offset": 0, "coeffs": [2.0]},
        {"offset": 0, "coeffs": [True]},
        {"offset": 0, "coeffs": ["1"]},
        {"offset": 0.5, "coeffs": [1]},
        {"offset": True, "coeffs": [1]},
    ],
)
def test_laurent_json_rejects_non_integers(obj):
    with pytest.raises(ValueError):
        laurent_from_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"p": 5, "mults": [1.5, 0, 0, 0]},
        {"p": 5, "mults": [True, 0, 0, 0]},
        {"p": 5.0, "mults": [1, 0, 0, 0]},
        {"p": 5, "mults": 1},
    ],
)
def test_verobj_json_rejects_non_integers(obj):
    with pytest.raises(ValueError):
        verobj_from_json(obj)


def test_weight_json_rejects_non_integers():
    with pytest.raises(ValueError):
        weight_from_json({"m": 3, "parts": [1.5]})
    with pytest.raises(ValueError):
        weight_from_json({"m": 3.0, "parts": [1]})


def test_parse_laurent_plain():
    assert parse_laurent("z^2+1+z^-2") == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert parse_laurent("-2z+1") == LaurentPoly({1: -2, 0: 1})
    assert parse_laurent("z") == LaurentPoly({1: 1})
    assert parse_laurent("-z^-3") == LaurentPoly({-3: -1})
    assert parse_laurent("7") == LaurentPoly({0: 7})
    assert parse_laurent(" z^2 + 1 + z^-2 ") == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_parse_laurent_quantum_brackets():
    assert parse_laurent("[3]_z") == quantum_int(3)
    assert parse_laurent("-[2]_z") == -quantum_int(2)
    assert parse_laurent("2*[2]_z") == 2 * quantum_int(2)
    assert parse_laurent("2[2]_z") == 2 * quantum_int(2)
    assert parse_laurent("[3]_z+[1]_z") == quantum_int(3) + 1
    assert parse_laurent("[2]_z-[2]_z").is_zero()


@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.one_of(st.integers(-12, 12).map(lambda r: ("qint", r)), st.integers(-50, 50).map(lambda e: ("z", e))),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_parse_laurent_sums_terms(terms):
    text = ""
    want = LaurentPoly.zero()
    for coeff, (kind, k) in terms:
        if kind == "qint":
            text += f"{coeff:+d}*[{k}]_z"
            want = want + quantum_int(k) * coeff
        else:
            text += f"{coeff:+d}z^{k}"
            want = want + LaurentPoly.monomial(k, coeff)
    assert parse_laurent(text) == want


def test_parse_laurent_caps_quantum_integers():
    assert parse_laurent(f"[{QUANTUM_INT_CAP}]_z") == quantum_int(QUANTUM_INT_CAP)
    assert parse_laurent(f"[{-QUANTUM_INT_CAP}]_z") == -quantum_int(QUANTUM_INT_CAP)
    for r in (QUANTUM_INT_CAP + 1, -QUANTUM_INT_CAP - 1, 50000000):
        with pytest.raises(ValueError, match="cap"):
            parse_laurent(f"z+[{r}]_z")


def test_parse_laurent_string_roundtrip():
    for f in (quantum_int(5), LaurentPoly({3: -2, 0: 4, -1: 1}), LaurentPoly.one()):
        assert parse_laurent(str(f)) == f


def test_parse_laurent_rejects_garbage():
    for bad in ("", "z^", "q+1", "[z]_z", "1//2", "z**2", "+", "2*"):
        with pytest.raises(ValueError):
            parse_laurent(bad)


def test_verobj_json_roundtrip():
    x = VerObj(5, (1, 0, 3, 0))
    assert verobj_to_json(x) == {"p": 5, "mults": [1, 0, 3, 0]}
    assert verobj_from_json(verobj_to_json(x)) == x
    with pytest.raises(ValueError):
        verobj_from_json({"p": 5})
    with pytest.raises(ValueError):
        verobj_from_json({"p": 5, "mults": [1, 2]})


def test_parse_mults():
    assert parse_mults("0,0,1,0", 5) == VerObj.simple(5, 3)
    with pytest.raises(ValueError):
        parse_mults("0,0,x,0", 5)
    with pytest.raises(ValueError):
        parse_mults("0,0,1", 5)


def test_weight_json_and_parse():
    w = Weight(3, (3, 1))
    assert weight_to_json(w) == {"m": 3, "parts": [3, 1]}
    assert weight_from_json(weight_to_json(w)) == w
    assert parse_weight("3,1,0", 3) == w
    assert parse_weight("3,1", 3) == w
    with pytest.raises(ValueError):
        parse_weight("1,2,3,4", 3)
    with pytest.raises(ValueError):
        parse_weight("a,b", 3)
