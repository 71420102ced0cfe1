"""Wire formats shared by the CLI and any machine consumer.

Laurent polynomial JSON:  {"offset": j0, "coeffs": [c_{j0}, c_{j0+1}, ...]}
meaning sum_j c_j z^j.  Ring element JSON: {"p": 5, "mults": [a1, ..., a4]}.
Weight JSON: {"m": 3, "parts": [3, 1]}.  The CLI additionally accepts compact
strings: "z^2+1+z^-2" or "[3]_z" for polynomials, "a1,a2,..." for
multiplicities and "3,1,0" for weight parts.
"""
from __future__ import annotations

import re

from .laurent import LaurentPoly, quantum_sum
from .ring import VerObj
from .weyl import Weight


def _int(value, what: str) -> int:
    """value itself if it is a true int; JSON floats and booleans are
    rejected rather than truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def laurent_to_json(f: LaurentPoly) -> dict:
    if f.is_zero():
        return {"offset": 0, "coeffs": []}
    lo, hi = f.valuation(), f.degree()
    return {"offset": lo, "coeffs": [f.coeff(e) for e in range(lo, hi + 1)]}


def laurent_from_json(obj: dict) -> LaurentPoly:
    try:
        offset = _int(obj["offset"], "offset")
        coeffs = list(obj["coeffs"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad Laurent polynomial object: {obj!r}") from exc
    return LaurentPoly({offset + k: _int(c, "coefficient") for k, c in enumerate(coeffs)})


# Largest |r| accepted in the compact form [r]_z.
QUANTUM_INT_CAP = 10**5

_TERM_RE = re.compile(
    r"""^(?P<coeff>[+-]?\d*)
         (?:\*?
           (?:
              \[(?P<qint>-?\d+)\]_?z
            | (?P<zvar>z)(?:\^(?P<exp>[+-]?\d+))?
           )
         )?$""",
    re.VERBOSE,
)


def _split_terms(text: str) -> list[str]:
    """Split on + and - at term boundaries, keeping signs; '^-' and '[-' do
    not end a term."""
    terms = []
    current = ""
    for k, ch in enumerate(text):
        if ch in "+-" and k > 0 and text[k - 1] not in "^[+-*":
            terms.append(current)
            current = ch
        else:
            current += ch
    terms.append(current)
    return terms


def parse_laurent(text: str) -> LaurentPoly:
    """Parse "z^2+1+z^-2", "[3]_z", "-[2]_z", "2*[4]_z - 3z" and the like.

    [r]_z has 2|r| - 1 terms, so |r| above QUANTUM_INT_CAP is rejected; plain
    exponents cost one term each and are not capped.
    """
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty Laurent polynomial")
    monomials: dict[int, int] = {}
    qweights: dict[int, int] = {}  # r -> coefficient of [r]_z, for r >= 1
    for term in _split_terms(cleaned):
        match = _TERM_RE.match(term)
        if not match:
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        raw = match.group("coeff")
        coeff = int(raw) if raw not in ("", "+", "-") else (-1 if raw == "-" else 1)
        if match.group("qint") is not None:
            r = int(match.group("qint"))
            if abs(r) > QUANTUM_INT_CAP:
                raise ValueError(f"quantum integer [{r}]_z exceeds the cap |r| <= {QUANTUM_INT_CAP}")
            if r:  # [-r]_z = -[r]_z and [0]_z = 0
                qweights[abs(r)] = qweights.get(abs(r), 0) + (coeff if r > 0 else -coeff)
        elif match.group("zvar"):
            exp = int(match.group("exp")) if match.group("exp") is not None else 1
            monomials[exp] = monomials.get(exp, 0) + coeff
        elif raw not in ("", "+", "-"):
            monomials[0] = monomials.get(0, 0) + coeff
        else:
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
    weights = [qweights.get(r, 0) for r in range(1, max(qweights, default=0) + 1)]
    return quantum_sum(weights) + LaurentPoly(monomials)


def verobj_to_json(x: VerObj) -> dict:
    return {"p": x.p, "mults": list(x.mults)}


def verobj_from_json(obj: dict) -> VerObj:
    try:
        return VerObj(_int(obj["p"], "p"), tuple(_int(a, "multiplicity") for a in obj["mults"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad ring element object: {obj!r}") from exc


def parse_mults(text: str, p: int) -> VerObj:
    try:
        mults = tuple(int(a) for a in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse multiplicity list {text!r}") from exc
    return VerObj(p, mults)


def weight_to_json(w: Weight) -> dict:
    return {"m": w.m, "parts": list(w.parts)}


def weight_from_json(obj: dict) -> Weight:
    try:
        return Weight.of(_int(obj["m"], "m"), [_int(a, "weight part") for a in obj["parts"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad weight object: {obj!r}") from exc


def parse_weight(text: str, m: int) -> Weight:
    try:
        parts = tuple(int(a) for a in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse weight {text!r}") from exc
    return Weight.of(m, parts)
