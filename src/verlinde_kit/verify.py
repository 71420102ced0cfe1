"""Cross-validation sweeps: every closed-form path in the package against the
brute-force Jordan oracle and against internal identities.

Each check is a named cell; the report lists per-cell pass/fail/skip so a
machine can consume it (the CLI `verify` command emits it as JSON).  Cells at
matrix dimensions above the configured budget are skipped, not failed.  A
budget below 2 admits only 1x1 matrices, whose Jordan type is forced, so it
gets a failing "oracle coverage" cell in the sym and ext suites.
"""
from __future__ import annotations

import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from math import comb

from .jordan import jordan_ext, jordan_sym, jordan_tensor, negligible_quotient
from .laurent import LaurentPoly, galois, quantum_int, to_cyclotomic, twice_trace
from .powers import (
    classical_invariant_count,
    decompose_from_dims,
    ext_power_simple,
    invariant_dim,
    length_identity_holds,
    padic_dims,
    sfpdim_via_adams,
    sym_power_simple,
)
from .ring import VerObj, character, dim_mod_p, fpdim_rep, fuse, sfpdim, sfpdim_rep

SUITES = (
    "fusion",
    "sym",
    "ext",
    "roundtrip",
    "adams",
    "characters",
    "trace",
    "padic",
    "weyl",
    "invariants",
)


@dataclass
class VerifyConfig:
    primes: tuple[int, ...] = (3, 5, 7, 11)
    n_random: int = 200
    n_roundtrip: int = 300
    seed: int = 2024
    max_dim: int = 3000
    threads: int | None = None


@dataclass
class CellResult:
    suite: str
    p: int
    cell: str
    status: str  # pass | fail | skip
    detail: str = ""


@dataclass
class Report:
    primes: tuple[int, ...]
    cells: list[CellResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.cells)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.cells:
            out[c.status] += 1
        return out

    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if c.status == "fail"]

    def to_json(self) -> dict:
        return {
            "primes": list(self.primes),
            "ok": self.ok,
            "summary": self.counts(),
            "cells": [asdict(c) for c in self.cells],
        }


def random_effective(rng: random.Random, p: int, max_mult: int = 3) -> VerObj:
    return VerObj(p, tuple(rng.randint(0, max_mult) for _ in range(p - 1)))


def _cell(results, suite, p, cell, ok, detail=""):
    results.append(CellResult(suite, p, cell, "pass" if ok else "fail", "" if ok else detail))


# -- individual suites ------------------------------------------------------


def fusion_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    results: list[CellResult] = []
    for r in range(1, p):
        for s in range(1, p):
            got = negligible_quotient(jordan_tensor(r, s, p))
            want = fuse(VerObj.simple(p, r), VerObj.simple(p, s))
            _cell(results, "fusion", p, f"L{r}*L{s}", got == want, f"oracle {got} != rule {want}")
    return results


def sym_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    results: list[CellResult] = []
    for m in range(2, p):
        # oracle comparison over the validity range of the closed form
        for i in range(0, p - m + 1):
            name = f"S^{i}L{m}"
            formula = sym_power_simple(i, m, p)
            if comb(m + i - 1, i) > cfg.max_dim:
                results.append(CellResult("sym", p, name, "skip", "above matrix budget"))
                continue
            oracle = negligible_quotient(jordan_sym(i, m, p))
            _cell(results, "sym", p, name + "/oracle", formula == oracle, f"formula {formula} != oracle {oracle}")
        # beyond it the powers vanish; the monomial bases grow too fast for
        # a default-budget oracle run, so check the formula output alone
        for i in range(p - m + 1, p + 1):
            name = f"S^{i}L{m}=0"
            formula = sym_power_simple(i, m, p)
            _cell(results, "sym", p, name, formula.is_zero(), f"expected 0, got {formula}")
    return results


def ext_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    results: list[CellResult] = []
    for r in range(1, p):
        for i in range(0, r + 1):
            name = f"w^{i}L{r}"
            if comb(r, i) > cfg.max_dim:
                results.append(CellResult("ext", p, name, "skip", "above matrix budget"))
                continue
            formula = ext_power_simple(i, r, p)
            oracle = negligible_quotient(jordan_ext(i, r, p))
            _cell(results, "ext", p, name, formula == oracle, f"formula {formula} != oracle {oracle}")
        if r < p - 1:
            vanish = ext_power_simple(r + 1, r, p)
            _cell(results, "ext", p, f"w^{r + 1}L{r}=0", vanish.is_zero(), f"got {vanish}")
    return results


def roundtrip_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    results: list[CellResult] = []
    rng = random.Random(cfg.seed * 1000 + p)
    bad = []
    for k in range(cfg.n_roundtrip):
        x = random_effective(rng, p)
        back = decompose_from_dims(fpdim_rep(x), sfpdim_rep(x), p)
        if back != x:
            bad.append((k, x, back))
    _cell(
        results,
        "roundtrip",
        p,
        f"{cfg.n_roundtrip} random objects",
        not bad,
        f"first mismatch: {bad[0] if bad else None}",
    )
    return results


def adams_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    results: list[CellResult] = []
    for r in range(1, p):
        x = VerObj.simple(p, r)
        _cell(
            results,
            "adams",
            p,
            f"L{r}",
            sfpdim_via_adams(x) == sfpdim(x),
            f"adams route {sfpdim_via_adams(x)} != character {sfpdim(x)}",
        )
    rng = random.Random(cfg.seed * 1001 + p)
    bad = []
    for k in range(cfg.n_random):
        x = random_effective(rng, p)
        if sfpdim_via_adams(x) != sfpdim(x):
            bad.append((k, x))
    _cell(results, "adams", p, f"{cfg.n_random} random sums", not bad, f"first mismatch: {bad[0] if bad else None}")
    return results


def character_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    results: list[CellResult] = []
    rng = random.Random(cfg.seed * 1002 + p)
    bad = []
    for _ in range(25):
        x = random_effective(rng, p, 2)
        y = random_effective(rng, p, 2)
        for j in range(1, p):
            if character(j, fuse(x, y)) != character(j, x) * character(j, y):
                bad.append((j, x, y))
    _cell(results, "characters", p, "ring homomorphism", not bad, f"first mismatch: {bad[0] if bad else None}")

    bad = []
    for s in range((p - 1) // 2):
        for r in range(1, p):
            x = VerObj.simple(p, r)
            if character(2 * s + 1, x) != galois(character(1, x), 2 * s + 1):
                bad.append(("odd", s, r))
            if character(p - 2 * s - 1, x) != galois(character(p - 1, x), 2 * s + 1):
                bad.append(("even", s, r))
    _cell(results, "characters", p, "galois relations", not bad, f"first mismatch: {bad[0] if bad else None}")

    rows = {tuple(character(j, VerObj.simple(p, r)).coords for r in range(1, p)) for j in range(1, p)}
    _cell(results, "characters", p, "pairwise distinct", len(rows) == p - 1, f"only {len(rows)} distinct rows")
    return results


def trace_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    results: list[CellResult] = []
    bad = []
    for r in range(1, 4 * p + 1):
        if r % p == 0:
            continue
        value = twice_trace(LaurentPoly({r: 1, -r: 1}), p)
        want = 2 * (-1) ** (r - 1)
        if value != want:
            bad.append((r, value, want))
    _cell(results, "trace", p, "2Tr(q^r+q^-r), r<=4p", not bad, f"first mismatch: {bad[0] if bad else None}")
    return results


def padic_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    results: list[CellResult] = []
    for r in range(1, p):
        dplus, dminus = padic_dims(VerObj.simple(p, r))
        want_plus = 1 if r == 1 else r - p
        want_minus = r if r < p - 1 else -1
        ok = (dplus, dminus) == (want_plus, want_minus) and dplus % p == r % p and dminus % p == r % p
        _cell(results, "padic", p, f"Dim(L{r})", ok, f"got ({dplus},{dminus}), want ({want_plus},{want_minus})")

    # symmetric series of L_m is (1-z)^{p-m} over F_p for m >= 2
    for m in range(2, p):
        series = [dim_mod_p(sym_power_simple(i, m, p)) for i in range(p - m + 1)]
        want = [(comb(p - m, i) * (-1) ** i) % p for i in range(p - m + 1)]
        _cell(results, "padic", p, f"sym series L{m}", series == want, f"{series} != {want}")
    series = [dim_mod_p(sym_power_simple(i, 1, p)) for i in range(2 * p)]
    _cell(results, "padic", p, "sym series L1", series == [1] * 2 * p, f"{series}")

    # exterior series of L_r is (1+z)^r for r < p-1, and the expansion of
    # (1+z)^{p-1}(1+z^p)^{p-1}... for the invertible odd simple
    for r in range(1, p - 1):
        series = [dim_mod_p(ext_power_simple(i, r, p)) for i in range(r + 1)]
        want = [comb(r, i) % p for i in range(r + 1)]
        _cell(results, "padic", p, f"ext series L{r}", series == want, f"{series} != {want}")
    series = [dim_mod_p(ext_power_simple(i, p - 1, p)) for i in range(2 * p)]
    prod = [0] * (2 * p)
    for a in range(min(p, 2 * p)):
        for b in range(2):
            if a + b * p < 2 * p:
                prod[a + b * p] = (prod[a + b * p] + comb(p - 1, a) * comb(p - 1, b)) % p
    _cell(results, "padic", p, f"ext series L{p - 1}", series == prod, f"{series} != {prod}")

    rng = random.Random(cfg.seed * 1003 + p)
    bad = []
    for k in range(cfg.n_random):
        x = random_effective(rng, p)
        if not length_identity_holds(x):
            bad.append((k, x))
    _cell(results, "padic", p, "length identity", not bad, f"first mismatch: {bad[0] if bad else None}")
    return results


def weyl_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    from .weyl import Weight, decompose_weyl

    results: list[CellResult] = []
    for m in range(2, min(5, p)):
        for i in range(0, p - m + 1):
            w = Weight.of(m, (i,))
            got = decompose_weyl(w, p)
            want = sym_power_simple(i, m, p)
            _cell(results, "weyl", p, f"SL{m} i*w1, i={i}", got == want, f"{got} != {want}")
        got = decompose_weyl(Weight.fundamental(m), p)
        _cell(results, "weyl", p, f"SL{m} w1", got == VerObj.simple(p, m), f"{got} != L{m}")
    return results


def invariant_suite(p: int, cfg: VerifyConfig) -> list[CellResult]:
    results: list[CellResult] = []
    bad = []
    for m in range(2, p):
        for i in range(0, p - m + 1):
            if invariant_dim(i, m, p) != sym_power_simple(i, m, p).mult(1):
                bad.append((i, m))
    _cell(results, "invariants", p, "unit multiplicity", not bad, f"first mismatch: {bad[0] if bad else None}")

    bad = []
    for m in range(2, p):
        for i in range(0, p - m + 1):
            if 2 * p > i * (m - 1) + 2 and invariant_dim(i, m, p) != classical_invariant_count(i, m):
                bad.append((i, m))
    _cell(results, "invariants", p, "classical limit", not bad, f"first mismatch: {bad[0] if bad else None}")
    return results


_SUITE_FNS = {
    "fusion": fusion_suite,
    "sym": sym_suite,
    "ext": ext_suite,
    "roundtrip": roundtrip_suite,
    "adams": adams_suite,
    "characters": character_suite,
    "trace": trace_suite,
    "padic": padic_suite,
    "weyl": weyl_suite,
    "invariants": invariant_suite,
}


def _thread_count(cfg: VerifyConfig, n_tasks: int) -> int:
    limit = cfg.threads if cfg.threads else (os.cpu_count() or 1)
    cap = os.environ.get("VERLINDE_KIT_THREADS")
    if cap:
        limit = min(limit, max(1, int(cap)))
    return max(1, min(limit, n_tasks))


def run_verify(cfg: VerifyConfig | None = None) -> Report:
    """Run every suite for every configured prime and collect a report.

    Independent (suite, p) tasks may run on a thread pool; the environment
    variable VERLINDE_KIT_THREADS caps the worker count.
    """
    cfg = cfg or VerifyConfig()
    for p in cfg.primes:
        to_cyclotomic(quantum_int(1), p)  # validates p is an odd prime before spawning work
    tasks = [(name, p) for name in SUITES for p in cfg.primes]
    report = Report(primes=tuple(cfg.primes))
    workers = _thread_count(cfg, len(tasks))
    if workers == 1:
        chunks = [_SUITE_FNS[name](p, cfg) for name, p in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda t: _SUITE_FNS[t[0]](t[1], cfg), tasks))
    for chunk in chunks:
        report.cells.extend(chunk)
    if cfg.max_dim < 2:
        detail = f"matrix budget {cfg.max_dim} admits only 1x1 matrices"
        for suite in ("sym", "ext"):
            report.cells.extend(CellResult(suite, p, "oracle coverage", "fail", detail) for p in cfg.primes)
    report.cells.sort(key=lambda c: (SUITES.index(c.suite), c.p, c.cell))
    return report
