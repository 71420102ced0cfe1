"""Command-line front end.

Subcommands: fusion-table, sympow, extpow, decompose, weyl, padic,
invariants, verify.  Every command supports --format {text,csv,json}; JSON
output round-trips through the schemas in formats.py.  Exit codes: 0 success,
2 bad input, 3 failed integrality assertion, 4 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import lru_cache

from . import formats
from .laurent import IntegralityError, check_odd_prime, is_prime
from .powers import (
    classical_invariant_count,
    decompose_from_dims,
    decompose_terms,
    ext_power_simple,
    invariant_dim,
    length_identity_holds,
    padic_dims,
    sym_power_simple,
    transcendence_degrees,
)
from .ring import VerObj, fpdim_rep, fuse, sfpdim_rep
from .verify import VerifyConfig, run_verify
from .weyl import decompose_weyl

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INTEGRALITY = 3
EXIT_VERIFY_FAILED = 4


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _parse_laurent_arg(text: str):
    text = text.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except RecursionError as exc:
            raise ValueError("JSON input nested too deeply") from exc
        return formats.laurent_from_json(obj)
    return formats.parse_laurent(text)


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    """Reject an index outside lo..hi before any table is sized from it."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} = {value} out of range {lo}..{hi}")


# -- subcommands -------------------------------------------------------------


def cmd_fusion_table(args) -> int:
    p = args.p
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    simples = [VerObj.simple(p, r) for r in range(1, p)]
    table = [[fuse(a, b) for b in simples] for a in simples]
    if args.format == "json":
        entries = [
            {"r": r, "s": s, "product": formats.verobj_to_json(table[r - 1][s - 1])}
            for r in range(1, p)
            for s in range(1, p)
        ]
        _emit_json({"p": p, "entries": entries})
    elif args.format == "csv":
        rows = [[r, s, str(table[r - 1][s - 1])] for r in range(1, p) for s in range(1, p)]
        _emit_csv(["r", "s", "product"], rows)
    else:
        cells = [[str(x) for x in row] for row in table]
        width = max(2, *(len(c) for row in cells for c in row), *(len(f"L{r}") for r in range(1, p)))
        head = "x".rjust(width) + " | " + " ".join(f"L{s}".rjust(width) for s in range(1, p))
        print(head)
        print("-" * len(head))
        for r in range(1, p):
            print(f"L{r}".rjust(width) + " | " + " ".join(c.rjust(width) for c in cells[r - 1]))
    return EXIT_OK


def _power_rows(p: int, kind: str, index: int, single_i: int | None):
    check_odd_prime(p)
    _check_range("simple index m" if kind == "sym" else "simple index r", index, 1, p - 1)
    if kind == "sym":
        top = p - index if index >= 2 else p
        builder = lambda i: sym_power_simple(i, index, p)
    else:
        top = index
        builder = lambda i: ext_power_simple(i, index, p)
    indices = [single_i] if single_i is not None else list(range(top + 1))
    rows = []
    for i in indices:
        obj = builder(i)
        rows.append((i, obj, fpdim_rep(obj), sfpdim_rep(obj), obj.mult(1)))
    return rows


def _print_power_rows(args, p: int, kind: str, index: int, rows) -> None:
    key = "m" if kind == "sym" else "r"
    if args.format == "json":
        payload_rows = []
        for i, obj, fp, sfp, inv in rows:
            payload_rows.append(
                {
                    "i": i,
                    "mults": list(obj.mults),
                    "fpdim": formats.laurent_to_json(fp),
                    "sfpdim": formats.laurent_to_json(sfp),
                    "invariants": inv,
                }
            )
        _emit_json({"p": p, key: index, "rows": payload_rows})
    elif args.format == "csv":
        _emit_csv(
            ["i", "object", "fpdim", "sfpdim", "invariants"],
            [[i, str(obj), str(fp), str(sfp), inv] for i, obj, fp, sfp, inv in rows],
        )
    else:
        label = f"S^i L{index}" if kind == "sym" else f"w^i L{index}"
        print(f"{label} in Ver_{p}")
        for i, obj, fp, sfp, inv in rows:
            print(f"  i={i}: {obj}   fpdim={fp}   sfpdim={sfp}   invariants={inv}")


def cmd_sympow(args) -> int:
    rows = _power_rows(args.p, "sym", args.m, args.i)
    _print_power_rows(args, args.p, "sym", args.m, rows)
    return EXIT_OK


def cmd_extpow(args) -> int:
    rows = _power_rows(args.p, "ext", args.r, args.i)
    _print_power_rows(args, args.p, "ext", args.r, rows)
    return EXIT_OK


def cmd_decompose(args) -> int:
    p_fp = _parse_laurent_arg(args.fpdim)
    p_sfp = _parse_laurent_arg(args.sfpdim)
    terms = decompose_terms(p_fp, p_sfp, args.p)
    obj = decompose_from_dims(p_fp, p_sfp, args.p, expect_effective=not args.virtual, terms=terms)
    if args.format == "json":
        payload = formats.verobj_to_json(obj)
        if args.explain:
            payload["terms"] = [
                {
                    "r": t.r,
                    "contributions": [[j, c] for j, c in t.contributions],
                    "alternating_sum": t.alternating_sum,
                    "multiplicity": int(t.multiplicity),
                }
                for t in terms
            ]
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(["r", "multiplicity"], [[r, a] for r, a in enumerate(obj.mults, start=1)])
    else:
        print(str(obj))
        if args.explain:
            for t in terms:
                pieces = ", ".join(f"j={j}: {c}" for j, c in t.contributions) or "no terms"
                print(f"  a_{t.r} = (1/4)*({t.alternating_sum}) = {int(t.multiplicity)}   [{pieces}]")
    return EXIT_OK


def cmd_weyl(args) -> int:
    check_odd_prime(args.p)
    # the alcove needs lambda_1 + m - 1 < p; bound m before padding the weight
    _check_range("rank parameter m", args.m, 2, args.p)
    weight = formats.parse_weight(args.weight, args.m)
    obj = decompose_weyl(weight, args.p)
    if args.format == "json":
        payload = formats.verobj_to_json(obj)
        payload["weight"] = formats.weight_to_json(weight)
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(["r", "multiplicity"], [[r, a] for r, a in enumerate(obj.mults, start=1)])
    else:
        print(str(obj))
    return EXIT_OK


def cmd_padic(args) -> int:
    x = formats.parse_mults(args.mults, args.p)
    dim_plus, dim_minus = padic_dims(x)
    trd_plus, trd_minus = transcendence_degrees(x)
    identity = length_identity_holds(x)
    if args.format == "json":
        _emit_json(
            {
                "p": x.p,
                "mults": list(x.mults),
                "dim_plus": dim_plus,
                "dim_minus": dim_minus,
                "trd_plus": trd_plus,
                "trd_minus": trd_minus,
                "length": x.length(),
                "length_identity": identity,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["dim_plus", "dim_minus", "trd_plus", "trd_minus", "length", "length_identity"],
            [[dim_plus, dim_minus, trd_plus, trd_minus, x.length(), identity]],
        )
    else:
        print(f"Dim+={dim_plus} Dim-={dim_minus}")
        print(f"Trd+={trd_plus} Trd-={trd_minus}")
        print(f"length={x.length()} identity={'ok' if identity else 'VIOLATED'}")
    return EXIT_OK


def cmd_invariants(args) -> int:
    p, m = args.p, args.m
    check_odd_prime(p)
    _check_range("simple index m", m, 2, p - 1)
    indices = [args.i] if args.i is not None else list(range(p - m + 1))
    rows = []
    for i in indices:
        inv = invariant_dim(i, m, p)
        classical = classical_invariant_count(i, m)
        rows.append({"i": i, "invariant_dim": inv, "classical": classical})
    if args.format == "json":
        _emit_json({"p": p, "m": m, "rows": rows})
    elif args.format == "csv":
        _emit_csv(
            ["i", "invariant_dim", "classical"],
            [[row["i"], row["invariant_dim"], row["classical"]] for row in rows],
        )
    else:
        print(f"invariants of S^i L{m} in Ver_{p} (classical = large-p count)")
        for row in rows:
            print(f"  i={row['i']}: dim={row['invariant_dim']}  classical={row['classical']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    primes = tuple(int(s) for s in args.p_list.split(","))
    for option in ("max_dim", "n_random", "n_roundtrip"):
        if getattr(args, option) < 0:
            raise ValueError(f"--{option.replace('_', '-')} must be nonnegative, got {getattr(args, option)}")
    cfg = VerifyConfig(
        primes=primes,
        n_random=args.n_random,
        n_roundtrip=args.n_roundtrip,
        seed=args.seed,
        max_dim=args.max_dim,
        threads=args.threads,
    )
    report = run_verify(cfg)
    if args.format == "json":
        _emit_json(report.to_json())
    elif args.format == "csv":
        _emit_csv(
            ["suite", "p", "cell", "status", "detail"],
            [[c.suite, c.p, c.cell, c.status, c.detail] for c in report.cells],
        )
    else:
        by_suite: dict[tuple[str, int], list] = {}
        for c in report.cells:
            by_suite.setdefault((c.suite, c.p), []).append(c)
        for (suite, p), cells in sorted(by_suite.items(), key=lambda kv: (kv[1][0].suite, kv[0][1])):
            npass = sum(1 for c in cells if c.status == "pass")
            nfail = sum(1 for c in cells if c.status == "fail")
            nskip = sum(1 for c in cells if c.status == "skip")
            line = f"{suite:<11} p={p:<3} {npass} pass"
            if nfail:
                line += f", {nfail} FAIL"
            if nskip:
                line += f", {nskip} skipped"
            print(line)
        for c in report.failures():
            print(f"FAIL {c.suite} p={c.p} {c.cell}: {c.detail}")
        counts = report.counts()
        print(
            f"{'PASS' if report.ok else 'FAIL'} "
            f"({counts['pass']} passed, {counts['fail']} failed, {counts['skip']} skipped)"
        )
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


# -- parser -------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it
    unchanged, so every call of main can share it."""
    parser = argparse.ArgumentParser(
        prog="verlinde-kit",
        description="Exact computations in the Grothendieck ring of the Verlinde category Ver_p.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fusion-table", parents=[shared], help="full table of products of simples")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_fusion_table)

    sp = sub.add_parser("sympow", parents=[shared], help="symmetric powers of a simple")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--i", type=int, default=None)
    sp.set_defaults(func=cmd_sympow)

    sp = sub.add_parser("extpow", parents=[shared], help="exterior powers of a simple")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--i", type=int, default=None)
    sp.set_defaults(func=cmd_extpow)

    sp = sub.add_parser("decompose", parents=[shared], help="object from its two dimension characters")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--fpdim", required=True, help='Laurent string like "[3]_z" or "z^2+1+z^-2", or JSON')
    sp.add_argument("--sfpdim", required=True)
    sp.add_argument("--virtual", action="store_true", help="allow negative multiplicities")
    sp.add_argument("--explain", action="store_true", help="show the per-simple trace terms")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("weyl", parents=[shared], help="expand an SL_m alcove simple")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--weight", required=True, help='comma-separated parts, e.g. "3,1,0"')
    sp.set_defaults(func=cmd_weyl)

    sp = sub.add_parser("padic", parents=[shared], help="p-adic dimensions and transcendence degrees")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mults", required=True, help='comma-separated multiplicities, e.g. "0,0,1,0"')
    sp.set_defaults(func=cmd_padic)

    sp = sub.add_parser("invariants", parents=[shared], help="invariant counts vs the classical limit")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--i", type=int, default=None)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("verify", parents=[shared], help="run the oracle-equivalence and property sweeps")
    sp.add_argument("--p-list", default="3,5,7,11", help='comma-separated odd primes, e.g. "3,5"')
    sp.add_argument("--max-dim", type=int, default=3000, help="matrix dimension budget for oracle cells")
    sp.add_argument("--n-random", type=int, default=200)
    sp.add_argument("--n-roundtrip", type=int, default=300)
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--threads", type=int, default=None, help="worker cap (also VERLINDE_KIT_THREADS)")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse parses "--opt=--" to an empty list; no option here takes a list
        if any(isinstance(value, list) for value in vars(args).values()):
            parser.error("an option cannot take '--' as its value")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except IntegralityError as exc:
        print(f"integrality assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRALITY
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
