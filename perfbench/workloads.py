"""The benchmark's three jobs and the output gate of each.

A job takes the seed, runs its fixed amount of work against the
``verlinde_kit`` package in the current interpreter, checks every output,
and returns a ``JobResult``.  Inputs are generated here, from the seed; the
package only ever sees the generated inputs.

* ``verify_oracle``: one ``run_verify`` at primes (11, 13) with matrix budget
  252, default worker count.  Items are the (suite, prime) tasks of the pool.
* ``cli_tables``: ``cli.main`` called in-process on a fixed command list
  (closed-form tables, Weyl alcoves, one large fusion table) plus seeded
  ``decompose --explain`` commands.  Items are commands.
* ``objects``: a library session at p = 31 serving a seeded stream of
  requests (fusion, characters with the Galois relation, a decomposition
  round trip, every 4th request the second Adams operation).  Items are
  requests.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
VERIFY_CELLS_FILE = os.path.join(EXPECTED_DIR, "verify_cells.json")
CLI_DIGESTS_FILE = os.path.join(EXPECTED_DIR, "cli_digests.json")

VERIFY_PRIMES = (11, 13)
VERIFY_MAX_DIM = 252
TABLE_P = 19
FUSION_P = 101
DECOMPOSE_P = 61
DECOMPOSE_COUNT = 40
OBJECTS_P = 31
OBJECTS_REQUESTS = 200
MAX_FAILURE_NOTES = 5

# The host's speed for interpreted code swings by up to 1.7x within seconds
# as neighbours load it, which no median over a 30 s run removes.  So every
# item is bracketed by a fixed reference loop, timed on the same clock, and
# the item's time is scaled by REFERENCE_LOOP_S over the loop's mean time:
# items are reported at the speed where the loop takes REFERENCE_LOOP_S,
# about its fastest time on the baseline host.
REFERENCE_LOOP_S = 0.3e-3


def reference_loop(clock=time.perf_counter) -> float:
    """Time of a fixed piece of interpreted work (dict updates, integer
    arithmetic) on `clock`; it does not touch the package."""
    start = clock()
    table: dict[int, int] = {}
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i * i
    return clock() - start


@dataclass
class JobResult:
    # (raw item time in ms, mean time in s of the reference loops just
    # before and after it, whether the item ran on the main thread)
    samples: list[tuple[float, float, bool]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(note)

    @contextlib.contextmanager
    def timed(self, clock=time.perf_counter):
        """Time the block as one item, between two reference loops on the
        same clock.  Safe to use from several threads."""
        before = reference_loop(clock)
        main = threading.current_thread() is threading.main_thread()
        start = clock()
        try:
            yield
        finally:
            ms = (clock() - start) * 1000.0
            self.samples.append((ms, (before + reference_loop(clock)) / 2, main))

    def normalized_ms(self) -> list[float]:
        return [ms * REFERENCE_LOOP_S / ref for ms, ref, _ in self.samples]

    def normalized_wall(self, raw_wall: float) -> float:
        """The job's wall time at the reference speed: less the reference
        loops run on the main thread, scaled by the item-time-weighted factor
        of all items.  Loops on the worker threads of verify_oracle overlap
        the other worker's tasks, so they are not subtracted."""
        if not self.samples:
            return raw_wall
        scaled = sum(ms * REFERENCE_LOOP_S / ref for ms, ref, _ in self.samples)
        loops = sum(2 * ref for _, ref, on_main in self.samples if on_main)
        return (raw_wall - loops) * scaled / sum(ms for ms, _, _ in self.samples)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- verify_oracle ------------------------------------------------------------


def verify_cell_key(cell) -> str:
    return f"{cell.suite}/p={cell.p}/{cell.cell}"


def gate_verify_cells(cells, expected: dict[str, str], result: JobResult) -> None:
    """A cell that passed at the recorded commit must pass; one that was
    skipped must pass or skip; no cell may fail; extra cells are allowed."""
    seen = {}
    for cell in cells:
        key = verify_cell_key(cell)
        seen[key] = cell.status
        result.attempted += 1
        want = expected.get(key)
        if cell.status == "fail":
            result.fail(f"{key}: fail ({cell.detail})")
        elif want == "pass" and cell.status != "pass":
            result.fail(f"{key}: {cell.status}, recorded pass")
    for key in expected:
        if key not in seen:
            result.attempted += 1
            result.fail(f"{key}: missing")


def run_verify_oracle(seed: int, expected: dict[str, str] | None = None):
    """Returns the JobResult and the report, so that record.py can store the
    cell statuses it gates on."""
    from verlinde_kit import verify

    if expected is None:
        with open(VERIFY_CELLS_FILE) as fh:
            expected = json.load(fh)
    result = JobResult()
    # Each (suite, prime) task of the pool is one item, timed by the CPU time
    # of the worker thread that runs it: its wall time would mostly measure
    # which other task held the interpreter lock meanwhile.  Its reference
    # loops, in thread CPU time too, also scale the job's wall time (see
    # JobResult.normalized_wall).  The wrappers are installed on the suite
    # table for this call only.
    originals = dict(verify._SUITE_FNS)

    def timed(fn):
        def call(p, cfg):
            with result.timed(time.thread_time):
                return fn(p, cfg)

        return call

    verify._SUITE_FNS.update({name: timed(fn) for name, fn in originals.items()})
    report = None
    try:
        report = verify.run_verify(
            verify.VerifyConfig(primes=VERIFY_PRIMES, max_dim=VERIFY_MAX_DIM, seed=seed)
        )
    except Exception as exc:  # a sweep that raises fails every recorded cell
        result.failures.append(f"run_verify raised {type(exc).__name__}: {exc}")
    finally:
        verify._SUITE_FNS.update(originals)
    cells = report.cells if report else []
    gate_verify_cells(cells, expected, result)
    lines = sorted(f"{verify_cell_key(c)}|{c.status}|{c.detail}" for c in cells)
    result.digest = _sha("\n".join(lines))
    return result, report


# -- cli_tables ---------------------------------------------------------------


class _HashSink(io.TextIOBase):
    """Write-only text stream that hashes what it is given and, if asked,
    keeps it."""

    def __init__(self, keep: bool = False):
        self._hash = hashlib.sha256()
        self._parts: list[str] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._hash.update(text.encode())
        if self._parts is not None:
            self._parts.append(text)
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def text(self) -> str:
        return "".join(self._parts or ())


def table_commands() -> list[list[str]]:
    """The fixed part of the command list, whose outputs are gated by the
    digests recorded in expected/cli_digests.json."""
    p = str(TABLE_P)
    cmds = []
    for m in range(1, TABLE_P):
        cmds.append(["sympow", "--p", p, "--m", str(m), "--format", "json"])
    for r in range(1, TABLE_P):
        cmds.append(["extpow", "--p", p, "--r", str(r), "--format", "json"])
    for m in range(2, TABLE_P):
        cmds.append(["invariants", "--p", p, "--m", str(m), "--format", "json"])
    for m in (3, 4):
        for parts in _alcove_weights(m, TABLE_P):
            cmds.append(["weyl", "--p", p, "--m", str(m), "--weight", ",".join(map(str, parts)), "--format", "json"])
    cmds.append(["fusion-table", "--p", str(FUSION_P), "--format", "json"])
    return cmds


def _alcove_weights(m: int, p: int) -> list[tuple[int, ...]]:
    """Every dominant SL_m weight l_1 >= ... >= l_{m-1} >= 0 with l_1 + m - 1 < p."""
    out = [()]
    for _ in range(m - 1):
        out = [w + (k,) for w in out for k in range(0, (w[-1] if w else p - m) + 1)]
    return out


def _quantum_coeffs(mults: tuple[int, ...], sign_by_parity: bool) -> dict:
    """Wire form of sum_r a_r [r]_z (or sum_r (-1)^(r-1) a_r [r]_z), computed
    here from the definition [r]_z = z^(r-1) + z^(r-3) + ... + z^(1-r)."""
    top = len(mults) - 1
    coeffs = [0] * (2 * top + 1)
    for r, a in enumerate(mults, start=1):
        if sign_by_parity and r % 2 == 0:
            a = -a
        for e in range(r - 1, -r, -2):
            coeffs[e + top] += a
    return {"offset": -top, "coeffs": coeffs}


def decompose_commands(seed: int) -> list[tuple[list[str], tuple[int, ...]]]:
    """Seeded decompose --explain commands at p = 61, with the object each
    one must return."""
    rng = random.Random(seed)
    out = []
    for _ in range(DECOMPOSE_COUNT):
        density = rng.uniform(0.05, 1.0)
        mults = tuple(rng.randint(1, 3) if rng.random() < density else 0 for _ in range(DECOMPOSE_P - 1))
        argv = [
            "decompose",
            "--p",
            str(DECOMPOSE_P),
            "--fpdim",
            json.dumps(_quantum_coeffs(mults, False)),
            "--sfpdim",
            json.dumps(_quantum_coeffs(mults, True)),
            "--explain",
            "--format",
            "json",
        ]
        out.append((argv, mults))
    return out


def call_cli(main, argv: list[str], keep: bool) -> tuple[int, _HashSink]:
    out, err = _HashSink(keep), _HashSink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out


def gate_decompose(code: int, text: str, mults: tuple[int, ...]) -> str | None:
    """None if the decompose output is the seeded object with consistent
    trace terms, else the reason it is not."""
    if code != 0:
        return f"exit {code}"
    payload = json.loads(text)
    if payload.get("p") != DECOMPOSE_P or tuple(payload.get("mults", ())) != mults:
        return f"returned {payload.get('mults')}"
    terms = payload.get("terms", [])
    if [t["multiplicity"] for t in terms] != list(mults):
        return "trace terms disagree with the multiplicities"
    if any(4 * t["multiplicity"] != t["alternating_sum"] for t in terms):
        return "a multiplicity is not a quarter of its alternating sum"
    return None


def run_cli_tables(seed: int) -> JobResult:
    from verlinde_kit import cli

    with open(CLI_DIGESTS_FILE) as fh:
        expected = json.load(fh)

    def digest_gate(key: str):
        def gate(code: int, out: _HashSink) -> str | None:
            got = [code, out.hexdigest()]
            return None if expected.get(key) == got else f"exit/digest {got} != recorded {expected.get(key)}"

        return gate

    def decompose_gate(mults: tuple[int, ...]):
        return lambda code, out: gate_decompose(code, out.text(), mults)

    # (label, argv, keep stdout, gate returning a failure reason or None)
    items = [(" ".join(argv), argv, False, digest_gate(" ".join(argv))) for argv in table_commands()]
    items += [(f"decompose {mults}", argv, True, decompose_gate(mults)) for argv, mults in decompose_commands(seed)]

    result = JobResult()
    lines = []
    for label, argv, keep, gate in items:
        result.attempted += 1
        try:
            with result.timed():
                code, out = call_cli(cli.main, argv, keep)
        except Exception as exc:  # an item that raises counts as failed
            result.fail(f"{label}: {type(exc).__name__}: {exc}")
            lines.append(f"{label}|raised")
            continue
        lines.append(f"{label}|{code}|{out.hexdigest()}")
        reason = gate(code, out)
        if reason:
            result.fail(f"{label}: {reason}")
    result.digest = _sha("\n".join(lines))
    return result


# -- objects ------------------------------------------------------------------


def object_stream(seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs (x, y) of effective objects at p = 31.  The density of each pair
    follows a fixed schedule from sparse (5% of simples present) to dense
    (60%), so that every seed sees the same mix; the seed picks which
    simples appear and with what multiplicity (1 or 2)."""
    rng = random.Random(seed)
    n = OBJECTS_P - 1

    def draw(density: float) -> tuple[int, ...]:
        mults = [rng.randint(1, 2) if rng.random() < density else 0 for _ in range(n)]
        if not any(mults):
            mults[rng.randrange(n)] = 1
        return tuple(mults)

    pairs = []
    for k in range(OBJECTS_REQUESTS):
        density = 0.05 + 0.55 * ((k * 0.6180339887) % 1.0)
        pairs.append((draw(density), draw(density)))
    return pairs


def run_objects(seed: int) -> JobResult:
    from verlinde_kit import (
        VerObj,
        adams2,
        character,
        decompose_from_dims,
        fpdim_rep,
        fuse,
        galois,
        sfpdim,
        sfpdim_rep,
        sfpdim_via_adams,
    )

    p = OBJECTS_P
    result = JobResult()
    lines = []
    for k, (xm, ym) in enumerate(object_stream(seed)):
        result.attempted += 1
        bad = []
        try:
            with result.timed():
                x, y = VerObj(p, xm), VerObj(p, ym)
                z = fuse(x, y)
                chars = []
                for j in (1, 2, p - 1):
                    cz = character(j, z)
                    chars.append(cz.coords)
                    if cz != character(j, x) * character(j, y):
                        bad.append(f"chi_{j}(x*y) != chi_{j}(x)*chi_{j}(y)")
                if character(2, z) != galois(character(p - 1, z), p - 2):
                    bad.append("chi_2 != galois(chi_{p-1}, p-2)")
                back = decompose_from_dims(fpdim_rep(z), sfpdim_rep(z), p)
                if back != z:
                    bad.append(f"round trip gave {back.mults}")
                extra = ""
                if k % 4 == 0:
                    extra = str(adams2(x).mults)
                    if sfpdim_via_adams(x) != sfpdim(x):
                        bad.append("sfpdim_via_adams != sfpdim")
        except Exception as exc:  # an item that raises counts as failed
            result.fail(f"request {k}: {type(exc).__name__}: {exc}")
            lines.append(f"{k}|raised")
            continue
        lines.append(f"{k}|{z.mults}|{chars}|{back.mults}|{extra}")
        if bad:
            result.fail(f"request {k}: " + "; ".join(bad))
    result.digest = _sha("\n".join(lines))
    return result


def run_job(workload: str, seed: int) -> JobResult:
    if workload == "verify_oracle":
        return run_verify_oracle(seed)[0]
    if workload == "cli_tables":
        return run_cli_tables(seed)
    if workload == "objects":
        return run_objects(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify_oracle", "cli_tables", "objects")
