#!/usr/bin/env python3
"""verlinde-kit benchmark.

    python3 perfbench/run.py --workload {verify_oracle,cli_tables,objects} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
Every job runs in a fresh interpreter (perfbench/job.py).

* --trace 0: repeats the workload's fixed job until about S seconds of job
  time are spent, with three set-up probes (interpreters that only import
  the package, each followed by a reference probe) before each job and
  after the last.  Reports the end-to-end metrics: median set-up time over
  the probes, median job time, item latency percentiles over the items of
  all jobs, median peak RSS.  Set-up, job and item times are at a reference
  speed (see REFERENCE_IMPORT_S here and workloads.py).
* --trace 1: pairs of an untraced and a traced job, interleaved in the
  order ABBA..., at least two pairs and until about S seconds are spent.
  Reports the per-layer metrics of the first traced job, and the tracing
  overhead: the median over pairs of the traced job's process CPU time
  over the untraced job's, minus 1.

Every job's outputs are gated (see workloads.py); a mismatch counts as a
failed item.  The last line of standard output is the result JSON; the full
record (metadata, raw samples, failures) goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
PROBES_PER_JOB = 3
TRACE_PAIRS = 2
JOB_TIMEOUT_S = 170

# The host's start-up speed drifts by up to 2x between minutes, in step for
# every interpreter that imports numpy; an interpreter that imports only
# standard-library modules does not follow it.  So each set-up probe is
# followed by a reference probe that only imports numpy, the package's one
# dependency and most of its import time, and setup_s is reported at the
# speed where the reference takes REFERENCE_IMPORT_S, about its median on
# the baseline host.  Import work the package adds or removes, numpy
# included, still shows in full.
REFERENCE_IMPORT = "import numpy, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
REFERENCE_IMPORT_S = 0.15

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("hit_ratio", "overhead_frac")):
        return "ratio"
    return "count"


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(root: str, workload: str, seed: int, trace: int, spans: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("VERLINDE_KIT_THREADS", None)  # the workload uses the default worker count
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    t0 = _monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=root, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} job exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # so that git does not search the directories above
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _reference_probe(root: str) -> float:
    """Seconds from launch until an interpreter that only imports numpy has
    imported it (see REFERENCE_IMPORT_S)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = _monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_IMPORT], cwd=root, env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"reference probe exited with code {proc.returncode}")
    return float(proc.stdout.split()[-1]) - t0


def _repeat(seconds: int, least: int, step) -> None:
    """Call step(), which returns the raw job seconds it spent, at least
    `least` times and until about `seconds` are spent."""
    spent: list[float] = []
    while len(spent) < least or sum(spent) + statistics.mean(spent) / 2 <= seconds:
        spent.append(step())


def run(root: str, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    _child(root, "setup", seed, 0)  # warm-up: byte-compiles the package on a fresh checkout
    _reference_probe(root)
    probes: list[dict] = []
    references: list[float] = []
    jobs: list[dict] = []
    pairs: list[tuple[dict, dict]] = []  # (untraced, traced)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")

    def probe(n: int) -> None:
        for _ in range(n):
            probes.append(_child(root, "setup", seed, 0))
            references.append(_reference_probe(root))

    def job() -> float:
        probe(PROBES_PER_JOB)
        jobs.append(_child(root, workload, seed, 0))
        return jobs[-1]["raw_wall_s"]

    def pair() -> float:
        # Untraced and traced jobs alternate in the order ABBA..., so that a
        # steady drift of the host's speed cancels over each two pairs.  The
        # first traced job writes the spans and gives the layer metrics.
        order = (0, 1) if len(pairs) % 2 == 0 else (1, 0)
        done = {t: _child(root, workload, seed, t, spans if t and not pairs else None) for t in order}
        pairs.append((done[0], done[1]))
        return done[0]["raw_wall_s"] + done[1]["raw_wall_s"]

    if trace:
        _repeat(seconds, TRACE_PAIRS, pair)
        jobs = [job for both in pairs for job in both]
    else:
        # Set-up probes go between the jobs, so that they sample the whole run.
        _repeat(seconds, 1, job)
        probe(PROBES_PER_JOB)

    digests = {j["digest"] for j in jobs}
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    correct = failed == 0 and len(digests) == 1
    if trace:
        layers = dict(pairs[0][1]["layers"])
        layers["trace.overhead_frac"] = statistics.median(traced["cpu_s"] / plain["cpu_s"] - 1.0 for plain, traced in pairs)
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in sorted(layers.items())}
    else:
        items = [ms for j in jobs for ms in j["item_ms"]]
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes)
            * REFERENCE_IMPORT_S
            / statistics.median(references),
            "wall_s": statistics.median(j["wall_s"] for j in jobs),
            "item_p50_ms": statistics.median(items),
            "item_p90_ms": statistics.quantiles(items, n=10)[8],
            "peak_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": jobs[0]["numpy"],
        "nproc": os.cpu_count(),
        "src_lines": _src_lines(root),
        "result": result,
        "item_samples": sum(len(j["item_ms"]) for j in jobs),
        "raw_setup_s": statistics.median(p["setup_s"] for p in probes) if probes else None,
        "samples": {
            "probes": probes,
            "reference_probes_s": references,
            "jobs": [{k: v for k, v in j.items() if k not in ("layers",)} for j in jobs],
        },
        "failures": [note for j in jobs for note in j["failures"]],
        "digests": sorted(digests),
    }
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "verlinde_kit", "__init__.py")):
        print(f"error: no package source at {root}/src/verlinde_kit; run from a checkout root", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result, record = run(root, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for note in record["failures"]:
        print(f"FAILED {note}")
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{record['item_samples']} items in {len(record['samples']['jobs'])} jobs; record: {os.path.relpath(path, root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
