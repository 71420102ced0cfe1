"""One fresh interpreter of the benchmark: import the package, run one job,
print one JSON line.

    python3 perfbench/job.py --workload objects --seed 1 --trace 0 --t0 <CLOCK_MONOTONIC>

--t0 is the monotonic clock read by the parent just before it started this
process, so setup_s covers interpreter start-up plus ``import verlinde_kit``.
Job and item times are scaled to the reference speed of
workloads.REFERENCE_LOOP_S.  Set-up time is printed raw: the import's speed
does not follow the reference loop's, and run.py scales it by a reference
probe instead.
--workload setup stops after the import.  With --trace 1 the layers are
wrapped by the span tracer and the spans are written to --spans.
"""
import sys
import time

import verlinde_kit  # noqa: E402  (first, so that setup_s ends here)

_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("setup",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", default=None, help="file for the spans of a traced run")
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(verlinde_kit.__file__).startswith(src + os.sep):
        print(f"verlinde_kit imported from {verlinde_kit.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {"setup_s": _IMPORTED - args.t0, "numpy": numpy.__version__}
    if args.workload != "setup":
        tracer = tracing.Tracer() if args.trace else None
        with tracer or contextlib.nullcontext():
            start, cpu_start = time.perf_counter(), time.process_time()
            result = workloads.run_job(args.workload, args.seed)
            raw_wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        # Job and item times are reported at the reference speed (see
        # workloads.py), with the raw times kept next to them.
        out.update(
            wall_s=result.normalized_wall(raw_wall),
            raw_wall_s=raw_wall,
            cpu_s=cpu,
            item_ms=result.normalized_ms(),
            raw_item_ms=[ms for ms, _, _ in result.samples],
            attempted=result.attempted,
            failed=result.failed,
            failures=result.failures,
            digest=result.digest,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        caches = tracing.cache_stats()
        out["caches"] = caches
        if tracer:
            out["layers"] = tracing.layer_metrics(tracer, caches)
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
