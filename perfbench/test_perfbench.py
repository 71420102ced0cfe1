"""Tests of the benchmark itself: its output gates catch corrupted outputs,
and tracing changes no output.

    PYTHONPATH=src python3 -m pytest perfbench -q

The jobs run here at reduced size (fewer commands, requests and primes).
"""
import threading

import pytest

import verlinde_kit
from verlinde_kit import VerObj, cli, laurent, powers
from verlinde_kit.verify import CellResult

import tracer as tracing
import workloads


@pytest.fixture
def small(monkeypatch):
    """Shrink every job: a slice of the fixed commands, a few seeded
    decompositions and requests, and a verify sweep at p = 3, 5."""
    full = workloads.table_commands()
    subset = full[:3] + full[18:20] + full[36:38] + [c for c in full if c[0] == "weyl"][::150]
    monkeypatch.setattr(workloads, "table_commands", lambda: subset)
    monkeypatch.setattr(workloads, "DECOMPOSE_COUNT", 3)
    monkeypatch.setattr(workloads, "OBJECTS_REQUESTS", 12)
    monkeypatch.setattr(workloads, "VERIFY_PRIMES", (3, 5))


def _traced(job):
    tr = tracing.Tracer()
    with tr:
        result = job()
    return result, tr


# -- tracing changes no output ------------------------------------------------


@pytest.mark.parametrize(
    "job",
    [
        lambda: workloads.run_cli_tables(5),
        lambda: workloads.run_objects(5),
        lambda: workloads.run_verify_oracle(5, expected={})[0],
    ],
    ids=["cli_tables", "objects", "verify_oracle"],
)
def test_traced_and_untraced_digests_match(small, job):
    plain = job()
    traced, tr = _traced(job)
    assert plain.digest == traced.digest
    assert plain.attempted == traced.attempted > 0
    assert tr.spans


def test_gates_pass_at_this_commit(small):
    assert workloads.run_cli_tables(11).failed == 0
    assert workloads.run_objects(11).failed == 0


# -- the gates catch corrupted outputs ----------------------------------------


def _bump_first(obj: VerObj) -> VerObj:
    return VerObj(obj.p, (obj.mults[0] + 1,) + obj.mults[1:])


def test_cli_gate_catches_corrupted_table(small, monkeypatch):
    real = cli.sym_power_simple
    monkeypatch.setattr(cli, "sym_power_simple", lambda i, m, p: _bump_first(real(i, m, p)))
    result = workloads.run_cli_tables(11)
    assert result.failed == 3  # the three sympow commands of the subset
    assert all("digest" in note for note in result.failures)


def test_cli_gate_catches_corrupted_decomposition(small, monkeypatch):
    real = cli.decompose_from_dims
    monkeypatch.setattr(cli, "decompose_from_dims", lambda *a, **k: _bump_first(real(*a, **k)))
    result = workloads.run_cli_tables(11)
    assert result.failed == workloads.DECOMPOSE_COUNT


def test_objects_gate_catches_corrupted_fusion(small, monkeypatch):
    real = verlinde_kit.fuse
    monkeypatch.setattr(verlinde_kit, "fuse", lambda x, y: real(x, y) + VerObj.unit(x.p))
    assert workloads.run_objects(11).failed == workloads.OBJECTS_REQUESTS


def test_objects_gate_catches_corrupted_round_trip(small, monkeypatch):
    real = verlinde_kit.decompose_from_dims
    monkeypatch.setattr(verlinde_kit, "decompose_from_dims", lambda *a, **k: _bump_first(real(*a, **k)))
    result = workloads.run_objects(11)
    assert result.failed == workloads.OBJECTS_REQUESTS
    assert "round trip" in result.failures[0]


def test_objects_gate_counts_raising_requests(small, monkeypatch):
    def broken(x):
        raise ArithmeticError("broken")

    monkeypatch.setattr(verlinde_kit, "sfpdim_via_adams", broken)
    result = workloads.run_objects(11)
    assert result.failed == len(range(0, workloads.OBJECTS_REQUESTS, 4))


def test_verify_gate():
    expected = {"sym/p=5/a": "pass", "sym/p=5/b": "skip", "sym/p=5/c": "pass", "sym/p=5/d": "pass"}
    cells = [
        CellResult("sym", 5, "a", "pass"),
        CellResult("sym", 5, "b", "pass"),  # skipped before, checked now: fine
        CellResult("sym", 5, "c", "skip"),  # checked before, skipped now: failure
        CellResult("sym", 5, "e", "pass"),  # extra cell: fine
        CellResult("sym", 5, "f", "fail", "x"),  # extra but failing: failure
    ]  # d is missing: failure
    result = workloads.JobResult()
    workloads.gate_verify_cells(cells, expected, result)
    assert result.attempted == 6
    assert result.failed == 3
    assert sorted(n.split(":")[0] for n in result.failures) == ["sym/p=5/c", "sym/p=5/d", "sym/p=5/f"]


def test_verify_gate_passes_at_this_commit():
    result, _ = workloads.run_verify_oracle(3)
    assert result.failed == 0
    assert result.attempted == 853
    assert len(result.samples) == 20  # ten suites at two primes


def test_decompose_inputs_are_the_dimension_characters():
    from verlinde_kit import fpdim_rep, sfpdim_rep
    from verlinde_kit.formats import laurent_from_json

    mults = (0, 2, 1, 0, 3, 1)
    assert laurent_from_json(workloads._quantum_coeffs(mults, False)) == fpdim_rep(VerObj(7, mults))
    assert laurent_from_json(workloads._quantum_coeffs(mults, True)) == sfpdim_rep(VerObj(7, mults))


# -- the tracer ---------------------------------------------------------------


def test_tracer_patches_every_namespace_and_restores():
    original = laurent.gauss_binom
    assert powers.gauss_binom is original
    powers.sym_power_simple.cache_clear()
    tr = tracing.Tracer()
    with tr:
        assert laurent.gauss_binom is powers.gauss_binom is verlinde_kit.gauss_binom
        assert laurent.gauss_binom is not original
        powers.sym_power_simple(3, 4, 11)
    assert laurent.gauss_binom is powers.gauss_binom is verlinde_kit.gauss_binom is original
    names = [span[1] for span in tr.spans]
    assert "laurent.gauss_binom" in names and "powers.decompose_terms" in names
    by_id = {span[0]: span for span in tr.spans}
    binom = next(s for s in tr.spans if s[1] == "laurent.gauss_binom")
    assert by_id[binom[4]][1] == "powers.sym_power_simple"


def test_tracer_records_worker_threads_under_the_open_span():
    tr = tracing.Tracer()
    with tr:

        def work():
            laurent.quantum_int(3)

        def outer():
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()

        outer_traced = tr._wrap("test.outer", outer)
        outer_traced()
    outer_span = next(s for s in tr.spans if s[1] == "test.outer")
    inner = next(s for s in tr.spans if s[1] == "laurent.quantum_int")
    assert inner[4] == outer_span[0]
    assert inner[5] != outer_span[5]


def test_self_time_subtracts_the_union_of_children():
    tr = tracing.Tracer()
    tr.spans[:] = [
        (1, "a", 0.0, 10.0, None, 1),
        (2, "b", 1.0, 5.0, 1, 1),
        (3, "c", 3.0, 7.0, 1, 2),  # overlaps b on another thread
        (4, "d", 2.0, 3.0, 2, 1),
    ]
    selfs = tr.self_times()
    assert selfs[1] == pytest.approx(4.0)  # 10 minus the union [1, 7]
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert tr.summary()["a"] == {"calls": 1, "self_s": pytest.approx(4.0)}


def test_layer_metrics_report_every_name():
    tr = tracing.Tracer()
    metrics = tracing.layer_metrics(tr, tracing.cache_stats())
    assert "jordan.jordan_type_of.self_s" in metrics
    assert "powers.multiset.entries" in metrics
    assert all(f"layer.{layer}.self_s" in metrics for layer in tracing.LAYERS)


def test_metric_names_match_benchmark_json():
    import json
    import os

    import run

    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    reported = set(tracing.layer_metrics(tracing.Tracer(), tracing.cache_stats())) | {"trace.overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_verify_gate_counts_a_raising_sweep(small, monkeypatch):
    from verlinde_kit import verify

    def broken(cfg=None):
        raise ValueError("broken")

    monkeypatch.setattr(verify, "run_verify", broken)
    expected = {"sym/p=5/a": "pass", "ext/p=5/b": "skip"}
    result, report = workloads.run_verify_oracle(1, expected=expected)
    assert report is None
    assert result.attempted == result.failed == 2
    assert "broken" in result.failures[0]


def test_times_are_scaled_to_the_reference_speed():
    ref = workloads.REFERENCE_LOOP_S
    result = workloads.JobResult(samples=[(10.0, 2 * ref, True), (30.0, ref, True)])
    assert result.normalized_ms() == pytest.approx([5.0, 30.0])
    # wall less the loops (two per item), scaled by 35 / 40
    assert result.normalized_wall(1.0) == pytest.approx((1.0 - 6 * ref) * 35 / 40)
    # worker-thread items scale the wall time too, but their loops overlap
    # other work and are not subtracted
    workers = workloads.JobResult(samples=[(10.0, 2 * ref, False)])
    assert workers.normalized_wall(1.0) == pytest.approx(0.5)
    assert workloads.JobResult().normalized_wall(1.0) == 1.0


def test_item_timer_brackets_the_item_with_reference_loops():
    result = workloads.JobResult()
    with result.timed():
        pass
    ((ms, ref, main),) = result.samples
    assert ms >= 0 and ref > 0 and main


def test_repeat_runs_at_least_the_minimum_and_until_the_time_is_spent():
    import run

    calls = []

    def step():
        calls.append(1)
        return 4.0

    run._repeat(9, 1, step)
    assert len(calls) == 2  # a third job would end at 12 s, more than half a job past 9 s
    calls.clear()
    run._repeat(1, 2, step)
    assert len(calls) == 2
