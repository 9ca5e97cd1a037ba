"""Tests of the benchmark itself: its output checks, its tracer and its entry point.

    python3 -m pytest bench
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import types
from time import perf_counter

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

LIB = tracer.load_layers()


# -- output checks fire on one wrong answer -----------------------------------


def test_battery_check_rejects_one_changed_byte_and_a_passing_status():
    reference = workloads.battery_reference()
    assert workloads.check_battery(reference, 1, reference) is None
    changed = bytearray(reference)
    changed[100] ^= 1
    assert "at byte 100" in workloads.check_battery(bytes(changed), 1, reference)
    assert "exit status 0" in workloads.check_battery(reference, 0, reference)


def test_battery_job_counts_a_wrong_byte_as_a_failure():
    reference = workloads.battery_reference()
    changed = reference.replace(b'"passed":true', b'"passed":True', 1)

    def fake_main(output):
        def main(argv):
            sys.stdout.write(output.decode())
            return 1
        return types.SimpleNamespace(cli=types.SimpleNamespace(main=main))

    assert workloads.Battery().job(reference, fake_main(reference)).failed == 0
    assert workloads.Battery().job(reference, fake_main(changed)).failed == 1


def test_census_check_rejects_one_changed_count():
    counts = dict(workloads.CENSUS_EXPECTED)
    assert workloads.check_census(counts) is None
    counts["cagey"] += 1
    assert "cagey=79681" in workloads.check_census(counts)


def test_census_job_fails_on_another_universe():
    classes = LIB.partitions.enumerate_splitting_classes(3)
    job = workloads.Census().job(classes, LIB)
    assert job.failed == 1 and "census counts differ" in job.errors[0]


def test_whitehead_check_rejects_a_flipped_verdict_and_a_wrong_length():
    base = workloads.WHITEHEAD_BASES[0]
    assert workloads.check_whitehead(base, base.simple, base.min_length) is None
    assert workloads.check_whitehead(base, not base.simple, base.min_length) is not None
    assert workloads.check_whitehead(base, base.simple, base.min_length + 1) is not None


def test_whitehead_job_counts_every_flipped_verdict():
    queries = workloads.Whitehead().setup(7, LIB)
    sample = [q for q in queries if q.base.rank == 3][:4]
    assert workloads.Whitehead().job(sample, LIB).failed == 0
    flipped = types.SimpleNamespace(freegroup=types.SimpleNamespace(
        is_simple=lambda w: not LIB.freegroup.is_simple(w),
        whitehead_minimize=LIB.freegroup.whitehead_minimize))
    assert workloads.Whitehead().job(sample, flipped).failed == len(sample)


def test_whitehead_inputs_repeat_for_a_seed_and_fit_the_length_window():
    first = workloads.Whitehead().setup(3, LIB)
    again = workloads.Whitehead().setup(3, LIB)
    assert [q.word for q in first] == [q.word for q in again]
    assert len(first) >= 100
    assert all(len(q.word) == workloads.QUERY_LENGTH for q in first)


def test_best_parts_take_each_query_and_the_rest_at_their_minimum():
    import run

    jobs = [workloads.Job(0.010, 2, [3.0, 4.0]), workloads.Job(0.009, 2, [2.0, 5.0])]
    best = run.best_parts_ms(jobs)
    assert best[:2] == [2.0, 4.0]
    assert abs(best[2] - 2.0) < 1e-9  # the rest: 10 - 7 ms, then 9 - 7 ms


def test_timeout_interrupts_a_busy_operation():
    start = perf_counter()
    with pytest.raises(workloads.OperationTimeout):
        with workloads.time_limit(0.05):
            while True:
                pass
    assert perf_counter() - start < 1.0


# -- tracer ---------------------------------------------------------------------


def _bindings():
    return {layer: dict(vars(getattr(LIB, layer))) for layer in tracer.LAYERS}


def _traced_cli(t, argv):
    t.reset()
    buffer = io.StringIO()
    with t, contextlib.redirect_stdout(buffer):
        start = perf_counter()
        status = t.lib.cli.main(argv)
        wall = perf_counter() - start
    return status, buffer.getvalue(), wall


def test_tracer_restores_every_binding():
    before = _bindings()
    t = tracer.Tracer()
    with t:
        assert vars(LIB.verify)["partitions"] is t.lib.partitions
    after = _bindings()
    for layer in tracer.LAYERS:
        assert after[layer].keys() == before[layer].keys()
        assert all(after[layer][k] is before[layer][k] for k in before[layer])


def test_trace_counts_repeat_and_self_times_account_for_the_wall():
    t = tracer.Tracer()
    argv = ["verify", "clique-rank-3"]
    runs = []
    for _ in range(2):
        status, out, wall = _traced_cli(t, argv)
        assert status == 0 and '"passed": true' in out
        assert t.accounting_error(wall) is None
        runs.append(t.layer_metrics())
    counts = [{k: v for k, v in m.items() if tracer.is_count(k)} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] == 1
    assert counts[0]["complexes.cliques_found"] > 0
    assert counts[0]["blowup.blow_up.calls"] == counts[0]["complexes.cliques_found"]


def test_spans_are_recorded_only_across_layers():
    t = tracer.Tracer()
    t.reset()
    classes = LIB.partitions.enumerate_splitting_classes(3)
    with t:
        t.lib.partitions.classes_cagey(classes[-1], classes[-2])
    m = t.layer_metrics()
    # classes_cagey calls is_cagey, crosses and corner_sets inside the layer.
    assert m["partitions.calls"] == 1 and m["partitions.pair_calls"] == 1


# -- entry point and public names ----------------------------------------------


def test_declared_metrics_are_the_reported_ones():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    layers = {name: tracer.unit_of(name) for name in tracer.Tracer().layer_metrics()}
    layers.update(run.TRACE_EXTRA_UNITS)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers
    assert [w["name"] for w in declared["workloads"]] == list(workloads.DECLARED)
    assert set(workloads.DECLARED) < set(workloads.WORKLOADS)


def test_run_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "battery", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


#: Names that ROADMAP direction 5 deletes or that are private.
DELETED_OR_PRIVATE = ("limit=", "edge_kind", "freegroup.reduce", "cyclic_reduce",
                      "separated_pairs", "_exists_clique", "_wh_letter_maps",
                      "--workers", "FREESPLIT_WORKERS")


def test_benchmark_calls_no_deleted_or_private_name():
    me = os.path.basename(__file__)
    for name in os.listdir(BENCH):
        if not name.endswith(".py") or name == me:
            continue
        with open(os.path.join(BENCH, name), encoding="utf-8") as handle:
            source = handle.read()
        for banned in DELETED_OR_PRIVATE:
            assert banned not in source, "%s uses %s" % (name, banned)
        assert not re.search(r"\b(partitions|blowup|complexes|freegroup|verify|cli)\._", source)
    # The CLI's own --seed knob is going away too; the battery never passes it.
    assert workloads.BATTERY_ARGV == ["verify", "battery"]
