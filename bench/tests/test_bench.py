"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench/tests

Run from the repository root.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(1, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- the percentile rule ----------------------------------------------------------


def test_tail_needs_ten_samples_above_p90():
    # with interpolation, 92 distinct samples leave 10 above p90 and 91 leave 9
    assert stats.above(list(range(92)), stats.TAIL_Q) == stats.MIN_TAIL
    assert stats.above(list(range(91)), stats.TAIL_Q) == stats.MIN_TAIL - 1
    assert stats.above([1.0] * 200, stats.TAIL_Q) == 0   # ties: nothing lies above


def test_quantile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    values = [0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.5]
    for q in (0.0, 0.5, 0.9, 1.0):
        assert stats.quantile(values, q) == pytest.approx(float(np.quantile(values, q)))


def test_run_asks_for_enough_ops_to_cover_the_tail():
    assert run.MIN_OPS == 100
    assert stats.above(list(range(run.MIN_OPS)), stats.TAIL_Q) >= stats.MIN_TAIL


def test_loop_stops_before_its_time_unless_ops_are_missing():
    # rounds of 3 s: a fourth would end at 12 s, past the 10 s asked for
    assert not worker.loop_done(6.0, 10.0, 60, rounds=2, traced=False)
    assert worker.loop_done(9.0, 10.0, 60, rounds=3, traced=False)
    assert not worker.loop_done(9.0, 10.0, 60, rounds=3, traced=False, min_ops=100)
    assert worker.loop_done(9.0, 10.0, 60, rounds=3, traced=False, min_ops=100, cap=9.0)
    assert not worker.loop_done(0.0, 0.0, 0, rounds=0, traced=False)


# --- self time with nested spans ----------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_only_direct_children():
    clock = _Clock()
    tr = spans.Tracer(clock=clock)
    tr.enter("analysis.a")          # t=0
    clock.now = 1.0
    tr.enter("codes.b")             # t=1
    clock.now = 2.0
    tr.enter("hilbert.c")           # t=2
    clock.now = 2.5
    tr.exit()                       # c: 0.5
    clock.now = 3.0
    tr.exit()                       # b: 2.0, self 1.5
    clock.now = 4.0
    tr.enter("codes.b")
    clock.now = 5.0
    tr.exit(error=True)             # b again: 1.0
    clock.now = 10.0
    tr.exit()                       # a: 10.0, self 10 - 2 - 1 = 7
    assert tr.totals["analysis.a"] == [1, pytest.approx(7.0), 0]
    assert tr.totals["codes.b"] == [2, pytest.approx(2.5), 1]
    assert tr.totals["hilbert.c"] == [1, pytest.approx(0.5), 0]
    m = spans.layer_metrics(tr.totals, tr.counters, rounds=2)
    assert m["codes.self_s"] == pytest.approx(1.25)
    assert m["codes.errors"] == pytest.approx(0.5)
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(10.0 / 2)


def test_installed_tracer_nests_module_calls_and_restores():
    import qecdesk.analysis as analysis
    import qecdesk.codes as codes

    original = analysis.correctable_quantum
    _, space = codes.five_qubit()
    errors = analysis.weight_le_errors(5, 1)
    tr = spans.Tracer()
    tr.install()
    try:
        analysis.synthesize_decoder(space, errors)
    finally:
        tr.uninstall()
    assert analysis.correctable_quantum is original
    assert tr.totals["analysis.synthesize_decoder"][0] == 1
    assert tr.totals["analysis.correctable_quantum"][0] == 1
    assert tr.counters["analysis.kl_pairs"] == 16 * 16
    outer = tr.totals["analysis.synthesize_decoder"][1]
    inner = tr.totals["analysis.correctable_quantum"][1]
    assert 0 < outer and 0 < inner


# --- metric names ----------------------------------------------------------------------


def _layer_names():
    events = {"end": {"trace": {"rounds": 1, "totals": {}, "counters": {},
                                "cli": {"startup_s": 0.0, "out_bytes": 0}},
                      "timed": {"traced": [1, 1.0], "untraced": [1, 1.0]}}}
    return run.per_layer(events, [])


def test_metric_names_match_the_pattern_and_the_spec():
    spec = _spec()
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    produced = _layer_names()
    assert declared_layer == {name: run.layer_unit(name) for name in produced}
    for name in [*declared_e2e, *declared_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    assert not NAME.fullmatch("op s p50")
    gated = set(workloads.WORKLOADS) - set(workloads.UNGATED)
    assert {w["name"] for w in spec["workloads"]} == gated


# --- failures are counted --------------------------------------------------------------


def _five_fixture():
    import qecdesk.gf2_symplectic as gf2
    stab = gf2.StabilizerGeneratorSet.from_strings(list(workloads.CODES["five"]))
    return {("stab", "five"): stab}


def test_wrong_output_is_counted_in_fail_frac(monkeypatch):
    op = workloads.Op("min_distance[five]", "mindist_gf2", ("five", workloads.CODES["five"]))
    run_fn, check = workloads.KINDS["mindist_gf2"]
    fx = _five_fixture()
    assert worker.run_op(op, fx)[2] is None
    monkeypatch.setitem(workloads.KINDS, "mindist_gf2", (lambda o, f: run_fn(o, f) - 1, check))
    buf = io.StringIO()
    with redirect_stdout(buf):
        worker.emit({"event": "plan", "round_ops": 1})
        out = worker.run_loop([op], fx, seconds=0.0, trace=False, min_ops=run.MIN_OPS)
        worker.emit({"event": "end", "peak_rss_mib": 1.0, **out})
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    events, ops, attempted, failed = run.account(lines, 0)
    assert attempted == len(ops) >= 100 and failed == attempted
    assert "CheckFailed" in ops[0]["error"]
    metrics = run.end_to_end(events, ops, attempted, failed, [1.0], [1.0])
    assert metrics["ok_frac"] == 0.0


def test_crashed_worker_counts_the_rest_of_its_round():
    lines = [{"event": "plan", "round_ops": 5}, {"event": "setup", "setup_s": 1.0}]
    lines += [{"op": f"o{k}", "s": 0.1, "ok": True, "error": None, "traced": False}
              for k in range(7)]
    _, _, attempted, failed = run.account(lines, -9)
    assert (attempted, failed) == (10, 3)


def test_killed_worker_does_not_end_the_run():
    args = type("Args", (), {"workload": "sampling", "seed": 1, "trace": 0})
    lines, code = run.worker(args, 2.0, "--seconds", "30")
    events, ops, attempted, failed = run.account(lines, code)
    assert code is None and "end" not in events
    assert failed >= 1 and attempted == len(ops) + failed


# --- seeded generation and admission ----------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_plan_is_a_function_of_the_seed(name):
    assert workloads.plan(name, 7) == workloads.plan(name, 7)
    assert workloads.plan(name, 7) != workloads.plan(name, 8)


def test_admission_refuses_what_the_dense_backend_cannot_hold():
    workloads.admit_product(2 ** 7, 7, avail=8 << 30)
    with pytest.raises(ValueError, match="bytes"):
        workloads.admit_product(2 ** 10, 10, avail=8 << 30)   # bit flip^10: 16 GiB
    with pytest.raises(ValueError, match="MAX_KRAUS_OPS"):
        workloads.admit_product(5 ** 6, 6, avail=8 << 30)
    with pytest.raises(ValueError, match="MAX_TOTAL_DIM"):
        workloads.admit_product(1, 11, avail=1 << 60)


# --- the command outside a checkout -------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sampling",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
