"""Tests of the benchmark itself, at a tiny scale (k1 = 6, a few frames).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import inspect
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import flab  # noqa: E402
import flab.cli  # noqa: E402,F401
from tracing import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402
import worker  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import (  # noqa: E402
    Lemma3cWorkload,
    ReportWorkload,
    StreamWorkload,
    TriplesWorkload,
    WORKLOADS,
    _generator,
)

TINY = {
    "report": WORKLOADS["report-k6"],
    "triples": WORKLOADS["triples-wide-k6"],
    "stream": StreamWorkload("stream-k7", 7),
    "lemma3c": Lemma3cWorkload("lemma3c-4", "lemma3c", lambda s: {"trials": 4}),
}


def _op(wl, tmp_path, seed=3, expected=None, tracer=None, tag="op"):
    prepared = wl.prepare(seed, str(tmp_path))
    return run_op(wl, prepared, seed, str(tmp_path / tag), expected, tracer)


def _layer_functions():
    return {
        (layer, attr): value
        for layer in LAYERS
        for attr, value in vars(getattr(flab, layer)).items()
        if inspect.isfunction(value)
    }


def test_self_time_of_a_nested_call_tree():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["d", 2.0, 3.0, 1],
        ["c", 5.0, 6.5, 0],
        ["e", 11.0, 12.0, None],
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])


def test_layer_metrics_from_spans():
    tracer = Tracer("synthetic")
    tracer.spans = [
        ["cli.main", 0.0, 10.0, None, "r", False],
        ["incidence.auto_eta", 1.0, 2.0, 0, "r", True],
        ["incidence.auto_eta", 2.0, 3.0, 0, "r", False],
        ["incidence.extract_three_arcs", 3.0, 5.0, 0, "r", False],
        ["fractal.content_lower", 3.5, 4.0, 3, "r", False],
    ]
    m = layer_metrics(tracer, traced_wall=10.0)
    assert m["cli.main.s"] == 10.0 and m["cli.main.self_s"] == 6.0
    assert m["incidence.extract_three_arcs.self_s"] == 1.5
    assert m["incidence.auto_eta.calls"] == 2
    assert m["incidence.arcs_attempted"] == 2
    assert m["incidence.arc_success_ratio"] == 0.5
    assert m["trace.coverage"] == 1.0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_matches_untraced_and_restores(kind, tmp_path):
    wl = TINY[kind]
    before = _layer_functions()
    plain = _op(wl, tmp_path)
    tracer = Tracer(f"{kind}-test")
    traced = _op(wl, tmp_path, tracer=tracer, tag="traced")
    assert plain["error"] is None and traced["error"] is None
    assert traced["fingerprint"] == plain["fingerprint"]
    assert tracer.leftovers() == []
    assert _layer_functions() == before
    m = layer_metrics(tracer, traced["wall_s"])
    assert m["trace.coverage"] >= 0.95
    assert all(span[2] is not None for span in tracer.spans)
    if kind == "report":
        assert m["cli.cmd_triples.calls"] == 1 and m["generators.assemble_furstenberg.calls"] == 2
        assert m["fractal.content_lower.calls"] > 0 and m["incidence.annulus_incidences"] > 0
        assert m["fractal.save_csv.bytes"] > 0 and m["incidence.triples"] > 0
        assert m["incidence.arc_success_ratio"] > 0.9 and m["fractal.content_greedy.calls"] > 0
    if kind == "triples":
        assert m["incidence.auto_eta.calls"] == 0 and m["fractal.load_csv.calls"] == 0
        assert m["incidence.triples"] > 0 and m["incidence.build_triple_index.calls"] == 1
        assert m["incidence.arc_success_ratio"] > 0.9 and m["fractal.content_greedy.calls"] > 0
    if kind == "stream":
        top = [s for s in tracer.spans if s[3] is None]
        assert [s[0] for s in top] == ["incidence.box_counts_streaming"]
        nexts = [s for s in tracer.spans if s[0] == "generators.iter_furstenberg_points"]
        assert nexts and all(s[3] == tracer.spans.index(top[0]) for s in nexts)
        assert m["generators.iter_furstenberg_points.self_s"] > 0
        assert m["incidence.cells"] == sum(int(v) for v in plain["fingerprint"].values())
    if kind == "lemma3c":
        calls = m["geometry.w_region_sample_diameter.calls"]
        assert calls + m["geometry.w_region_diameter_within.calls"] == 4


def test_wrappers_restored_when_the_call_raises(tmp_path):
    before = _layer_functions()
    tracer = Tracer("raises")
    tracer.install()
    try:
        with pytest.raises(flab.EmptyInput):
            flab.incidence.box_count([], 3)
    finally:
        tracer.restore()
    assert tracer.leftovers() == [] and _layer_functions() == before
    assert tracer.spans[0][0] == "incidence.box_count" and tracer.spans[0][5] is True


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    coarse = ReportWorkload("coarse", "report", lambda s: {"generator": _generator(s, 5)})
    op = _op(coarse, tmp_path)
    assert op["error"] is not None and "exited with 3" in op["error"]


def test_wrong_digest_is_a_failed_operation(tmp_path):
    wl = TINY["lemma3c"]
    good = _op(wl, tmp_path, tag="a")
    assert good["error"] is None
    assert _op(wl, tmp_path, expected=good["fingerprint"], tag="b")["error"] is None
    tampered = {**good["fingerprint"], "lemma3c.csv": "0" * 64}
    assert "seed commit" in _op(wl, tmp_path, expected=tampered, tag="c")["error"]


class _CorruptArcCells(TriplesWorkload):
    """Rewrites one arc_cells.csv row after the call, before the check."""

    def run(self, prepared, seed, datadir):
        rc = super().run(prepared, seed, datadir)
        path = os.path.join(datadir, "arc_cells.csv")
        with open(path) as fh:
            lines = fh.readlines()
        lines[1] = "0,999,1,1\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        return rc


def test_corrupted_output_file_is_a_failed_operation(tmp_path):
    wl = _CorruptArcCells("corrupt", "triples", TINY["triples"]._config)
    op = _op(wl, tmp_path)
    assert op["error"] is not None and "arc_cells.csv gives" in op["error"]


def test_worker_repeats_the_call_until_its_seconds_are_spent(tmp_path, monkeypatch):
    tiny = Lemma3cWorkload("lemma3c-2", "lemma3c", lambda s: {"trials": 2})
    monkeypatch.setitem(worker.WORKLOADS, tiny.name, tiny)
    # A set-up probe is a fresh process, which knows only the real workloads.
    monkeypatch.setattr(worker, "probe_setup", lambda args: 0.5)
    for seconds in ("0", "4"):
        result = tmp_path / f"result-{seconds}.json"
        spawned_at = time.monotonic()
        assert worker.main(
            ["--workload", tiny.name, "--seed", "0", "--seconds", seconds,
             "--workdir", str(tmp_path), "--result", str(result),
             "--spawned-at", repr(spawned_at)]
        ) == 0
        elapsed = time.monotonic() - spawned_at
        with open(result) as fh:
            out = json.load(fh)
        ops = out["ops"]
        assert all(op["error"] is None for op in ops)
        assert len(out["reference"]) == len(ops) + 1 == len(out["setup_probes"]) + 1
        if seconds == "0":
            assert len(ops) == 1
        else:
            assert len(ops) > 1 and elapsed < 5


def test_setup_probe_is_a_fresh_process(tmp_path):
    args = worker.argparse.Namespace(workload="stream-k8", seed=0, workdir=str(tmp_path))
    start = time.monotonic()
    setup_s = worker.probe_setup(args)
    assert 0 < setup_s < time.monotonic() - start
    assert os.listdir(tmp_path) == []


def test_benchmark_json_declares_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} >= {"wall_rel", "cpu_rel", "peak_rss_mb", "setup_s"}


def test_result_line_holds_the_declared_metrics():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "stream-k8",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate 0" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-k6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
