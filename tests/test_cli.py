import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flab import cli
from flab import fractal as fr
from flab import generators as gen
from flab import geometry as geo
from flab import incidence as inc
from flab.errors import DegenerateTriangle


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return cli.main([str(a) for a in args])


GEN_CFG = {"s": 1.0, "t": 1.0, "k1": 8, "preset": "concentric", "seed": 11}


REPORT_CFG = {"s": 1.0, "t": 1.0, "k1": 7, "preset": "concentric", "seed": 11}


@pytest.fixture(scope="module")
def gen_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("gen_run")
    cfg = write_json(base / "gen.json", GEN_CFG)
    out = base / "out"
    assert run(["gen", "--config", cfg, "--out", out]) == 0
    return base, out


class TestGen:
    def test_rerun_byte_identical(self, gen_run, tmp_path):
        base, out = gen_run
        cfg = str(base / "gen.json")
        out2 = tmp_path / "out2"
        assert run(["gen", "--config", cfg, "--out", out2]) == 0
        for name in ("cloud.csv", "v.csv", "summary.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_json_exit2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"s": 1.0,')
        assert run(["gen", "--config", bad, "--out", tmp_path / "o"]) == 2

    def test_unknown_field_exit2(self, tmp_path):
        cfg = write_json(tmp_path / "g.json", {**GEN_CFG, "extra": 1})
        assert run(["gen", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_delta_too_coarse_exit3(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "g.json", {**GEN_CFG, "k1": 3})
        assert run(["gen", "--config", cfg, "--out", tmp_path / "o"]) == 3

    def test_summary_config_block_with_cantor(self, tmp_path):
        config = {**GEN_CFG, "k1": 6, "cantor": {"m": 4, "pattern": [0, 3]}}
        cfg = write_json(tmp_path / "g.json", config)
        assert run(["gen", "--config", cfg, "--out", tmp_path / "o"]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert json.dumps(summary["config"]) == (
            '{"cantor": [4, [0, 3]], "k1": 6, "preset": "concentric", "s": 1.0, "seed": 11, '
            '"t": 1.0}'
        )

    # summary.json writes cantor as [m, pattern], but a config gives an object
    @pytest.mark.parametrize("cantor", [[4, [0, 3]], 5, {"m": 4, "pattern": 3}])
    def test_malformed_cantor_exit2_one_line(self, tmp_path, cantor):
        cfg = write_json(tmp_path / "g.json", {**GEN_CFG, "cantor": cantor})
        proc = run_python(["-m", "flab.cli", "gen", "--config", cfg, "--out", tmp_path / "o"])
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("config error: cantor")
        assert "unhashable" not in line and "not iterable" not in line

    def test_seed_override_changes_cloud(self, gen_run, tmp_path):
        base, out = gen_run
        cfg = str(base / "gen.json")
        out2 = tmp_path / "o2"
        assert run(["gen", "--config", cfg, "--seed", 999, "--out", out2]) == 0
        assert (out / "cloud.csv").read_bytes() != (out2 / "cloud.csv").read_bytes()
        assert (out / "v.csv").read_bytes() == (out2 / "v.csv").read_bytes()


# (command, config under a directory holding v.csv and cloud.csv), one per
# integer field; each value would truncate to a valid integer
NON_INTEGER_FIELDS = {
    "k1": ("gen", lambda d: {**GEN_CFG, "k1": 6.9}),
    "k1-string": ("gen", lambda d: {**GEN_CFG, "k1": "6"}),
    "seed": ("gen", lambda d: {**GEN_CFG, "seed": 2.5}),
    "seed-bool": ("gen", lambda d: {**GEN_CFG, "seed": True}),
    "cantor.m": ("gen", lambda d: {**GEN_CFG, "cantor": {"m": 4.0, "pattern": [0, 3]}}),
    "cantor.pattern": ("gen", lambda d: {**GEN_CFG, "cantor": {"m": 4, "pattern": [0, 2.5]}}),
    "grid_k": ("multiplicity", lambda d: {"v": str(d / "v.csv"), "grid_k": 6.7}),
    "trials": ("lemma3c", lambda d: {"trials": 2.9}),
    "lemma3c-seed": ("lemma3c", lambda d: {"trials": 3, "seed": True}),
    "k_range": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"), "k_range": [4, 5.5, 6]}),
}


@pytest.mark.parametrize("field", sorted(NON_INTEGER_FIELDS))
def test_non_integer_field_exit2(field, tmp_path):
    command, config = NON_INTEGER_FIELDS[field]
    fr.save_csv(fr.PointCloud(np.array([[0.0, 0.0, 1.0]]), 6), tmp_path / "v.csv")
    fr.save_csv(fr.PointCloud(np.array([[0.1, 0.2]]), 6), tmp_path / "cloud.csv")
    cfg = write_json(tmp_path / "c.json", config(tmp_path))
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert os.listdir(tmp_path / "o") == []


# (command, config under a directory holding v.csv and cloud.csv), one per
# float field; each value but the oversized integers would convert to a
# valid float, and those would raise OverflowError in float()
TRIPLES_CFG = {"generator": {**GEN_CFG, "k1": 6}, "s_prime": 1.0}
NON_NUMBER_FIELDS = {
    "s": ("gen", lambda d: {**GEN_CFG, "s": "1.0"}),
    "t": ("gen", lambda d: {**GEN_CFG, "t": True}),
    "s-oversized": ("gen", lambda d: {**GEN_CFG, "s": 10**400}),
    "s_prime": ("triples", lambda d: {**TRIPLES_CFG, "s_prime": "1.0"}),
    "boxdim-s": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"), "k_range": [4, 5, 6],
                                      "s": "1", "t": 1.0}),
    "boxdim-t": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"), "k_range": [4, 5, 6],
                                      "s": 1.0, "t": "1"}),
    "multiplicity-s_prime": ("multiplicity", lambda d: {"v": str(d / "v.csv"), "s_prime": "0.8"}),
    "t_prime": ("multiplicity", lambda d: {"v": str(d / "v.csv"), "t_prime": "0.5"}),
    "epsilon": ("multiplicity", lambda d: {"v": str(d / "v.csv"), "epsilon": True}),
    "c0": ("multiplicity", lambda d: {"v": str(d / "v.csv"), "c0": "4.0"}),
    "c0-oversized": ("multiplicity", lambda d: {"v": str(d / "v.csv"), "c0": 10**400}),
    "eta_rule-above-1": ("triples", lambda d: {**TRIPLES_CFG, "eta_rule": 1.5}),
    "eta_rule-negative": ("triples", lambda d: {**TRIPLES_CFG, "eta_rule": -0.2}),
    "eta_rule-zero": ("triples", lambda d: {**TRIPLES_CFG, "eta_rule": 0}),
    "eta_rule-nan": ("triples", lambda d: {**TRIPLES_CFG, "eta_rule": float("nan")}),
    "eta_rule-bool": ("triples", lambda d: {**TRIPLES_CFG, "eta_rule": True}),
    "eta_rule-string": ("triples", lambda d: {**TRIPLES_CFG, "eta_rule": "0.75"}),
    "eta_rule-name": ("triples", lambda d: {**TRIPLES_CFG, "eta_rule": "Auto"}),
    "report-eta_rule": ("report", lambda d: {"generator": GEN_CFG, "eta_rule": 2}),
}


@pytest.mark.parametrize("field", sorted(NON_NUMBER_FIELDS))
def test_non_number_field_exit2(field, tmp_path, monkeypatch):
    # triples and report check their fields before they build the set
    monkeypatch.setattr(gen, "assemble_furstenberg", mock.Mock(side_effect=AssertionError))
    command, config = NON_NUMBER_FIELDS[field]
    fr.save_csv(fr.PointCloud(np.array([[0.0, 0.0, 1.0]]), 6), tmp_path / "v.csv")
    fr.save_csv(fr.PointCloud(np.array([[0.1, 0.2], [0.7, 0.4]]), 6), tmp_path / "cloud.csv")
    cfg = write_json(tmp_path / "c.json", config(tmp_path))
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert os.listdir(tmp_path / "o") == []


# report checks the type and range of its later stages' fields before gen
# writes a file; s_prime 0.5 passes triples but not the multiplicity threshold
REPORT_STAGE_FIELDS = {
    "s_prime": ("s_prime", "0.9"),
    "s_prime-range": ("s_prime", 0.5),
    "t_prime": ("t_prime", True),
    "t_prime-range": ("t_prime", 5),
    "epsilon": ("epsilon", "0.1"),
    "epsilon-range": ("epsilon", 0),
    "grid_k": ("grid_k", 6.5),
    "k_range": ("k_range", [4, 5.5]),
    "k_range-empty": ("k_range", []),
}


@pytest.mark.parametrize("case", sorted(REPORT_STAGE_FIELDS))
def test_report_stage_field_exit2_before_writing(case, tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "assemble_furstenberg", mock.Mock(side_effect=AssertionError))
    field, value = REPORT_STAGE_FIELDS[case]
    config = {"generator": REPORT_CFG, field: value}
    cfg = write_json(tmp_path / "r.json", config)
    out = tmp_path / "o"
    assert run(["report", "--config", cfg, "--out", out]) == 2
    assert os.listdir(out) == []


# (command, config under a directory holding v.csv and cloud.csv), one per
# field range that the library would only find out after gen: a cell side
# 2^-grid_k that overflows a float, a negative finest box-count scale and one
# whose 2^k overflows a float
OUT_OF_RANGE_FIELDS = {
    "grid_k-overflow": ("multiplicity", lambda d: {"v": str(d / "v.csv"), "grid_k": -1024}),
    "report-grid_k-overflow": ("report", lambda d: {"generator": REPORT_CFG, "grid_k": -1024}),
    "k_range-negative": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"),
                                              "k_range": [-3, -2, -1]}),
    "report-k_range-negative": ("report", lambda d: {"generator": REPORT_CFG,
                                                     "k_range": [-3, -2, -1]}),
    "k_range-overflow": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"),
                                              "k_range": [1, 2, 2000]}),
    "report-k_range-overflow": ("report", lambda d: {"generator": REPORT_CFG,
                                                     "k_range": [1, 2, 2000]}),
}


@pytest.mark.parametrize("field", sorted(OUT_OF_RANGE_FIELDS))
def test_out_of_range_field_exit2(field, tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "assemble_furstenberg", mock.Mock(side_effect=AssertionError))
    command, config = OUT_OF_RANGE_FIELDS[field]
    fr.save_csv(fr.PointCloud(np.array([[0.0, 0.0, 1.0]]), 6), tmp_path / "v.csv")
    fr.save_csv(fr.PointCloud(np.array([[0.1, 0.2], [0.7, 0.4]]), 6), tmp_path / "cloud.csv")
    cfg = write_json(tmp_path / "c.json", config(tmp_path))
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert os.listdir(tmp_path / "o") == []


# the edges of those ranges still run: the largest cell side a float holds,
# and negative scales next to a finest scale of 0.  From grid_k = -513 on, a
# cell center lies ~1e154 or more from the annuli, and its square (at -1023
# a hypot too) overflows; the overflow gives the exact answer, 0 cells, and
# must not warn on stderr
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command,config",
    [("multiplicity", lambda d: {"v": str(d / "v.csv"), "grid_k": -1023}),
     ("multiplicity", lambda d: {"v": str(d / "v.csv"), "grid_k": -513}),
     ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"), "k_range": [-2, -1, 0]})],
    ids=["grid_k--1023", "grid_k--513", "k_range-finest-0"],
)
def test_range_edge_exit0(command, config, tmp_path):
    fr.save_csv(fr.PointCloud(np.array([[0.0, 0.0, 1.0]]), 6), tmp_path / "v.csv")
    fr.save_csv(fr.PointCloud(np.array([[0.1, 0.2], [0.7, 0.4]]), 6), tmp_path / "cloud.csv")
    cfg = write_json(tmp_path / "c.json", config(tmp_path))
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 0


# open() takes an int as a file descriptor; this one is not open
@pytest.mark.parametrize(
    "command,config",
    [("boxdim", {"cloud": 987654, "k_range": [3]}), ("multiplicity", {"v": 987654})],
    ids=["boxdim", "multiplicity"],
)
def test_non_string_path_exit2(command, config, tmp_path):
    cfg = write_json(tmp_path / "c.json", config)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2


def run_python(args):
    """Run python with `args` on this checkout's source; the finished process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


FINE_SCALE_LINE = ("invariant violation: cell index outside [-2^30, 2^30): scale too fine "
                   "for the coordinate range")


def test_report_scale_too_fine_exit3_before_writing(tmp_path):
    # k = 30 puts the cloud's cell indices past a 2-D key, which only the
    # built cloud shows (k = 29 passes at this config): report checks the
    # finest box-count scale before gen writes, and logs one line
    generator = {"s": 1, "t": 1, "k1": 6, "preset": "concentric", "seed": 0}
    cfg = write_json(tmp_path / "r.json", {"generator": generator, "k_range": [28, 29, 30]})
    out = tmp_path / "o"
    proc = run_python(["-m", "flab.cli", "report", "--config", cfg, "--out", out])
    assert proc.returncode == 3
    assert os.listdir(out) == []
    assert proc.stderr.splitlines() == [FINE_SCALE_LINE]


# A grid_k whose cells are too fine for a 2-D key is found from the annuli's
# extreme cells before any cell row is built (a unit annulus at grid_k 40
# would ask for 16 TiB of rows), however fine: past grid_k 1074 the cell side
# 2^-grid_k is 0.  report checks V before gen writes.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,grid_k", [("multiplicity", 40), ("multiplicity", 200),
                                            ("multiplicity", 1023), ("multiplicity", 1100),
                                            ("multiplicity", 10**20), ("report", 40)])
def test_grid_k_too_fine_exit3_before_rows(command, grid_k, tmp_path, monkeypatch):
    monkeypatch.setattr(inc, "_annulus_cells", mock.Mock(side_effect=AssertionError))
    fr.save_csv(fr.PointCloud(np.array([[0.0, 0.0, 1.0]]), 6), tmp_path / "v.csv")
    config = {"v": str(tmp_path / "v.csv")} if command == "multiplicity" else {
        "generator": REPORT_CFG}
    cfg = write_json(tmp_path / "c.json", {**config, "grid_k": grid_k})
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert os.listdir(tmp_path / "o") == []


@pytest.mark.parametrize("grid_k", [40, 200, 1023])
def test_grid_k_too_fine_one_stderr_line(grid_k, tmp_path):
    fr.save_csv(fr.PointCloud(np.array([[0.0, 0.0, 1.0]]), 6), tmp_path / "v.csv")
    cfg = write_json(tmp_path / "m.json", {"v": str(tmp_path / "v.csv"), "grid_k": grid_k})
    proc = run_python(["-m", "flab.cli", "multiplicity", "--config", cfg, "--out", tmp_path / "o"])
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [FINE_SCALE_LINE]


def test_memory_error_exit3_one_line(tmp_path):
    # a stub command stands in for an allocation numpy refuses
    stub = ("import sys; from flab import cli\n"
            "def refuse(config, seed, outdir):\n"
            "    raise MemoryError('Unable to allocate 4.06 GiB for an array')\n"
            "cli._COMMANDS['lemma3c'] = refuse\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    cfg = write_json(tmp_path / "l.json", {"trials": 1})
    proc = run_python(["-c", stub, "lemma3c", "--config", cfg, "--out", tmp_path / "o"])
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "invariant violation: Unable to allocate 4.06 GiB for an array"]


def test_gen_dispatches_to_cmd_gen():
    # the table holds the command itself, so a tracer that wraps cmd_gen sees gen
    assert cli._COMMANDS["gen"] is cli.cmd_gen


def test_library_error_exit3(tmp_path, monkeypatch):
    def collinear(*args, **kwargs):
        raise DegenerateTriangle("collinear frame")

    monkeypatch.setattr(geo.TriangleFrame, "create", collinear)
    cfg = write_json(tmp_path / "l.json", {"trials": 3})
    assert run(["lemma3c", "--config", cfg, "--out", tmp_path / "o"]) == 3


class TestBoxdim:
    def test_discrete_circle_slope(self, tmp_path):
        k = 9
        d = 2.0 ** (-k)
        th = np.arange(0.0, 2 * np.pi, d)
        cloud = fr.PointCloud(np.column_stack([np.cos(th), np.sin(th)]), k)
        fr.save_csv(cloud, tmp_path / "circle.csv")
        cfg = write_json(
            tmp_path / "bd.json",
            {"cloud": str(tmp_path / "circle.csv"), "k_range": list(range(4, 10))},
        )
        out = tmp_path / "out"
        assert run(["boxdim", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.9 <= summary["slope"] <= 1.1
        table = (out / "boxdim.csv").read_text().splitlines()
        assert table[0] == "k,N"
        assert len(table) == 7

    def test_generated_slope_vs_bound(self, gen_run, tmp_path):
        base, out = gen_run
        cfg = write_json(
            tmp_path / "bd.json",
            {
                "cloud": str(out / "cloud.csv"),
                "k_range": list(range(3, 9)),
                "s": 1.0,
                "t": 1.0,
            },
        )
        out2 = tmp_path / "bd_out"
        assert run(["boxdim", "--config", cfg, "--out", out2]) == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["bound"] == 2.0
        assert summary["slope"] >= 1.85

    def test_missing_cloud_exit4(self, tmp_path):
        cfg = write_json(
            tmp_path / "bd.json", {"cloud": str(tmp_path / "nope.csv"), "k_range": [4, 5, 6]}
        )
        assert run(["boxdim", "--config", cfg, "--out", tmp_path / "o"]) == 4

    def test_empty_cloud_exit3(self, tmp_path):
        fr.save_csv(fr.PointCloud(np.empty((0, 2)), 6), tmp_path / "empty.csv")
        cfg = write_json(
            tmp_path / "bd.json", {"cloud": str(tmp_path / "empty.csv"), "k_range": [4, 5, 6]}
        )
        assert run(["boxdim", "--config", cfg, "--out", tmp_path / "o"]) == 3

    def test_one_cell_beyond_key_range_exit3(self, tmp_path):
        # every point in the cell of index 2^31 at k = 31, one bit past a key
        fr.save_csv(fr.PointCloud(np.ones((3, 2)), 6), tmp_path / "ones.csv")
        cfg = write_json(
            tmp_path / "bd.json", {"cloud": str(tmp_path / "ones.csv"), "k_range": [29, 30, 31]}
        )
        assert run(["boxdim", "--config", cfg, "--out", tmp_path / "o"]) == 3
        assert not (tmp_path / "o" / "boxdim.csv").exists()

    def test_ragged_rows_exit2_one_line(self, tmp_path):
        # loadtxt's own message for a row of another width points a CLI user
        # at its `usecols` argument
        (tmp_path / "c.csv").write_text("dim,k\n2,6\n1,2\n3,4,5\n")
        config = {"cloud": str(tmp_path / "c.csv"), "k_range": [4, 5, 6]}
        cfg = write_json(tmp_path / "bd.json", config)
        proc = run_python(["-m", "flab.cli", "boxdim", "--config", cfg, "--out", tmp_path / "o"])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["config error: row arity does not match dim"]

    @pytest.mark.filterwarnings("error")
    def test_float_index_beyond_int64_exit3(self, tmp_path):
        # at k = 70 the float cell index passes int64; the range check runs
        # before the cast, so no cast warning reaches stderr
        fr.save_csv(fr.PointCloud(np.array([[0.1, 0.2], [0.7, 0.4]]), 6), tmp_path / "c.csv")
        config = {"cloud": str(tmp_path / "c.csv"), "k_range": [1, 2, 70]}
        cfg = write_json(tmp_path / "bd.json", config)
        assert run(["boxdim", "--config", cfg, "--out", tmp_path / "o"]) == 3
        assert not (tmp_path / "o" / "boxdim.csv").exists()


class TestLemma3c:
    def test_suite_reports_zero_violations(self, tmp_path):
        cfg = write_json(tmp_path / "l.json", {"trials": 40})
        out = tmp_path / "out"
        assert run(["lemma3c", "--config", cfg, "--seed", 7, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["bound_constant"] == 648.0
        rows = (out / "lemma3c.csv").read_text().splitlines()
        assert rows[0] == "trial,c,a,method,diam,ratio,violation"
        assert len(rows) == 41


class TestTriples:
    def test_tables_and_ratio(self, tmp_path):
        cfg = write_json(
            tmp_path / "t.json",
            {"generator": REPORT_CFG, "s_prime": 1.0, "eta_rule": "auto"},
        )
        out = tmp_path / "out"
        assert run(["triples", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == 0
        assert summary["n_triples"] > 0
        assert summary["ratio"] <= 1e4
        arcs = (out / "arcs.csv").read_text().splitlines()
        assert arcs[0] == "z_index,content_plus,content_minus,content_times,tau"
        assert len(arcs) == 1 + summary["n_circles"]

    def test_degenerate_exit5(self, tmp_path):
        # s'=0.5 at k1=6 is infeasible (eta floor exceeds 1): all circles fail
        cfg = write_json(
            tmp_path / "t.json",
            {
                "generator": {**REPORT_CFG, "k1": 6, "s": 0.5, "t": 0.5},
                "s_prime": 0.5,
                "eta_rule": "auto",
            },
        )
        assert run(["triples", "--config", cfg, "--out", tmp_path / "o"]) == 5


class TestMultiplicity:
    def test_field_outputs(self, gen_run, tmp_path):
        base, out = gen_run
        cfg = write_json(
            tmp_path / "m.json",
            {"v": str(out / "v.csv"), "s_prime": 0.8, "t_prime": 0.6, "epsilon": 0.1},
        )
        out2 = tmp_path / "m_out"
        assert run(["multiplicity", "--config", cfg, "--out", out2]) == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["fubini_incidences_exact"] is True
        assert summary["mass_integral"] == pytest.approx(
            summary["mass_integral_by_atoms"], rel=1e-12
        )
        header = (out2 / "cells_m.csv").read_text().splitlines()[0]
        assert header == "ix,iy,m"
        ratios = (out2 / "s2_ratios.csv").read_text().splitlines()
        assert ratios[0] == "z_index,s1_cells,s2_cells,ratio,threshold"

    def test_fubini_flag_sees_dropped_cells(self, gen_run, tmp_path, monkeypatch):
        # the recount must not share the branch ranges it checks: narrow them
        # to one cell per branch and the flag turns false
        base, out = gen_run
        cfg = write_json(tmp_path / "m.json", {"v": str(out / "v.csv")})
        padded = inc._branch_ranges
        monkeypatch.setattr(
            inc, "_branch_ranges", lambda *a: (lambda lo, hi: (lo, lo))(*padded(*a))
        )
        assert run(["multiplicity", "--config", cfg, "--out", tmp_path / "m_out"]) == 0
        summary = json.loads((tmp_path / "m_out" / "summary.json").read_text())
        assert summary["fubini_incidences_exact"] is False

    def test_fractional_s2_ratios(self, tmp_path):
        # five nearby unit circles: every annulus has cells on both sides of
        # the threshold, so each ratio lies strictly inside (0, 1)
        atoms = np.array([[0.0, 0.0, 1.0], [0.01, 0.0, 1.0], [0.02, 0.0, 1.0],
                          [0.0, 0.01, 1.0], [0.0, 0.0, 1.01]])
        fr.save_csv(fr.PointCloud(atoms, 6), tmp_path / "v.csv")
        cfg = write_json(tmp_path / "m.json", {"v": str(tmp_path / "v.csv"), "t_prime": 1.0,
                                               "epsilon": 0.1, "c0": 0.002})
        assert run(["multiplicity", "--config", cfg, "--out", tmp_path / "o"]) == 0
        threshold = inc.ThresholdParams.from_exponents(0.75, 1.0, 0.1, 6, c0=0.002).threshold
        # brute force over every cell of side delta in [-2, 2)^2: m adds the
        # covering atoms' weights in atom order, as the field does
        delta = 2.0 ** -6
        ix = np.arange(-128, 128)
        w = (np.stack(np.meshgrid(ix, ix), axis=-1).reshape(-1, 2) + 0.5) * delta
        mine = np.abs(np.hypot(w[:, :1] - atoms[:, 0], w[:, 1:] - atoms[:, 1]) - atoms[:, 2])
        mine = mine <= delta
        m = np.zeros(len(w))
        for j in range(len(atoms)):
            m = m + np.where(mine[:, j], 1.0 / 5.0 / 36.0, 0.0)
        lines = (tmp_path / "o" / "s2_ratios.csv").read_text().splitlines()
        assert lines[0] == "z_index,s1_cells,s2_cells,ratio,threshold"
        assert len(lines) == 1 + len(atoms)
        for i, line in enumerate(lines[1:]):
            s1, s2 = int(mine[:, i].sum()), int((mine[:, i] & (m < threshold)).sum())
            assert line == f"{i},{s1},{s2},{s2 / s1!r},{threshold!r}"
            assert 0.0 < s2 / s1 < 1.0

    @pytest.mark.parametrize("c0", [0, -1.0])
    def test_c0_not_positive_exit2(self, c0, tmp_path):
        fr.save_csv(fr.PointCloud(np.array([[0.0, 0.0, 1.0]]), 6), tmp_path / "v.csv")
        cfg = write_json(tmp_path / "m.json", {"v": str(tmp_path / "v.csv"), "c0": c0})
        assert run(["multiplicity", "--config", cfg, "--out", tmp_path / "o"]) == 2

    # the threshold parameters are checked before the field is built
    @pytest.mark.parametrize("field,value", [("s_prime", 0.5), ("t_prime", 5.0), ("epsilon", 0.0)])
    def test_threshold_rejected_before_field(self, field, value, tmp_path, monkeypatch):
        monkeypatch.setattr(inc, "multiplicity_field", mock.Mock(side_effect=AssertionError))
        fr.save_csv(fr.PointCloud(np.array([[0.0, 0.0, 1.0]]), 6), tmp_path / "v.csv")
        cfg = write_json(tmp_path / "m.json", {"v": str(tmp_path / "v.csv"), field: value})
        assert run(["multiplicity", "--config", cfg, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
    def test_cells_m_round_trips(self, uniform, tmp_path):
        rng = np.random.default_rng(3)
        atoms = np.column_stack([rng.uniform(0, 1, (40, 2)), rng.uniform(0.5, 1, 40)])
        weights = np.full(40, 1 / 40) if uniform else rng.uniform(0.5, 1.5, 40) / 60
        field = inc.multiplicity_field(fr.DiscreteMeasure(atoms, weights), 2.0 ** -5, 6)
        assert len(set(field.values.tolist())) > (1 if uniform else 40)
        cli.write_cells_m(tmp_path / "cells_m.csv", field)
        lines = (tmp_path / "cells_m.csv").read_text().splitlines()
        assert lines[0] == "ix,iy,m" and len(lines) == len(field.cells) + 1
        for line, (ix, iy), m in zip(lines[1:], field.cells.tolist(), field.values.tolist()):
            ix_text, iy_text, m_text = line.split(",")
            assert (int(ix_text), int(iy_text), float(m_text)) == (ix, iy, m)
            assert m_text == repr(m)


class TestReport:
    def test_end_to_end_deterministic_up_to_wall_times(self, tmp_path):
        cfg = write_json(
            tmp_path / "r.json",
            {"generator": REPORT_CFG, "k_range": [4, 5, 6, 7], "s_prime": 1.0},
        )
        o1, o2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["report", "--config", cfg, "--out", o1]) == 0
        assert run(["report", "--config", cfg, "--out", o2]) == 0
        for name in ("cloud.csv", "v.csv", "boxdim.csv", "arcs.csv", "triples.csv",
                     "cells_m.csv", "s2_ratios.csv", "lemma3c.csv"):
            p1, p2 = o1 / name, o2 / name
            if p1.exists():
                assert p1.read_bytes() == p2.read_bytes()
        s1 = json.loads((o1 / "summary.json").read_text())
        s2 = json.loads((o2 / "summary.json").read_text())
        s1["wall_times"] = s2["wall_times"] = None
        assert s1 == s2
        assert s1["command"] == "report"
        assert "slope" in s1["box_counts"]
        assert s1["gen"]["n_points"] > 0

    def test_matches_standalone_commands(self, tmp_path):
        rep = tmp_path / "report"
        cfg = write_json(tmp_path / "r.json", {"generator": REPORT_CFG})
        assert run(["report", "--config", cfg, "--out", rep]) == 0
        summary = json.loads((rep / "summary.json").read_text())
        s, t = summary["gen"]["realized_s"], summary["gen"]["realized_t"]
        standalone = {
            "boxdim": ("box_counts", {"cloud": str(rep / "cloud.csv"),
                                      "k_range": [2, 3, 4, 5, 6, 7], "s": s, "t": t}),
            "triples": ("triples", {"generator": REPORT_CFG, "s_prime": s}),
            "multiplicity": ("multiplicity", {"v": str(rep / "v.csv"),
                                              "s_prime": max(0.55, s), "t_prime": t}),
        }
        names = {"cloud.csv", "v.csv", "summary.json"}
        for command, (key, config) in standalone.items():
            out = tmp_path / command
            cfg = write_json(tmp_path / f"{command}.json", config)
            assert run([command, "--config", cfg, "--out", out]) == 0
            alone = json.loads((out / "summary.json").read_text())
            assert alone.pop("schema_version") == 1 and alone == summary[key]
            for path in out.iterdir():
                if path.name != "summary.json":
                    names.add(path.name)
                    assert path.read_bytes() == (rep / path.name).read_bytes(), path.name
        assert names == {p.name for p in rep.iterdir()}


def file_digests(datadir):
    """sha256 of each output file; summary.json is hashed without its
    `wall_times` block, as perfbench/workloads.py fingerprints a run."""
    out = {}
    for path in sorted(datadir.iterdir()):
        if path.name == "summary.json":
            summary = json.loads(path.read_text())
            summary.pop("wall_times", None)
            blob = json.dumps(summary, sort_keys=True).encode()
        else:
            blob = path.read_bytes()
        out[path.name] = hashlib.sha256(blob).hexdigest()
    return out


# sha256 of every output of the benchmark's workloads at seed 0, recorded
# from the seed commit
EXPECTED_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)
SEED_GEN = {"s": 1, "t": 1, "k1": 6, "preset": "concentric", "seed": 0}


# A rerun only shows that a writer agrees with itself; these digests also
# catch a change in how any value is formatted.
@pytest.mark.parametrize(
    "workload,command,config",
    [
        ("report-k6", "report", {"generator": SEED_GEN}),
        ("triples-wide-k6", "triples", {"generator": SEED_GEN, "s_prime": 1.0, "eta_rule": 0.75}),
        ("lemma3c-50", "lemma3c", {"trials": 50}),
    ],
)
def test_outputs_match_seed_commit(workload, command, config, tmp_path):
    cfg = write_json(tmp_path / "c.json", config)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--seed", 0, "--out", out]) == 0
    assert file_digests(out) == EXPECTED_DIGESTS[workload]["0"]


def test_boxdim_key_path_matches_set_count(tmp_path, monkeypatch):
    # at k 24..26 the grid of the k1 = 6 cloud would be ~2^56 cells, so
    # box_counts_streaming counts sorted keys; every N(2^-k) must equal a
    # plain-Python set count over the cloud.csv that gen wrote
    monkeypatch.setattr(inc, "_grid_counts", mock.Mock(side_effect=AssertionError))
    assert run(["gen", "--config", write_json(tmp_path / "g.json", SEED_GEN),
                "--out", tmp_path / "gen"]) == 0
    cloud = tmp_path / "gen" / "cloud.csv"
    cfg = write_json(tmp_path / "b.json", {"cloud": str(cloud), "k_range": [24, 25, 26]})
    assert run(["boxdim", "--config", cfg, "--out", tmp_path / "o"]) == 0
    pts = [tuple(map(float, line.split(","))) for line in cloud.read_text().splitlines()[2:]]
    rows = [tuple(map(int, line.split(",")))
            for line in (tmp_path / "o" / "boxdim.csv").read_text().splitlines()[1:]]
    assert rows == [(k, len({(math.floor(x * 2 ** k), math.floor(y * 2 ** k)) for x, y in pts}))
                    for k in (24, 25, 26)]


# k1 = 9, s' = 1, eta 1.0: arcs of 32 points, so the hull path runs inside
# the batched arc covers, the greedy loop makes 22k picks, and 33 of 512
# circles fail; every file keeps the sha256 that the one-arc-at-a-time scan wrote
TRIPLES_K9_DIGESTS = {
    "arc_cells.csv": "01ea93f1c5a97b863c85f813fc2070bc34449fad85f707caef69368c7f8969e3",
    "arcs.csv": "1d14786b4fef814a9fc1f329d4ce9a879341c549176bb95578d9d9841325d5e9",
    "summary.json": "27fe938b9fd0679e1d394e8bef2d2229ab5d04e7bef025bc70575bc6b91093b5",
    "triples.csv": "4a6d800080f5f5159cf46940b2e52c1f784ee34fb0216d06233663f44fdafffd",
}


def test_triples_k9_matches_recorded_digests(tmp_path):
    generator = {**SEED_GEN, "k1": 9}
    config = {"generator": generator, "s_prime": 1.0, "eta_rule": 1.0}
    cfg = write_json(tmp_path / "t.json", config)
    out = tmp_path / "o"
    assert run(["triples", "--config", cfg, "--out", out]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == TRIPLES_K9_DIGESTS


# s = s' = 0.5, k1 = 7, eta 1.0: 19 of the 128 circles fall short of eta, so
# triples exits 5 after arcs.csv, which keeps the sha256 that the one circle
# at a time content decision wrote; deciding those circles takes the ring
# gather and the exact counts, which no benchmark workload reaches
TRIPLES_HALF_K7_DIGESTS = {
    "arcs.csv": "06c75959644a281b66dd09dee9b642afb954db67e00e7d9dc97c88f7db85bafb",
}


def test_triples_half_k7_matches_recorded_digests(tmp_path):
    generator = {**SEED_GEN, "s": 0.5, "k1": 7}
    config = {"generator": generator, "s_prime": 0.5, "eta_rule": 1.0}
    cfg = write_json(tmp_path / "t.json", config)
    out = tmp_path / "o"
    with mock.patch.object(inc, "_windows_clear", wraps=inc._windows_clear) as gather:
        assert run(["triples", "--config", cfg, "--out", out]) == 5
    assert sum(call.args[2].size for call in gather.call_args_list) > 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == TRIPLES_HALF_K7_DIGESTS


# center-segment at s = 1, k1 = 7 drops 4,424 of its 51,456 circle points in
# deduplication, so cloud.csv is a gathered subset and the arc stage reads the
# undeduplicated points; every file keeps the sha256 of the concatenating assembly
CENTER_SEGMENT = {"s": 1, "t": 1, "k1": 7, "preset": "center-segment", "seed": 0}
CENTER_SEGMENT_DIGESTS = {
    "gen": {
        "cloud.csv": "96a50461ff7855bf30689a67c94857d24f68197d10faf37d23bcaa1c226a83cb",
        "summary.json": "f39786aa02223f01113200c110bcfe380161c1d68abe6cb55d4ecb329c7fc097",
        "v.csv": "efa3f8197c282df483526d285d2fa726a13349644fa5e445f83f01022b4934d9",
    },
    "triples": {
        "arc_cells.csv": "683c099ea0ef841330cf02bf153b1cf441dccb2d9f93cc43a4ebf0e8623030dc",
        "arcs.csv": "4171c1bae52e9b35fb2b54fe825e2b3e174a662c3ed840ad772da4da1552bdbe",
        "summary.json": "1465f0fbc23978b533dc6101783da3e81955639e86d4b11c0577f786125b9cab",
        "triples.csv": "e11b34ae9c9d43038613e4eab66f7299cde9943244e026af97c290fc8314f1e7",
    },
}


# center-segment at k1 = 8, s' = t' = 1, c0 0.002: the annuli overlap so much
# that the field has 56 distinct m over 132,628 cells and the mean |S2|/|S1| is
# 0.975; every file keeps the sha256 of the lexsorted, rank-searched field
CENTER_SEGMENT_K8_MULTIPLICITY_DIGESTS = {
    "cells_m.csv": "ba5181c50bfe33b1688a9d90dcae5d5aac6f7d1cc8548c51629e51707a9dd4b5",
    "s2_ratios.csv": "ddef34aa03ce2e80120b1da1727f49cefcd8ec30e926e1c2a6641d32d649b76c",
    "summary.json": "304d5ed6e2225d18a14eee9647e160a3055460e6998b44b6429874675d05ced9",
}


@pytest.mark.parametrize("command,config", [
    ("gen", CENTER_SEGMENT),
    ("triples", {"generator": CENTER_SEGMENT, "s_prime": 0.8}),
])
def test_center_segment_matches_recorded_digests(command, config, tmp_path):
    out = tmp_path / "o"
    assert run([command, "--config", write_json(tmp_path / "c.json", config), "--out", out]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == CENTER_SEGMENT_DIGESTS[command]


def test_center_segment_multiplicity_matches_recorded_digests(tmp_path):
    generator = write_json(tmp_path / "g.json", {**CENTER_SEGMENT, "k1": 8})
    assert run(["gen", "--config", generator, "--out", tmp_path / "g"]) == 0
    config = {"v": str(tmp_path / "g" / "v.csv"), "s_prime": 1, "t_prime": 1, "c0": 0.002}
    out = tmp_path / "o"
    assert run(["multiplicity", "--config", write_json(tmp_path / "m.json", config), "--out", out]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == CENTER_SEGMENT_K8_MULTIPLICITY_DIGESTS


def run_logged(args):
    """(exit code, the lines flab logs) of an in-process run, warnings as errors."""
    records = []
    handler = logging.Handler(logging.INFO)
    handler.emit = records.append
    logger = logging.getLogger("flab")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([str(a) for a in args])
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return code, [line for r in records for line in r.getMessage().splitlines()]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding a small v.csv (three circles) and cloud.csv at k = 6."""
    d = tmp_path_factory.mktemp("inputs")
    fr.save_csv(fr.PointCloud(np.array([[0.0, 0.0, 1.0], [0.01, 0.0, 1.0], [0.0, 0.02, 1.5]]), 6),
                d / "v.csv")
    fr.save_csv(fr.PointCloud(np.random.default_rng(0).uniform(-1, 1, (64, 2)), 6), d / "cloud.csv")
    return d


INTERNALS = ("not iterable", "unhashable", "NoneType", "object of type")

# (command, config under the inputs directory, extra arguments, the field the
# one error line must name, exit code); the unknown keys and the half s/t pairs
# exited 0 with the field ignored until the config tables rejected them
NAMED_FIELD_ERRORS = {
    "boxdim-k_range-int": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"), "k_range": 5},
                           [], "k_range", 2),
    "boxdim-k_range-string": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"),
                                                   "k_range": "456"}, [], "k_range", 2),
    "boxdim-k_range-object": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"),
                                                   "k_range": {"4": 1}}, [], "k_range", 2),
    "report-k_range-int": ("report", lambda d: {"generator": SEED_GEN, "k_range": 5},
                           [], "k_range", 2),
    "gen-seed": ("gen", lambda d: {**SEED_GEN, "seed": -1}, [], "seed", 2),
    "gen-seed-flag": ("gen", lambda d: SEED_GEN, ["--seed", -1], "seed", 2),
    "triples-seed-flag": ("triples", lambda d: {"generator": SEED_GEN, "s_prime": 1.0},
                          ["--seed", -1], "seed", 2),
    "lemma3c-seed": ("lemma3c", lambda d: {"trials": 1, "seed": -1}, [], "seed", 2),
    "lemma3c-seed-flag": ("lemma3c", lambda d: {"trials": 1}, ["--seed", -1], "seed", 2),
    "multiplicity-unknown": ("multiplicity", lambda d: {"v": str(d / "v.csv"), "gridk": 3},
                             [], "gridk", 2),
    "report-unknown": ("report", lambda d: {"generator": SEED_GEN, "s_prim": 0.2},
                       [], "s_prim", 2),
    "triples-unknown": ("triples", lambda d: {"generator": SEED_GEN, "s_prime": 1.0, "eta": 0.5},
                        [], "eta", 2),
    "lemma3c-unknown": ("lemma3c", lambda d: {"trails": 50}, [], "trails", 2),
    "report-generator-unknown": ("report", lambda d: {"generator": {**SEED_GEN, "k": 6}},
                                 [], "generator.k", 2),
    "boxdim-s-without-t": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"),
                                                "k_range": [4, 5, 6], "s": 1}, [], "t", 2),
    "boxdim-t-without-s": ("boxdim", lambda d: {"cloud": str(d / "cloud.csv"),
                                                "k_range": [4, 5, 6], "t": 1}, [], "s", 2),
    "triples-s_prime-missing": ("triples", lambda d: {"generator": SEED_GEN}, [], "s_prime", 2),
}


@pytest.mark.parametrize("case", sorted(NAMED_FIELD_ERRORS))
def test_config_error_names_its_field(case, inputs, tmp_path):
    command, config, extra, field, code = NAMED_FIELD_ERRORS[case]
    cfg = write_json(tmp_path / "c.json", config(inputs))
    out = tmp_path / "o"
    got, lines = run_logged([command, "--config", cfg, *extra, "--out", out])
    assert got == code
    (line,) = lines
    assert field in line and not any(text in line for text in INTERNALS), line
    assert os.listdir(out) == []


# past k1 = 1074 delta = 2^-k1 is 0, and 10**400 is no float at all
@pytest.mark.parametrize("k1", [1075, 10**400], ids=["1075", "10**400"])
def test_delta_too_fine_exit3_one_line(k1, tmp_path):
    cfg = write_json(tmp_path / "g.json", {**SEED_GEN, "k1": k1})
    out = tmp_path / "o"
    code, lines = run_logged(["gen", "--config", cfg, "--out", out])
    assert code == 3 and len(lines) == 1 and "k1" in lines[0]
    assert os.listdir(out) == []


# library ranges that raised past main: an infinite c0 makes lambda 0, which
# lambda^(-2t') divided by, and m^-level overflowed a float for m = 10**400
@pytest.mark.parametrize("command,config,code", [
    ("multiplicity", lambda d: {"v": str(d / "v.csv"), "c0": math.inf}, 2),
    ("gen", lambda d: {**SEED_GEN, "s": 0.5, "cantor": {"m": 10**400, "pattern": [0, 3]}}, 3),
], ids=["c0-infinite", "cantor-m-huge"])
def test_library_range_one_line(command, config, code, inputs, tmp_path):
    cfg = write_json(tmp_path / "c.json", config(inputs))
    out = tmp_path / "o"
    got, lines = run_logged([command, "--config", cfg, "--out", out])
    assert got == code and len(lines) == 1
    assert os.listdir(out) == []


# a slope needs 3 distinct scales: a k_range of fewer exits 3 (DegenerateFit)
# before anything is read or written
@pytest.mark.parametrize("command,k_range", [("boxdim", [4, 5]), ("boxdim", [5, 5, 5]),
                                             ("report", [5, 6])])
def test_too_few_scales_exit3_before_writing(command, k_range, inputs, tmp_path, monkeypatch):
    monkeypatch.setattr(fr, "load_csv", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr(gen, "assemble_furstenberg", mock.Mock(side_effect=AssertionError))
    source = {"cloud": str(inputs / "cloud.csv")} if command == "boxdim" else {
        "generator": SEED_GEN}
    cfg = write_json(tmp_path / "c.json", {**source, "k_range": k_range})
    out = tmp_path / "o"
    code, lines = run_logged([command, "--config", cfg, "--out", out])
    assert code == 3 and len(lines) == 1 and "k_range" in lines[0]
    assert os.listdir(out) == []


def test_readme_schema_row_names_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    for command, table in cli._TABLES.items():
        (row,) = [line for line in readme if line.startswith(f"| `{command}` |")]
        missing = [name for name in table if f"`{name}`" not in row]
        assert not missing, (command, missing)


# One mutation of a valid config per example: a value (a leaf or a whole
# object) swapped for one of FUZZ_VALUES, a key dropped, or an unknown key added.
# No draw is large: the bases sit at k1 = 6 and grid_k = 6, a k1 or grid_k of
# 10**400 fails its range check at once, and 10**400 is not drawn for trials,
# which nothing bounds yet (lemma3c would run without end).
FUZZ_VALUES = [math.nan, math.inf, -math.inf, 10**400, -1, 0, True, "x", [1], None, {}]
FUZZ_BASES = {
    "gen": lambda d: {**SEED_GEN, "s": 0.5, "cantor": {"m": 4, "pattern": [0, 3]}},
    "boxdim": lambda d: {"cloud": str(d / "cloud.csv"), "k_range": [4, 5, 6], "s": 1, "t": 1},
    "lemma3c": lambda d: {"trials": 2, "seed": 0},
    "triples": lambda d: {"generator": SEED_GEN, "s_prime": 1.0, "eta_rule": "auto"},
    "multiplicity": lambda d: {"v": str(d / "v.csv"), "grid_k": 6, "s_prime": 0.75,
                               "t_prime": 0.5, "epsilon": 0.1, "c0": 14.5},
    "report": lambda d: {"generator": SEED_GEN, "k_range": [4, 5, 6], "s_prime": 1.0,
                         "t_prime": 1.0, "epsilon": 0.1, "grid_k": 6, "eta_rule": "auto",
                         "c0": 1.0},
}


def paths(node, path=()):
    """The path of every value below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from paths(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_one_mutation_keeps_exit_code_contract(command, data, inputs):
    config = json.loads(json.dumps(FUZZ_BASES[command](inputs)))
    action = data.draw(st.sampled_from(["swap", "drop", "add"]))
    if action == "add":
        objects = [()] + [p for p in paths(config) if isinstance(_at(config, p), dict)]
        path, value = data.draw(st.sampled_from(objects)) + ("zzz",), 1
    else:
        path = data.draw(st.sampled_from(list(paths(config))))
        value = data.draw(st.sampled_from(
            [v for v in FUZZ_VALUES if not (path[-1] == "trials" and v == 10**400)]))
    parent = _at(config, path[:-1])
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as d:
        cfg = os.path.join(d, "c.json")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(d, "o")
        code, lines = run_logged([command, "--config", cfg, "--out", out])
        assert code in {0, 2, 3, 4, 5}
        assert not any(text in line for line in lines for text in INTERNALS), lines
        if code == 2:
            assert os.listdir(out) == [] and len(lines) == 1, lines

