"""Deterministic command-line orchestration.

``flab gen|boxdim|lemma3c|triples|multiplicity|report --config <path>
[--seed <u64>] --out <dir>``

All logs go to stderr; all data go to files under --out.  Every command
writes a machine-readable summary.json (schema_version 1).  `report` builds
the set once and hands it to the boxdim, triples and multiplicity stages in
memory, so it writes each file once and reads none back.  Run alone, boxdim
and multiplicity read their input from a CSV file and triples builds its set
from a generator config; the stage code is the same.  Re-running a
command with identical inputs and seed reproduces the data files byte for
byte; the only exception is the wall_times block of `report`.

Exit codes: 0 success, 2 config parse/shape error (a non-integer integer
field or a non-number float field included, as are a `k_range` whose finest
scale is negative or above 1023 and a `grid_k` below -1023, whose scale 2^k
or cell side overflows a float; every command, and `report` for every stage,
checks its fields before it writes, so --out stays empty),
3 invariant violation or any other library error, 4 missing input file,
5 experiment degeneracy.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import fractal as fr
from . import generators as gen
from . import geometry as geo
from . import incidence as inc
from .errors import ConfigInvalid, EmptyInput, FlabError, InsufficientContent

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4
EXIT_DEGENERATE = 5

log = logging.getLogger("flab")


class DegenerateExperiment(FlabError):
    """Raised when an experiment degenerates (e.g. > 10% arc failures)."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValueError(f"config is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


def _write_summary(outdir: str, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(os.path.join(outdir, "summary.json"), "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _generator_config(data, seed_override) -> gen.FurstenbergConfig:
    if not isinstance(data, dict):
        raise ValueError("config needs a `generator` object")
    if seed_override is not None:
        data = {**data, "seed": int(seed_override)}
    return gen.FurstenbergConfig.from_json_dict(data)


def _path(config: dict, name: str, command: str) -> str:
    """config[name] when it is a nonempty string, else ValueError."""
    if not (config.get(name) and isinstance(config[name], str)):
        raise ValueError(f"{command} config needs a `{name}` path")
    return config[name]


def cmd_gen(config: dict, seed, outdir: str, fset: gen.DiscretizedFurstenbergSet = None):
    """Write v.csv and cloud.csv of `fset`, or of the set `config` builds."""
    if fset is None:
        fset = gen.assemble_furstenberg(_generator_config(config, seed))
    cfg = fset.config
    fr.save_csv(fset.v.cloud, os.path.join(outdir, "v.csv"))
    fr.save_csv(fset.cloud, os.path.join(outdir, "cloud.csv"))
    log.info(
        "gen: %d circles, %d cloud points (realized s=%.4f t=%.4f)",
        len(fset.circles),
        len(fset.cloud),
        cfg.realized_s,
        cfg.realized_t,
    )
    return fset, {
        "command": "gen",
        "config": {
            "s": cfg.s,
            "t": cfg.t,
            "k1": cfg.k1,
            "preset": cfg.preset,
            "seed": cfg.seed,
            "cantor": list(cfg.cantor) if cfg.cantor else None,
        },
        "realized_s": cfg.realized_s,
        "realized_t": cfg.realized_t,
        "n_circles": len(fset.circles),
        "n_points": len(fset.cloud),
        "conc_measured": fset.v.conc_measured,
    }


def _boxdim_fields(config: dict):
    """(k_range, s, t) of a boxdim config; s and t are None unless both are given."""
    if not config.get("k_range"):
        raise ValueError("boxdim config needs `k_range`")
    k_range = [gen._json_int(k, "k_range entry") for k in config["k_range"]]
    if not 0 <= max(k_range) <= 1023:  # 2^k overflows a float above 1023
        raise ValueError(f"k_range needs a finest scale in [0, 1023], got {max(k_range)}")
    if "s" in config and "t" in config:
        return k_range, gen._json_number(config["s"], "s"), gen._json_number(config["t"], "t")
    return k_range, None, None


def cmd_boxdim(config: dict, seed, outdir: str, cloud: fr.PointCloud = None) -> dict:
    """Box counts of `cloud`; without one, of the file config["cloud"]."""
    k_range, s, t = _boxdim_fields(config)
    if cloud is None:
        cloud = fr.load_csv(_path(config, "cloud", "boxdim"))
    if len(cloud) == 0:
        raise EmptyInput("cloud file has no points")
    counts = inc.box_counts_streaming([cloud.points], k_range)
    pairs = sorted(counts.items())
    fr.write_csv(os.path.join(outdir, "boxdim.csv"), "k,N", zip(*pairs))
    slope = inc.dimension_slope(pairs)
    out = {"command": "boxdim", "counts": {str(k): n for k, n in pairs}, "slope": slope}
    if s is not None:
        bound = max(t / 3.0 + s, (2.0 * s - 1.0) * t + s)
        out["bound"] = bound
        out["slope_minus_bound"] = slope - bound
        log.info("boxdim: slope %.4f vs bound %.4f", slope, bound)
    else:
        log.info("boxdim: slope %.4f", slope)
    return out


def _random_frame(rng, c):
    while True:
        P = rng.uniform(-1.0, 1.0, (3, 2))
        dmin = min(
            math.hypot(*(P[0] - P[1])),
            math.hypot(*(P[0] - P[2])),
            math.hypot(*(P[1] - P[2])),
        )
        if dmin >= 2.0 * c:
            return P


def cmd_lemma3c(config: dict, seed, outdir: str) -> dict:
    trials = gen._json_int(config.get("trials", 0), "trials")
    if trials < 1:
        raise ValueError("lemma3c config needs `trials` >= 1")
    if seed is None:
        seed = gen._json_int(config.get("seed", 0), "seed")
    rng = np.random.default_rng(seed)
    rows = []
    max_ratio = 0.0
    enumerated = 0
    for i in range(trials):
        c = rng.uniform(0.05, 0.5)
        P = _random_frame(rng, c)
        u = rng.random()
        a = c * c / 20.0 * (u if 0.0 < u < 1.0 else 0.5)
        frame = geo.TriangleFrame.create(P[0], P[1], P[2], c)
        bound = 2.0 * geo.THREE_CIRCLE_K * a / (c * c)
        if bound <= 10.0:
            diam = geo.w_region_sample_diameter(frame, a, a / 10.0)
            ok = diam <= bound
            ratio = diam / (a / (c * c))
            max_ratio = max(max_ratio, ratio)
            enumerated += 1
            rows.append((i, c, a, "exact", diam, ratio, int(not ok)))
        else:
            ok = geo.w_region_diameter_within(frame, a, a / 10.0, bound)
            rows.append((i, c, a, "certified", math.nan, math.nan, int(not ok)))
    violations = sum(row[-1] for row in rows)
    fr.write_csv(
        os.path.join(outdir, "lemma3c.csv"),
        "trial,c,a,method,diam,ratio,violation",
        zip(*rows),
    )
    log.info(
        "lemma3c: %d trials, max ratio diam/(a/c^2) = %.4f over %d enumerated, "
        "violations vs %.0f*a/c^2: %d",
        trials,
        max_ratio,
        enumerated,
        2 * geo.THREE_CIRCLE_K,
        violations,
    )
    return {
        "command": "lemma3c",
        "trials": trials,
        "max_ratio": max_ratio,
        "enumerated": enumerated,
        "violations": violations,
        "bound_constant": 2.0 * geo.THREE_CIRCLE_K,
    }


def _triples_fields(config: dict):
    """(s_prime, eta_rule) of a triples config; eta_rule is "auto", "paper" or a
    number in (0, 1]."""
    s_prime = gen._json_number(config.get("s_prime", 0.0), "s_prime")
    if not (0.0 < s_prime <= 1.0):
        raise ValueError("triples config needs s_prime in (0, 1]")
    rule = config.get("eta_rule", "auto")
    if rule not in ("auto", "paper") and not 0.0 < gen._json_number(rule, "eta_rule") <= 1.0:
        raise ValueError(f"eta_rule must lie in (0, 1], got {rule!r}")
    return s_prime, rule


def _arc_data(fset: gen.DiscretizedFurstenbergSet, s_prime: float, eta_rule):
    """(ArcTriple, or None where the circle fails, circle points) per circle;
    every circle's arcs are scanned in lockstep (incidence.scan_circles)."""
    k1, delta = fset.config.k1, fset.config.delta
    circles = [(z, gen._circle_points(z, angles)) for z, angles in zip(fset.circles, fset.angular)]
    try:
        if eta_rule == "auto":
            eta = inc.auto_eta(s_prime, delta, k1)
        elif eta_rule == "paper":
            eta = 1.0 / (k1 * k1)
        else:
            eta = float(eta_rule)
    except InsufficientContent:
        return [(None, pts) for _, pts in circles]
    triples = inc.scan_circles(circles, s_prime, eta, delta=delta)
    return [(None if isinstance(t, InsufficientContent) else t, pts)
            for t, (_, pts) in zip(triples, circles)]


def cmd_triples(
    config: dict, seed, outdir: str, fset: gen.DiscretizedFurstenbergSet = None
) -> dict:
    """Arc triples of `fset`; without one, of the set config["generator"] builds."""
    s_prime, eta_rule = _triples_fields(config)
    if fset is None:
        fset = gen.assemble_furstenberg(_generator_config(config.get("generator"), seed))
    cfg = fset.config
    data = _arc_data(fset, s_prime, eta_rule)
    fr.write_csv(
        os.path.join(outdir, "arcs.csv"),
        "z_index,content_plus,content_minus,content_times,tau",
        zip(*[(i, *[math.nan] * 4) if t is None else (i, *t.contents, t.tau)
              for i, (t, _) in enumerate(data)]),
    )
    n = len(data)
    failures = sum(t is None for t, _ in data)
    if failures > 0.1 * n:
        raise DegenerateExperiment(
            f"arc extraction failed on {failures}/{n} circles (> 10%)"
        )
    n_cells = inc.box_counts_streaming([fset.cloud.points], [cfg.k1])[cfg.k1]
    t_index = inc.build_triple_index(data, cfg.k1)
    cover_counts = t_index.counts
    reference = inc.step4_reference_count(s_prime, cfg.k1)
    fr.write_csv(
        os.path.join(outdir, "arc_cells.csv"),
        "z_index,n_plus,n_minus,n_times",
        (range(len(cover_counts)), *cover_counts.T),
    )
    nonempty = cover_counts[cover_counts.sum(axis=1) > 0]
    taus = [t.tau for t, _ in data if t is not None]
    tau = min(taus) if taus else float("nan")
    ratio = inc.triple_upper_ratio(t_index, n_cells, tau) if taus else float("nan")
    fr.write_csv(
        os.path.join(outdir, "triples.csv"),
        "k1,n_cells,n_triples,tau,ratio",
        [[cfg.k1], [n_cells], [t_index.count], [tau], [ratio]],
    )
    log.info(
        "triples: #T=%d cells=%d tau=%.3g ratio=%.3g failures=%d/%d",
        t_index.count,
        n_cells,
        tau,
        ratio,
        failures,
        n,
    )
    return {
        "command": "triples",
        "n_circles": n,
        "failures": failures,
        "n_cells": n_cells,
        "n_triples": t_index.count,
        "tau": tau,
        "ratio": ratio,
        "per_arc_reference": reference,
        "min_arc_cells": int(nonempty.min()) if nonempty.size else 0,
    }


def write_cells_m(path, field: inc.MultiplicityField) -> None:
    """cells_m.csv; each distinct m, told apart by its bit pattern, is formatted once."""
    bits = field.values.view(np.int64)
    uniq, starts, order = fr._unique_runs(bits)
    text = np.array([repr(m) for m in field.values[order[starts]].tolist()], dtype=object)
    fr.write_csv(path, "ix,iy,m", (*field.cells.T, text[np.searchsorted(uniq, bits)]))


def _multiplicity_fields(config: dict, k1: int):
    """(grid_k, ThresholdParams at scale k1) of a multiplicity config."""
    grid_k = gen._json_int(config.get("grid_k", k1), "grid_k")
    if grid_k < -1023:  # the cell side 2^-grid_k would overflow a float
        raise ValueError(f"grid_k must be >= -1023, got {grid_k}")
    s_prime = gen._json_number(config.get("s_prime", 0.75), "s_prime")
    t_prime = gen._json_number(config.get("t_prime", 0.5), "t_prime")
    epsilon = gen._json_number(config.get("epsilon", 0.1), "epsilon")
    c0 = gen._json_number(config.get("c0", inc.C0_DEFAULT), "c0")
    return grid_k, inc.ThresholdParams.from_exponents(s_prime, t_prime, epsilon, k1, c0=c0)


def cmd_multiplicity(config: dict, seed, outdir: str, v: fr.PointCloud = None) -> dict:
    """Multiplicity field of the circle family `v`; without one, of the file
    config["v"]."""
    if v is None:
        v = fr.load_csv(_path(config, "v", "multiplicity"))
    if len(v) == 0:
        raise EmptyInput("parameter file has no circles")
    if v.dim != 3:
        raise ConfigInvalid("v must be a 3-column (center, radius) cloud")
    k1 = v.k
    grid_k, params = _multiplicity_fields(config, k1)
    delta = 2.0 ** (-k1)
    mu = fr.frostman_measure(v).scaled(1.0 / (k1 * k1))
    field = inc.multiplicity_field(mu, delta, grid_k)
    write_cells_m(os.path.join(outdir, "cells_m.csv"), field)
    s1 = field.per_atom_counts
    s2 = inc.low_multiplicity_subset(field, params.threshold)
    ratios = np.divide(s2, s1, out=np.zeros(len(v)), where=s1 > 0)
    fr.write_csv(
        os.path.join(outdir, "s2_ratios.csv"),
        "z_index,s1_cells,s2_cells,ratio,threshold",
        (range(len(v)), s1, s2, ratios, [params.threshold] * len(v)),
    )
    lhs = math.fsum(field.values.tolist())
    rhs = math.fsum((mu.weights * field.per_atom_counts).tolist())
    # recount the first, middle and last atom's cells without pruning
    fubini_exact = all(
        inc.annulus_cell_count(v.points[i], delta, 2.0 ** (-grid_k)) == field.per_atom_counts[i]
        for i in sorted({0, len(v) // 2, len(v) - 1})
    )
    log.info(
        "multiplicity: %d cells, sup m = %.3g, fubini exact: %s",
        len(field.cells),
        field.sup,
        fubini_exact,
    )
    return {
        "command": "multiplicity",
        "n_circles": len(v),
        "grid_k": grid_k,
        "n_cells": len(field.cells),
        "sup_m": field.sup,
        "mass_integral": lhs,
        "mass_integral_by_atoms": rhs,
        "fubini_incidences_exact": bool(fubini_exact),
        "threshold": params.threshold,
        "lambda": params.lam,
        "eta": params.eta,
        "mean_s2_ratio": float(np.mean(ratios)),
    }


def cmd_report(config: dict, seed, outdir: str) -> dict:
    """gen, boxdim, triples and multiplicity on one set.  Every stage's config
    follows from the generator config, so every stage's parser runs before gen;
    a `c0` key is not forwarded."""
    gen_cfg = _generator_config(config.get("generator"), seed)
    k1, s, t = gen_cfg.k1, gen_cfg.realized_s, gen_cfg.realized_t
    box_cfg = {"k_range": config.get("k_range", list(range(max(1, k1 - 5), k1 + 1))),
               "s": s, "t": t}
    triples_cfg = {"s_prime": config.get("s_prime", s),
                   "eta_rule": config.get("eta_rule", "auto")}
    mult_cfg = {
        "grid_k": config.get("grid_k", k1),
        "s_prime": config.get("s_prime", max(0.55, s)),
        "t_prime": config.get("t_prime", t),
        "epsilon": config.get("epsilon", 0.1),
    }
    k_range, _, _ = _boxdim_fields(box_cfg)
    _triples_fields(triples_cfg)
    _multiplicity_fields(mult_cfg, k1)
    walls = {}
    t0 = time.perf_counter()
    fset = gen.assemble_furstenberg(gen_cfg)
    inc._check_scale(fset.cloud.points, max(k_range))  # before gen writes a file
    fset, gen_summary = cmd_gen(None, None, outdir, fset=fset)
    walls["gen"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    box_summary = cmd_boxdim(box_cfg, None, outdir, cloud=fset.cloud)
    walls["boxdim"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    triples_summary = cmd_triples(triples_cfg, None, outdir, fset=fset)
    walls["triples"] = time.perf_counter() - t0
    v_cloud = fset.v.cloud
    del fset  # the multiplicity stage needs only V; free the cloud and circles
    t0 = time.perf_counter()
    mult_summary = cmd_multiplicity(mult_cfg, None, outdir, v=v_cloud)
    walls["multiplicity"] = time.perf_counter() - t0
    return {
        "command": "report",
        "gen": gen_summary,
        "box_counts": box_summary,
        "triples": triples_summary,
        "multiplicity": mult_summary,
        "wall_times": walls,
    }


_COMMANDS = {
    "gen": lambda config, seed, outdir: cmd_gen(config, seed, outdir)[1],
    "boxdim": cmd_boxdim,
    "lemma3c": cmd_lemma3c,
    "triples": cmd_triples,
    "multiplicity": cmd_multiplicity,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = argparse.ArgumentParser(prog="flab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        summary = _COMMANDS[args.command](config, args.seed, args.out)
        _write_summary(args.out, summary)
        return EXIT_OK
    except FileNotFoundError as e:
        log.error("missing file: %s", e)
        return EXIT_IO
    except (ValueError, TypeError) as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    except DegenerateExperiment as e:
        log.error("degenerate experiment: %s", e)
        return EXIT_DEGENERATE
    except FlabError as e:
        log.error("invariant violation: %s", e)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
