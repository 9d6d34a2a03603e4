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

The one rule for configs, which each command's table (_TABLES) applies before
anything is read, built or written: a value of the wrong JSON kind, a missing
required field or an unknown field, at any depth, exits 2; a range check
exits with the code the table gives it.  Exit codes, a stable contract:
0 success; 2 config error (that rule, a threshold ThresholdParams rejects, a
malformed CSV), with --out left empty; 3 invariant violation (a k_range of
fewer than 3 distinct scales, a generator invariant, a scale too fine for a
cell key, an allocation numpy refuses, any other library error); 4 missing
input file; 5 experiment degeneracy.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .errors import ConfigInvalid, DegenerateFit, EmptyInput, FlabError, InsufficientContent

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


# --- configs ----------------------------------------------------------------
# One table per command: field -> (kind, default, check).  A kind is a key of
# _KINDS or several joined by "|"; a REQUIRED field has no default.  check(x,
# fields) runs on a value other than None and returns what is wrong with it,
# for exit 2, or raises a FlabError.  FurstenbergConfig and ThresholdParams
# check their own invariants.

REQUIRED = object()
_KINDS = {  # kind: (name, test, parse); type(True) is bool, so a bool is no integer
    "int": ("an integer", lambda x: type(x) is int, int),
    "number": ("a number", lambda x: type(x) in (int, float), float),
    "string": ("a string", lambda x: type(x) is str, str),
    "object": ("an object", lambda x: type(x) is dict, dict),
    "ints": ("a list of integers",
             lambda x: type(x) is list and all(type(i) is int for i in x), list),
    "cantor": ("null or an object {m: integer, pattern: list of integers}",
               lambda x: x is None or type(x) is dict and x.keys() == {"m", "pattern"}
               and type(x["m"]) is int and _KINDS["ints"][1](x["pattern"]),
               lambda x: x and (x["m"], x["pattern"])),
}


def _fields(table: dict, config: dict, prefix: str = "") -> dict:
    """The fields of `config` by `table`: each of its kind, or at its default,
    then range-checked; a ValueError names the field at fault."""
    for key in config:
        if key not in table:
            raise ValueError(f"unknown field {prefix + key!r}")
    fields = {}
    for key, (kind, default, _) in table.items():
        if key not in config and default is REQUIRED:
            raise ValueError(f"{prefix}{key} is required")
        fields[key] = _typed(config[key], kind, prefix + key) if key in config else default
    for key, x in fields.items():
        wrong = x is not None and table[key][2] and table[key][2](x, fields)
        if wrong:
            raise ValueError(f"{prefix}{key} {wrong}, got {x!r}")
    return fields


def _typed(x, kind: str, name: str):
    kinds = [_KINDS[k] for k in kind.split("|")]
    for _, test, parse in kinds:
        if test(x):
            try:
                return parse(x)
            except OverflowError:
                raise ValueError(f"{name} is too large for a float") from None
    raise ValueError(f"{name} must be {' or '.join(k[0] for k in kinds)}, got {x!r}")


def _at_least(lo):
    return lambda x, fields: x < lo and f"must be >= {lo}"


def _in_unit(x, fields):
    return not 0 < x <= 1 and "must lie in (0, 1]"


def _eta_rule(x, fields):
    if type(x) is str:
        return x not in ("auto", "paper") and 'must be "auto", "paper" or a number'
    return _in_unit(x, fields)


def _scales(ks, fields):
    if not (ks and 0 <= max(ks) <= 1023):  # 2^k overflows a float above 1023
        return "needs a finest scale in [0, 1023]"
    if len(set(ks)) < 3:  # the fewest a slope takes
        raise DegenerateFit(f"k_range needs >= 3 distinct scales, got {ks}")


_PATH = ("string", REQUIRED, lambda x, f: not x and "must be a nonempty path")
_GENERATOR = {"s": ("number", REQUIRED, None), "t": ("number", REQUIRED, None),
              "k1": ("int", REQUIRED, None), "preset": ("string", REQUIRED, None),
              "seed": ("int", REQUIRED, _at_least(0)), "cantor": ("cantor", None, None)}
_TABLES = {
    "gen": _GENERATOR,
    "boxdim": {"cloud": _PATH, "k_range": ("ints", REQUIRED, _scales),
               "s": ("number", None, lambda x, f: f["t"] is None and "needs t as well"),
               "t": ("number", None, lambda x, f: f["s"] is None and "needs s as well")},
    "lemma3c": {"trials": ("int", REQUIRED, _at_least(1)), "seed": ("int", 0, _at_least(0))},
    "triples": {"generator": ("object", REQUIRED, None),  # of _GENERATOR's fields
                "s_prime": ("number", REQUIRED, _in_unit),
                "eta_rule": ("string|number", "auto", _eta_rule)},
    # grid_k None is v's k1; below -1023 the cell side 2^-grid_k overflows a float
    "multiplicity": {"v": _PATH, "grid_k": ("int", None, _at_least(-1023)),
                     "s_prime": ("number", 0.75, None), "t_prime": ("number", 0.5, None),
                     "epsilon": ("number", 0.1, None), "c0": ("number", inc.C0_DEFAULT, None)},
}
# report takes the generator and every stage field but the stages' inputs and
# boxdim's s and t (the generator's realized ones), each of its stage's kind;
# _report_stages fills in the ones left None
_TABLES["report"] = {"generator": _TABLES["triples"]["generator"], **{
    key: (kind, None, None) for stage in ("boxdim", "triples", "multiplicity")
    for key, (kind, _, _) in _TABLES[stage].items()
    if key not in ("cloud", "v", "generator", "s", "t")}}


def _report_stages(p: dict) -> dict:
    """report's stage fields: those its config gives, else defaults that its
    generator implies or its stage's table gives, each checked by that table.
    `c0` is accepted, not forwarded."""
    g = p.pop("generator")
    s, t, k1 = g.realized_s, g.realized_t, g.k1
    stages = {"boxdim": {"k_range": list(range(max(1, k1 - 5), k1 + 1)), "s": s, "t": t},
              "triples": {"s_prime": s},
              "multiplicity": {"grid_k": k1, "s_prime": max(0.55, s), "t_prime": t}}
    for stage, fields in stages.items():
        table = {key: f for key, f in _TABLES[stage].items() if key in p or key in fields}
        fields.update((key, p[key]) for key in table if key != "c0" and p.get(key) is not None)
        stages[stage] = _fields(table, fields)
    m = stages["multiplicity"]
    inc.ThresholdParams.from_exponents(m["s_prime"], m["t_prime"], m["epsilon"], k1, c0=m["c0"])
    return {"generator": g, **stages}


def _parse(command: str, config: dict, seed) -> dict:
    """The typed fields of `command`'s config; the --seed `seed`, when given,
    replaces its seed field or its generator's."""
    if seed is not None and "seed" in _TABLES[command]:
        config = {**config, "seed": seed}
    elif seed is not None and isinstance(config.get("generator"), dict):
        config = {**config, "generator": {**config["generator"], "seed": seed}}
    if command == "gen":
        return gen.FurstenbergConfig(**_fields(_GENERATOR, config))
    p = _fields(_TABLES[command], config)
    if "generator" in p:
        p["generator"] = gen.FurstenbergConfig(**_fields(_GENERATOR, p["generator"], "generator."))
    return _report_stages(p) if command == "report" else p


def cmd_gen(g: gen.FurstenbergConfig, outdir: str,
            fset: gen.DiscretizedFurstenbergSet = None) -> dict:
    """Write v.csv and cloud.csv of `fset`, or of the set `g` builds."""
    if fset is None:
        fset = gen.assemble_furstenberg(g)
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
    return {
        "command": "gen",
        "config": dataclasses.asdict(cfg),
        "realized_s": cfg.realized_s,
        "realized_t": cfg.realized_t,
        "n_circles": len(fset.circles),
        "n_points": len(fset.cloud),
        "conc_measured": fset.v.conc_measured,
    }


def cmd_boxdim(p: dict, outdir: str, cloud: fr.PointCloud = None) -> dict:
    """Box counts of `cloud`; without one, of the file p["cloud"]."""
    k_range, s, t = p["k_range"], p["s"], p["t"]
    if cloud is None:
        cloud = fr.load_csv(p["cloud"])
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


def cmd_lemma3c(p: dict, outdir: str, _=None) -> dict:
    trials = p["trials"]
    rng = np.random.default_rng(p["seed"])
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


def _arc_data(fset: gen.DiscretizedFurstenbergSet, s_prime: float, eta_rule):
    """(ArcTriple, or None where the circle fails, circle points) per circle;
    every circle's arcs are scanned in lockstep (incidence.scan_circles), on its
    slice of the set's points before deduplication (the cloud may lack some)."""
    k1, delta, cut = fset.config.k1, fset.config.delta, fset.offsets
    circles = [(z, fset.points[lo:hi]) for z, lo, hi in zip(fset.circles, cut, cut[1:])]
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


def cmd_triples(p: dict, outdir: str, fset: gen.DiscretizedFurstenbergSet = None) -> dict:
    """Arc triples of `fset`; without one, of the set p["generator"] builds."""
    s_prime, eta_rule = p["s_prime"], p["eta_rule"]
    if fset is None:
        fset = gen.assemble_furstenberg(p["generator"])
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


def cmd_multiplicity(p: dict, outdir: str, v: fr.PointCloud = None) -> dict:
    """Multiplicity field of the circle family `v`; without one, of the file
    p["v"]."""
    if v is None:
        v = fr.load_csv(p["v"])
    if len(v) == 0:
        raise EmptyInput("parameter file has no circles")
    if v.dim != 3:
        raise ConfigInvalid("v must be a 3-column (center, radius) cloud")
    k1 = v.k
    grid_k = k1 if p["grid_k"] is None else p["grid_k"]
    params = inc.ThresholdParams.from_exponents(p["s_prime"], p["t_prime"], p["epsilon"], k1,
                                                c0=p["c0"])
    delta = v.delta
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


def cmd_report(p: dict, outdir: str, _=None) -> dict:
    """gen, boxdim, triples and multiplicity on one set, each stage with the
    fields _report_stages gave it."""
    walls = {}
    t0 = time.perf_counter()
    fset = gen.assemble_furstenberg(p["generator"])
    fr._check_scale(fset.cloud.points, max(p["boxdim"]["k_range"]))  # before gen writes a file
    inc._check_annuli(fset.v.cloud.points, fset.v.cloud.delta, p["multiplicity"]["grid_k"])
    gen_summary = cmd_gen(p["generator"], outdir, fset)
    walls["gen"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    box_summary = cmd_boxdim(p["boxdim"], outdir, fset.cloud)
    walls["boxdim"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    triples_summary = cmd_triples(p["triples"], outdir, fset)
    walls["triples"] = time.perf_counter() - t0
    v_cloud = fset.v.cloud
    del fset  # the multiplicity stage needs only V; free the cloud and circles
    t0 = time.perf_counter()
    mult_summary = cmd_multiplicity(p["multiplicity"], outdir, v_cloud)
    walls["multiplicity"] = time.perf_counter() - t0
    return {
        "command": "report",
        "gen": gen_summary,
        "box_counts": box_summary,
        "triples": triples_summary,
        "multiplicity": mult_summary,
        "wall_times": walls,
    }


# main calls each with its parsed config, --out and None; report passes its
# stages the input it holds instead
_COMMANDS = {
    "gen": cmd_gen,
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
        summary = _COMMANDS[args.command](_parse(args.command, config, args.seed), args.out, None)
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
    except (FlabError, MemoryError) as e:
        log.error("invariant violation: %s", e)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
