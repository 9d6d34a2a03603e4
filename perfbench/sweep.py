"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 0-9                 # every workload
    python3 perfbench/sweep.py --workloads stream-k8 --seeds 0-4
    python3 perfbench/sweep.py --seeds 0-9 --record-expected --baseline perfbench/baseline.json
    python3 perfbench/sweep.py --seeds 0-9 --compare perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json: ``ok`` below a third
of the bound, ``within bound``, or ``OVER BOUND``.  Seeds run in the outer
loop, so slow drift of a shared machine spreads over every workload.
``--compare`` adds each median's relative shift from an earlier sweep's, and
marks a shift for the worse by more than the metric's bound.

``--record-expected`` stores each correct run's output fingerprint in
expected.json; later runs with that seed must reproduce it.  ``--baseline``
writes every value, with the machine and toolchain, to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    env = next(line["env"] for line in lines if "env" in line)
    detail = next(line for line in lines if "fingerprint" in line)
    return env, detail, lines[-1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="all", help="comma-separated names, or all")
    p.add_argument("--seeds", default="0-9", help="a seed or an inclusive range lo-hi")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-expected", action="store_true")
    p.add_argument("--baseline", help="write every value to this JSON file")
    p.add_argument("--compare", help="a file written by --baseline; print each median's "
                                     "shift from the one recorded there")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    values = {w: {} for w in names}
    fingerprints = {w: {} for w in names}
    op_walls = {w: [] for w in names}
    reference_walls = {w: [] for w in names}
    env = None
    for seed in _seeds(args.seeds):
        for w in names:
            env, detail, result = run_once(w, seed, spec["run_seconds"], args.trace)
            op_walls[w].append(detail["op_walls"])
            reference_walls[w].append(detail.get("reference_walls"))
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
            if result["correct"]:
                fingerprints[w][str(seed)] = detail["fingerprint"]
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    spec_better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    compare = {}
    if args.compare:
        with open(args.compare) as fh:
            compare = json.load(fh)["workloads"]
    summary = {}
    for w in names:
        for k, vals in values[w].items():
            summary.setdefault(w, {"op_walls": op_walls[w],
                                   "reference_walls": reference_walls[w]})[k] = {"values": vals}
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[w][k].update(median=med, q1=q1, q3=q3)
            if args.trace and k not in ("trace.coverage", "trace.overhead_s"):
                continue
            bound = bounds.get(k)
            flag = "" if bound is None else (
                "ok" if spread < bound / 3 else "within bound" if spread <= bound
                else "OVER BOUND")
            line = (f"{w:<16} {k:<14} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                    f"spread {spread:7.4f}  bound {bound}  {flag}")
            ref = compare.get(w, {}).get(k, {}).get("median")
            if ref:
                shift = med / ref - 1
                worse = shift if spec_better.get(k) == "lower" else -shift
                line += (f"  | vs {ref:.4f}: {shift:+.3f}"
                         + ("  WORSE BEYOND BOUND" if bound is not None and worse > bound else ""))
            print(line)
    if args.record_expected:
        path = os.path.join(HERE, "expected.json")
        with open(path) as fh:
            expected = json.load(fh)
        for w in names:
            expected.setdefault(w, {}).update(fingerprints[w])
        with open(path, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump({"env": env, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
                       "trace": args.trace, "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
