"""flab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload report-k6 --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; flab is imported from its ``src``.
Each run starts one fresh worker process for the workload (see worker.py),
which repeats the workload's call for ``--seconds`` and times a fixed
reference computation around each call.  ``wall_rel`` and ``cpu_rel`` are
the mean call's time, after the first, in units of the mean reference's;
``setup_s`` is the median set-up time of the worker and of the set-up-only
processes it starts between calls.  With ``--trace 0`` the result holds the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The
last line of standard output is the result as one JSON object; the lines
before it record the machine and toolchain and list every metric by name.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed operation)."""


def _read(path: str, default: str = "") -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return default


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if not commit:
        for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit or "unknown"


def machine() -> dict:
    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        "unknown",
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size", "unknown"),
        "git_commit": _git_commit(),
        "flab_threads_set": "FLAB_THREADS" in os.environ,
    }


def _spawn(workdir: str, args: list, deadline: float) -> dict:
    """Run worker.py to completion, or kill it and the processes it started at
    ``deadline``, and return its result."""
    result = os.path.join(workdir, "result.json")
    log = os.path.join(workdir, "worker.log")
    # The library's defaults apply: the thread knob is left unset.
    env = {k: v for k, v in os.environ.items() if k != "FLAB_THREADS"}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", workdir,
           "--result", result, *args, "--spawned-at", repr(time.monotonic())]
    with open(log, "a") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"worker exited with {proc.returncode}:\n{_read(log)[-4000:]}")
    with open(result) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: every metric it yields, and its op tally."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = os.path.join(HERE, "_out", f"{workload}-seed{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        res = _spawn(workdir, ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                     deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = [res["setup_s"], *res["setup_probes"]]
    ops = res["ops"] + ([res["traced_op"]] if trace else [])
    errors = [op["error"] for op in ops if op["error"] is not None]
    # The first call, and the reference before it, warm up: a first call
    # pays for cold caches and fresh memory (11% on stream at k1 = 9).  It
    # is checked like every other call, but timed only when it is the only one.
    warm = 1 if len(res["ops"]) > 1 else 0
    refs = res["reference"][warm:]
    ok = [op for op in res["ops"][warm:] if op["error"] is None] or res["ops"][warm:]
    # The mean call over the mean reference computation of the same run.
    # One reference is short and noisy; pooling all of a run's steadies it.
    metrics = {
        "wall_rel": statistics.mean(op["wall_s"] for op in ok)
        / statistics.mean(ref["wall_s"] for ref in refs),
        "cpu_rel": statistics.mean(op["cpu_s"] for op in ok)
        / statistics.mean(ref["cpu_s"] for ref in refs),
        "wall_s": statistics.median(op["wall_s"] for op in ok),
        "cpu_s": statistics.median(op["cpu_s"] for op in ok),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "error_rate": len(errors) / len(ops),
        **res.get("layers", {}),
    }
    return {
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "op_walls": [op["wall_s"] for op in ops],
        "reference_walls": [ref["wall_s"] for ref in res["reference"]],
        "setups": setups,
        "metrics": metrics,
        "versions": res["versions"],
        "fingerprint": next((op["fingerprint"] for op in res["ops"] if op["error"] is None),
                            None),
    }


def report(workload: str, run: dict, declared: list) -> dict:
    """Print the human-readable lines for one run and return its result."""
    for err in run["errors"]:
        print(f"{workload}: failed operation: {err}", file=sys.stderr)
    print(f"# {workload}: {run['attempted']} attempted, {run['failed']} failed, "
          f"error_rate {run['metrics']['error_rate']:.4g} ratio")
    walls = run["op_walls"]
    print(f"#   wall_s of each operation (median {statistics.median(walls):.4f} s): "
          + " ".join(f"{w:.4f}" for w in walls))
    print("#   wall_s of the reference before and after them (s): "
          + " ".join(f"{w:.4f}" for w in run["reference_walls"]))
    print(f"#   wall_s {run['metrics']['wall_s']:.6g} s and cpu_s {run['metrics']['cpu_s']:.6g} s, "
          "medians of the operations' own times")
    print("#   set-up time of each process (s): " + " ".join(f"{s:.4f}" for s in run["setups"]))
    for m in declared:
        print(f"#   {m['name']:<48} {run['metrics'].get(m['name'], 0):>14.6g} {m['unit']}")
    print(json.dumps({"workload": workload, "fingerprint": run["fingerprint"], "op_walls": walls,
                      "reference_walls": run["reference_walls"], "setups": run["setups"]}))
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": run["metrics"].get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flab", "__init__.py")):
        print(f"no flab sources under {ROOT}/src; run from a checkout of flab",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"env": {**machine(), **run["versions"], "workload": name,
                                      "seed": args.seed, "trace": args.trace}}))
            results[name] = report(name, run, declared)
    except BenchError as e:
        print(f"benchmark could not measure: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
