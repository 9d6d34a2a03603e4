"""One workload process, started by run.py.

It imports flab from the checkout's ``src``, writes the workload's inputs,
and then runs the workload's call in a closed loop: one call at a time,
timing each and checking its outputs outside the timed interval, until the
next call would end more than ``--seconds`` after the process was spawned
(at least once).  A reference computation is timed before the first call
and after each one, and, with ``--trace 0``, after each call one more
process is started that only sets up, for its set-up time.  With
``--trace 1`` one more call runs under a ``Tracer``, and the loop leaves
room for it.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

TRACED_COST = 1.2  # a traced call's wall time, as a multiple of an untraced one
REFERENCE_SEED = 12345
PROBE_TIMEOUT_S = 60


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _expected(workload: str, seed: int):
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def reference_data():
    """The fixed inputs of ``run_reference``, the same in every run."""
    import numpy as np

    rng = np.random.default_rng(REFERENCE_SEED)
    return rng.random(250_000), rng.integers(0, 1 << 40, 30_000)


def run_reference(data) -> dict:
    """Time the reference computation: a fixed mix of interpreted Python,
    numpy sorts and ``np.unique``, the kinds of work flab does.

    It runs before the first operation and after each one, so a shared
    host's changes of speed, which last from seconds to minutes and move it
    and flab alike, cancel in the ratio of their times over a run.
    """
    import numpy as np

    floats, keys = data
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += (i * i) % 7
    # Small arrays, so that peak_rss_mb stays flab's.
    for _ in range(64):
        np.sort(floats)
    for _ in range(10):
        np.unique(keys)
    return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_seconds() - cpu0}


def probe_setup(args) -> float:
    """Set-up time of a fresh process that only sets up the workload."""
    result = os.path.join(args.workdir, f"probe-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--workdir", args.workdir,
           "--result", result, "--setup-only", "--spawned-at", repr(time.monotonic())]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True, timeout=PROBE_TIMEOUT_S)
    with open(result) as fh:
        setup_s = json.load(fh)["setup_s"]
    os.remove(result)
    return setup_s


def run_op(wl, prepared, seed: int, datadir: str, expected, tracer=None) -> dict:
    """Time one call, then check its outputs; the check is not timed."""
    op = {"error": None, "fingerprint": None}
    if tracer is not None:
        tracer.install()
    try:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = wl.run(prepared, seed, datadir)
        except Exception:
            op["error"] = traceback.format_exc()
        op["wall_s"] = time.perf_counter() - t0
        op["cpu_s"] = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    if op["error"] is None:
        try:
            op["fingerprint"] = wl.check(seed, datadir, result)
            if expected is not None and op["fingerprint"] != expected:
                raise CheckFailed("outputs differ from those recorded at the seed commit")
        except (CheckFailed, OSError, KeyError, ValueError) as e:
            op["error"] = f"{type(e).__name__}: {e}"
    shutil.rmtree(datadir, ignore_errors=True)
    return op


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import scipy.spatial  # noqa: F401  (content_lower imports it lazily)

    import flab
    import flab.cli  # noqa: F401  (so no workload imports a module while timed)

    if not os.path.abspath(flab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"flab imported from {flab.__file__}, not from {src}")
    wl = WORKLOADS[args.workload]
    prepared = wl.prepare(args.seed, args.workdir)
    out = {
        "setup_s": time.monotonic() - args.spawned_at,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not args.setup_only:
        expected = _expected(args.workload, args.seed)
        ref_data = reference_data()
        refs = [run_reference(ref_data)]
        ops, cycles, setups = [], [], []
        end = args.spawned_at + args.seconds
        while True:
            cycle_start = time.monotonic()
            datadir = os.path.join(args.workdir, f"op{len(ops)}")
            ops.append(run_op(wl, prepared, args.seed, datadir, expected))
            refs.append(run_reference(ref_data))
            if not args.trace:
                setups.append(probe_setup(args))
            cycles.append(time.monotonic() - cycle_start)
            typical = statistics.median(cycles)
            # A traced run keeps room for its traced call within --seconds.
            reserve = TRACED_COST * typical if args.trace else 0.0
            if time.monotonic() + typical + reserve > end:
                break
        out["ops"] = ops
        out["reference"] = refs
        out["setup_probes"] = setups
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = Tracer(f"{args.workload}-seed{args.seed}")
            op = run_op(wl, prepared, args.seed, os.path.join(args.workdir, "traced"), expected, tracer)
            reference = next((o["fingerprint"] for o in ops if o["error"] is None), None)
            if op["error"] is None and op["fingerprint"] != reference:
                op["error"] = "traced outputs differ from the untraced run"
            if tracer.leftovers():
                op["error"] = f"wrappers left installed: {tracer.leftovers()}"
            layers = layer_metrics(tracer, op["wall_s"])
            layers["trace.overhead_s"] = op["wall_s"] - statistics.median(o["wall_s"] for o in ops)
            out["traced_op"] = op
            out["layers"] = layers
            spans_dir = os.path.join(HERE, "_out", "spans")
            os.makedirs(spans_dir, exist_ok=True)
            tracer.write_spans(os.path.join(spans_dir, f"{tracer.run_id}.jsonl"))
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
