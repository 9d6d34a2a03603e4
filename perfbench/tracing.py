"""Outside-in tracing of flab's layers.

A ``Tracer`` replaces each public function of the layer modules (``cli``,
``generators``, ``fractal``, ``incidence``, ``geometry``) at the module
attribute where callers look it up, records one span per call, and puts the
original back on ``restore()``.  No file of the program changes, and the
traced run executes exactly the untraced call sequence.

A span is ``(name, start, end, parent, run)``; ``parent`` is the index of
the span that was open when this one started.  Spans stay in memory and are
written out once, by ``write_spans``, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "generators", "fractal", "incidence", "geometry")


def _points_generated(args, kwargs, result):
    return {"generators.points": sum(len(a) for a in result.angular)}


def _csv_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"fractal.save_csv.bytes": os.path.getsize(path)}


# Deterministic work counts, taken from a traced call's arguments and result.
COUNTERS = {
    "generators.assemble_furstenberg": _points_generated,
    "generators.iter_furstenberg_points": lambda a, kw, item: {"generators.points": len(item)},
    "fractal.save_csv": _csv_bytes,
    "incidence.box_count": lambda a, kw, r: {"incidence.cells": r.count},
    "incidence.box_counts_streaming": lambda a, kw, r: {"incidence.cells": sum(r.values())},
    "incidence.build_triple_index": lambda a, kw, r: {"incidence.triples": r.count},
    "incidence.multiplicity_field": lambda a, kw, r: {
        "incidence.annulus_incidences": int(r.per_atom_counts.sum())
    },
}


class Tracer:
    """Wraps the layer functions of an imported ``flab`` and records spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent, run, error]; lists so end can be set later
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._saved: list = []
        self._wrappers: dict = {}  # id -> wrapper; holding them keeps ids unique

    # --- installing and removing the wrappers ---------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"flab.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("flab."):
                    continue
                if fn not in wrappers:
                    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
                    wrappers[fn] = self._wrap(name, fn)
                    self._wrappers[id(wrappers[fn])] = wrappers[fn]
                self._saved.append((vars(mod), attr, fn))
                setattr(mod, attr, wrappers[fn])
        # Dispatch tables (cli._COMMANDS) hold the functions themselves.
        for layer in LAYERS:
            mod = importlib.import_module(f"flab.{layer}")
            for table in vars(mod).values():
                if not isinstance(table, dict):
                    continue
                for key, fn in list(table.items()):
                    if inspect.isfunction(fn) and fn in wrappers:
                        self._saved.append((table, key, fn))
                        table[key] = wrappers[fn]

    def restore(self) -> None:
        for where, key, fn in reversed(self._saved):
            where[key] = fn
        self._saved.clear()

    def leftovers(self) -> list:
        """Places in the layer modules that still hold one of this tracer's
        wrappers; empty after ``restore()``."""
        found = []
        for layer in LAYERS:
            mod = importlib.import_module(f"flab.{layer}")
            for attr, value in vars(mod).items():
                tables = [(attr, value)]
                if isinstance(value, dict):
                    tables += [(f"{attr}[{k!r}]", v) for k, v in value.items()]
                found += [f"{layer}.{where}" for where, v in tables if id(v) in self._wrappers]
        return found

    # --- spans ------------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, False])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, failed: bool) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        span[5] = failed
        self._stack.pop()

    def _count(self, name, args, kwargs, result) -> None:
        hook = COUNTERS.get(name)
        if hook is not None:
            self.counters.update(hook(args, kwargs, result))

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # One span per next(): the generator body runs only then, inside
            # whichever span is consuming it.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid = tracer._open(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            tracer._close(sid, False)
                            return
                        except BaseException:
                            tracer._close(sid, True)
                            raise
                        tracer._close(sid, False)
                        tracer._count(name, args, kwargs, item)
                        yield item
                finally:
                    it.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, True)
                raise
            tracer._close(sid, False)
            tracer._count(name, args, kwargs, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, run, error) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run,
                            "error": error,
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its child spans.

    ``spans`` is a list of ``[name, start, end, parent, ...]``.  Spans nest,
    because every call they time runs on the one thread.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict:
    """Inclusive time ``<fn>.s``, self time ``<fn>.self_s`` and ``<fn>.calls``
    per traced function, plus the counters, arc success and coverage."""
    out = defaultdict(int)
    own = self_times(tracer.spans)
    top = 0.0
    for (name, start, end, parent, _, _), self_s in zip(tracer.spans, own):
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        if parent is None:
            top += end - start
    out.update(tracer.counters)
    # A circle is attempted when auto_eta rejects it or the arc scan runs on it.
    arcs_ok = sum(1 for s in tracer.spans if s[0] == "incidence.extract_three_arcs" and not s[5])
    attempted = out["incidence.extract_three_arcs.calls"] + sum(
        1 for s in tracer.spans if s[0] == "incidence.auto_eta" and s[5]
    )
    out["incidence.arcs_attempted"] = attempted
    out["incidence.arc_success_ratio"] = arcs_ok / attempted if attempted else 0.0
    out["trace.coverage"] = top / traced_wall
    return out
