"""The benchmark's workloads: inputs from a seed, the timed call, and the
check of its outputs.

Every workload is one call into flab, made through module attributes
(``flab.cli.main``, ``flab.incidence.box_counts_streaming``) so that a
tracer installed on those attributes sees it.  ``check`` raises
``CheckFailed`` when an output is wrong and otherwise returns a fingerprint
of the outputs (file digests, or box counts) that must equal the one
recorded from the seed commit for the same seed, when one was recorded.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

# Sizes keep one operation at 0.9-3.2 s, so that a run repeats it several
# times and its mean is not one call's chance.


class CheckFailed(Exception):
    """An operation's outputs are wrong."""


def _generator(seed: int, k1: int) -> dict:
    return {"s": 1, "t": 1, "k1": k1, "preset": "concentric", "seed": seed}


def file_digests(datadir: str) -> dict:
    """sha256 of each data file; summary.json is hashed without its
    ``wall_times`` block, the one part of an output that is not reproducible."""
    out = {}
    for name in sorted(os.listdir(datadir)):
        path = os.path.join(datadir, name)
        if name == "summary.json":
            with open(path) as fh:
                summary = json.load(fh)
            summary.pop("wall_times", None)
            blob = json.dumps(summary, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                blob = fh.read()
        out[name] = hashlib.sha256(blob).hexdigest()
    return out


def _summary(datadir: str) -> dict:
    with open(os.path.join(datadir, "summary.json")) as fh:
        return json.load(fh)


def _closed_form_triples(datadir: str) -> int:
    """Σ n₊·n₋·n× over the rows of ``arc_cells.csv``."""
    with open(os.path.join(datadir, "arc_cells.csv"), newline="") as fh:
        return sum(
            int(r["n_plus"]) * int(r["n_minus"]) * int(r["n_times"])
            for r in csv.DictReader(fh)
        )


def _check_triples(n_triples: int, datadir: str) -> None:
    closed_form = _closed_form_triples(datadir)
    if n_triples != closed_form:
        raise CheckFailed(f"#T = {n_triples} but arc_cells.csv gives {closed_form}")


class CliWorkload:
    """``flab <command> --config <json> --seed <seed> --out <dir>`` in process."""

    def __init__(self, name: str, command: str, config):
        self.name = name
        self.command = command
        self._config = config

    def prepare(self, seed: int, workdir: str):
        path = os.path.join(workdir, "config.json")
        with open(path, "w") as fh:
            json.dump(self._config(seed), fh)
        return path

    def flab_seed(self, seed: int) -> int:
        """The ``--seed`` given to flab for the benchmark's seed."""
        return seed

    def run(self, prepared, seed: int, datadir: str):
        import flab.cli

        return flab.cli.main(
            [self.command, "--config", prepared, "--seed", str(self.flab_seed(seed)),
             "--out", datadir]
        )

    def check(self, seed: int, datadir: str, result) -> dict:
        if result != 0:
            raise CheckFailed(f"flab {self.command} exited with {result}")
        digests = file_digests(datadir)
        self.check_summary(datadir, _summary(datadir))
        return digests

    def check_summary(self, datadir: str, summary: dict) -> None:
        pass


class ReportWorkload(CliWorkload):
    def check_summary(self, datadir, summary):
        _check_triples(summary["triples"]["n_triples"], datadir)
        mult = summary["multiplicity"]
        if mult["fubini_incidences_exact"] is not True:
            raise CheckFailed("multiplicity incidences fail the Fubini identity")
        if mult["mass_integral"] != mult["mass_integral_by_atoms"]:
            raise CheckFailed(
                f"mass integral {mult['mass_integral']!r} != "
                f"{mult['mass_integral_by_atoms']!r} by atoms"
            )


class TriplesWorkload(CliWorkload):
    def check_summary(self, datadir, summary):
        _check_triples(summary["n_triples"], datadir)


class Lemma3cWorkload(CliWorkload):
    def flab_seed(self, seed):
        # The frames are always those of seed 0.  Nearly all the time goes to
        # the few frames that need enumeration, and how many of them a seed
        # draws set the time: at 50 trials the fastest of three calls took
        # 1.48 s to 2.54 s over flab seeds 0-4, a 1.7x range, so a seeded
        # frame set could not repeat within any bound.
        return 0

    def check_summary(self, datadir, summary):
        if summary["violations"] != 0:
            raise CheckFailed(f"{summary['violations']} three-circle bound violations")


class StreamWorkload:
    """``box_counts_streaming(iter_furstenberg_points(cfg), range(5, k1 + 1))``."""

    def __init__(self, name: str, k1: int):
        self.name = name
        self.k1 = k1

    def prepare(self, seed: int, workdir: str):
        import flab.generators

        return flab.generators.FurstenbergConfig(
            s=1.0, t=1.0, k1=self.k1, preset="concentric", seed=seed
        )

    def run(self, prepared, seed: int, datadir: str):
        import flab.generators
        import flab.incidence

        tally = [0]

        def counted(chunks):
            for chunk in chunks:
                tally[0] += len(chunk)
                yield chunk

        counts = flab.incidence.box_counts_streaming(
            counted(flab.generators.iter_furstenberg_points(prepared)),
            range(5, self.k1 + 1),
        )
        return counts, tally[0]

    def check(self, seed: int, datadir: str, result) -> dict:
        counts, n_points = result
        ks = sorted(counts)
        if ks != list(range(5, self.k1 + 1)):
            raise CheckFailed(f"counted scales {ks}")
        for k in ks[:-1]:
            if not counts[k] <= counts[k + 1] <= 4 * counts[k]:
                raise CheckFailed(f"N({k}) = {counts[k]}, N({k + 1}) = {counts[k + 1]}")
        if counts[ks[-1]] > n_points:
            raise CheckFailed(f"N({ks[-1]}) = {counts[ks[-1]]} exceeds {n_points} points")
        return {str(k): counts[k] for k in ks}


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        ReportWorkload(
            "report-k6", "report", lambda seed: {"generator": _generator(seed, 6)}
        ),
        TriplesWorkload(
            "triples-wide-k6",
            "triples",
            lambda seed: {"generator": _generator(seed, 6), "s_prime": 1.0, "eta_rule": 0.75},
        ),
        StreamWorkload("stream-k8", 8),
        Lemma3cWorkload("lemma3c-50", "lemma3c", lambda seed: {"trials": 50}),
    )
}
