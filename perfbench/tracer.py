"""Spans around greglink's public functions, installed from outside the package.

Each traced name is replaced, for the duration of a ``with installed(tracer)``
block, in every ``greglink`` module namespace that binds it, so that a call
made from inside the package (``harness`` calling ``greg``, ``greg`` calling
``wls_coefficients``) lands on the wrapper and nests under its caller. Methods
are wrapped on their classes. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

MODULES = ("harness", "synthpop", "dataio", "cli", "estimators", "linkage", "design")

# (defining module, public function); the span is named "<module>.<function>"
FUNCTIONS = (
    ("harness", "run_scenario"),
    ("estimators", "greg"),
    ("estimators", "sls_greg"),
    ("estimators", "sub_greg"),
    ("estimators", "wls_coefficients"),
    ("estimators", "consistency_diagnostics"),
    ("design", "draw_srswor"),
    ("design", "rng_stream"),
    ("design", "ht_total"),
    ("synthpop", "gen_population"),
    ("synthpop", "gen_linkage"),
    ("synthpop", "gen_pi_q_weights"),
    ("linkage", "build_linkage"),
    ("linkage", "reverse_weights_best_link"),
    ("linkage", "best_link_indicator_weights"),
    ("linkage", "multiplicity_weights"),
    ("linkage", "derive_covariates"),
    ("dataio", "read_aux_csv"),
    ("dataio", "read_links_csv"),
    ("dataio", "read_sample_csv"),
    ("dataio", "assemble_estimation_inputs"),
    ("cli", "main"),
    ("cli", "estimate_from_inputs"),
)

# (defining module, class, method, span name)
METHODS = (
    ("linkage", "LinkageStructure", "restrict", "linkage.LinkageStructure.restrict"),
    ("linkage", "WeightScheme", "restrict", "linkage.WeightScheme.restrict"),
    ("estimators", "GregSpec", "__init__", "estimators.GregSpec"),
)

# the harness's estimator entry points: one call is one estimator evaluation
_HARNESS_ESTIMATOR_CALLS = ("ht_total", "greg", "sls_greg", "sub_greg")


def _rows(table) -> int:
    """Rows of a table read by dataio: the sample and link tables carry one
    unit key per row, the auxiliary table one record key."""
    return len(table.unit_keys if hasattr(table, "unit_keys") else table.record_keys)


def _read_counts(args, result):
    return (("dataio.rows_read", _rows(result)),
            ("dataio.bytes_read", os.path.getsize(args[0])))


# counters taken from a traced call's arguments and result
_COUNTERS = {
    "harness.run_scenario": lambda args, result: (("harness.replicates", args[0].replicates),),
    "linkage.build_linkage": lambda args, result: (("linkage.links", result.n_links),),
    "dataio.read_aux_csv": _read_counts,
    "dataio.read_links_csv": _read_counts,
    "dataio.read_sample_csv": _read_counts,
}


class Tracer:
    """Spans (name, start, end, parent) and exact counters, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.counts[f"{name}.calls"] += 1
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Self time per span name: each span's duration minus the durations
        of its direct children, summed over spans of one name."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = {}
        for i in range(len(self.names)):
            own = self.ends[i] - self.starts[i] - child[i]
            totals[self.names[i]] = totals.get(self.names[i], 0.0) + own
        return totals


def write_spans(path: Path, workload: str, passes: list[Tracer]) -> None:
    """All spans of a run as CSV, times in seconds from the first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = passes[0].starts[0] if passes and passes[0].starts else 0.0
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["workload", "pass", "span", "name", "start_s", "end_s", "parent"])
        for number, tracer in enumerate(passes):
            for i, name in enumerate(tracer.names):
                writer.writerow([workload, number, i, name,
                                 f"{tracer.starts[i] - origin:.9f}",
                                 f"{tracer.ends[i] - origin:.9f}", tracer.parents[i]])


def _wrap(tracer: Tracer, name: str, fn, site_counter: str | None = None):
    counter = _COUNTERS.get(name)
    # one span name per estimator: cli.estimate_from_inputs.<estimator>
    by_estimator = name == "cli.estimate_from_inputs"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if site_counter is not None:
            tracer.counts[site_counter] += 1
        index = tracer.open(f"{name}.{args[1]}" if by_estimator else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            for key, n in counter(args, result):
                tracer.counts[key] += n
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every traced greglink name through ``tracer`` inside the block."""
    modules = {m: importlib.import_module(f"greglink.{m}") for m in MODULES}
    namespaces = [*modules.values(), importlib.import_module("greglink")]
    patches = []
    try:
        for home, attr in FUNCTIONS:
            original = getattr(modules[home], attr)
            for namespace in namespaces:
                if getattr(namespace, attr, None) is not original:
                    continue
                site = None
                if namespace is modules["harness"] and attr in _HARNESS_ESTIMATOR_CALLS:
                    site = "harness.estimator_evals"
                patches.append((namespace, attr, original))
                setattr(namespace, attr, _wrap(tracer, f"{home}.{attr}", original, site))
        for home, cls_name, attr, name in METHODS:
            cls = getattr(modules[home], cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
