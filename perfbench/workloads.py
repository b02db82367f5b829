"""The three workloads: generated inputs, timed operations and their checks.

Each workload keeps one layer group busy and leaves the others nearly idle,
so that a change to one layer shows on one workload and not on another.
Why each exists and which layers it loads are recorded in
``perfbench/choices.json``; the sizes are in ``SIZES`` below.

All three are closed loops with one caller; the ``w2`` operations use two
worker processes. One operation is one ``run_scenario`` call, one
``assemble_estimation_inputs`` call or one ``estimate`` call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from greglink import cli, dataio, harness
from greglink.design import draw_srswor, rng_stream
from greglink.harness import ScenarioConfig, summary_csv_rows
from greglink.synthpop import (
    LinkageModel,
    PopulationModel,
    aux_from_population,
    gen_linkage,
    gen_population,
)

from . import checks
from .speed import Stopwatch

DEFAULT_SEED = 15
NAMES = ("mc_tables", "mc_setup_large", "file_estimate")
FILE_ESTIMATORS = ("ht", "pi", "sub", "sbl", "sri", "sls")

# linkage parameters of scenarios/table{1,2,3}_block{1,2,3}.scenario
TABLE_BLOCKS = {
    "table1_block1": dict(link_share=(0.2, 0.4, 0.4), match_rate=0.4,
                          correct_best_rate=0.4, best_link_weight=0.4),
    "table2_block2": dict(link_share=(0.2, 0.4, 0.4), match_rate=0.8,
                          correct_best_rate=0.8, best_link_weight=0.7),
    "table3_block3": dict(link_share=(0.8, 0.1, 0.1), match_rate=0.98,
                          correct_best_rate=0.98, best_link_weight=0.9),
}


@dataclass(frozen=True)
class Size:
    n_population: int
    sample_size: int
    replicates: int = 0


# (full, smoke) sizes; smoke runs every workload in seconds
SIZES = {
    "mc_tables": (Size(5000, 100, 2000), Size(400, 40, 8)),
    "mc_setup_large": (Size(100_000, 100, 25), Size(4000, 40, 4)),
    "file_estimate": (Size(10_000, 500), Size(800, 60)),
}


@dataclass
class Op:
    """One timed operation and what its output check found."""

    kind: str                     # "setup", "w1" or "w2"
    label: str                    # block name, or "assemble" / "estimate"
    seconds: float                # wall time
    problems: list[str] = field(default_factory=list)
    replicates: int = 0
    slowdown: float = 1.0         # the machine's slowdown around the operation

    @property
    def scaled(self) -> float:
        """Wall time at the reference speed of ``speed.probe``."""
        return self.seconds / self.slowdown


def _error(exc: Exception) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


def block_config(name: str, size: Size, seed: int, block: str) -> ScenarioConfig:
    return ScenarioConfig(name=name, n_population=size.n_population,
                          sample_size=size.sample_size,
                          replicates=size.replicates, sigma=1.5, gamma=0.0,
                          seed=seed, target="mean", **TABLE_BLOCKS[block])


class MonteCarloWorkload:
    """``harness.run_scenario`` on fixed blocks, at one and at two workers."""

    def __init__(self, configs: list[ScenarioConfig], setup_repeats: int,
                 reference: dict | None, calibrate: bool):
        self.configs = configs
        self.setup_repeats = setup_repeats
        self.reference = reference
        self.calibrate = calibrate
        self.rows_w1: dict[str, list] = {}

    def _run(self, kind: str, config: ScenarioConfig, workers: int
             ) -> tuple[Op, list | None]:
        clock = Stopwatch(self.calibrate)
        try:
            with clock:
                summary = harness.run_scenario(config, workers=workers)
        except Exception as exc:  # a failed block is counted, not fatal
            return Op(kind, config.name, clock.seconds, _error(exc),
                      slowdown=clock.slowdown), None
        rows = summary_csv_rows(summary)
        return Op(kind, config.name, clock.seconds, checks.summary_problems(summary, rows),
                  config.replicates, clock.slowdown), rows

    def warm_up(self) -> list[Op]:
        """One set-up pass at full size, so that one-off allocation costs fall
        outside timing, and one tiny run through the worker pool."""
        tiny = dataclasses.replace(self.configs[0], n_population=400,
                                   sample_size=40, replicates=4)
        return self.setup_round(1, "warm-up") + [self._run("warm-up", tiny, 2)[0]]

    def setup_round(self, repeats: int, kind: str = "setup") -> list[Op]:
        """Each block at replicates=2: what it pays before its loop amortises."""
        return [self._run(kind, dataclasses.replace(c, replicates=2), 1)[0]
                for _ in range(repeats) for c in self.configs]

    def w1_round(self) -> list[Op]:
        ops = []
        for config in self.configs:
            op, rows = self._run("w1", config, 1)
            if rows is not None:
                if self.reference is not None:
                    op.problems += checks.compare_rows(
                        rows, self.reference["blocks"][config.name])
                self.rows_w1[config.name] = rows
            ops.append(op)
        return ops

    def w2_round(self) -> list[Op]:
        ops = []
        for config in self.configs:
            op, rows = self._run("w2", config, 2)
            if rows is not None and rows != self.rows_w1.get(config.name):
                op.problems.append("workers=2 summary is not bit-identical to workers=1")
            ops.append(op)
        return ops

    def metrics(self, ops: list[Op], time_of) -> dict[str, float]:
        # set-up: median of its repeats; the loops: total time over rounds,
        # like the throughput the detail line reports
        w1 = [op for op in ops if op.kind == "w1"]
        w2 = [op for op in ops if op.kind == "w2"]
        return {
            "setup_s": _per_block(ops, "setup", statistics.median, time_of),
            "wall_s": _per_block(ops, "w1", statistics.fmean, time_of),
            "wall_s_w2": _per_block(ops, "w2", statistics.fmean, time_of),
            "replicates_per_s": sum(op.replicates for op in w1) / sum(map(time_of, w1)),
            "replicates_per_s_w2": sum(op.replicates for op in w2) / sum(map(time_of, w2)),
        }

    def start_workers(self) -> list[Op]:
        return []  # run_scenario starts and stops its own worker pool

    def reference_payload(self) -> dict:
        return {"blocks": self.rows_w1}

    def close(self) -> None:
        pass


def _per_block(ops: list[Op], kind: str, average, time_of) -> float:
    """``average`` of each block's times over the rounds, summed over blocks."""
    by_label: dict[str, list[float]] = {}
    for op in ops:
        if op.kind == kind:
            by_label.setdefault(op.label, []).append(time_of(op))
    return sum(average(v) for v in by_label.values())


def timed_estimate(argv: list[str], calibrate: bool = True
                   ) -> tuple[float, float, object, str]:
    """One in-process ``greglink estimate`` call with its output captured:
    wall time, slowdown, exit code (or what it raised) and output."""
    out, err = io.StringIO(), io.StringIO()
    clock = Stopwatch(calibrate)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with clock:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # a failed call is counted, not fatal
            code = f"raised {type(exc).__name__}: {exc}"
    return clock.seconds, clock.slowdown, code, out.getvalue() + err.getvalue()


def write_estimate_inputs(directory: Path, size: Size, seed: int) -> dict[str, Path]:
    """Aux, population-scope link (with is_best) and SRSWOR sample files.

    The population and links follow table2_block2's linkage parameters.
    """
    n_pop = size.n_population
    x, population = gen_population(PopulationModel(n_units=n_pop, sigma=1.5, gamma=0.0),
                                   rng_stream(seed, 0))
    _, linkage, best = gen_linkage(n_pop, LinkageModel(**TABLE_BLOCKS["table2_block2"]),
                                   rng_stream(seed, 1))
    sample = draw_srswor(n_pop, size.sample_size, rng_stream(seed, 3))
    paths = {name: directory / f"{name}.csv" for name in ("aux", "links", "sample")}
    dataio.write_aux_csv(paths["aux"], aux_from_population(x))
    dataio.write_links_csv(paths["links"], linkage, best_links=best)
    dataio.write_sample_csv(paths["sample"], sample, population.y[sample.ids])
    return paths


def serve_estimates(argv: list[str]) -> None:
    """Loop of a ``w2`` caller process: one timed call per line read from
    stdin, its result as one JSON line on stdout, until stdin closes. The
    parent probes the machine's speed around both callers' calls, while
    they are idle; probes in the two callers at once would slow each other."""
    for _ in sys.stdin:
        print(json.dumps(timed_estimate(argv, calibrate=False)), flush=True)


_ROOT = Path(__file__).resolve().parent.parent
_CALLER = ("import sys; sys.path[:0] = sys.argv[1:3]; "
           "from perfbench.workloads import serve_estimates; serve_estimates(sys.argv[3:])")


class FileEstimateWorkload:
    """``greglink estimate`` from CSV files, in process; ``w2`` has two
    closed-loop callers, each in a process of its own."""

    setup_repeats = 1

    def __init__(self, paths: dict[str, Path], size: Size, reference: dict | None,
                 calibrate: bool):
        self.paths = paths
        self.size = size
        self.reference = reference
        self.calibrate = calibrate
        self.argv = ["estimate", "--sample", str(paths["sample"]),
                     "--aux", str(paths["aux"]), "--links", str(paths["links"]),
                     "--estimator", ",".join(FILE_ESTIMATORS), "--target", "mean",
                     "--big-n", str(size.n_population), "--q", "0.7"]
        self.stdout_w1: str | None = None
        self._callers: list[subprocess.Popen] = []

    def _estimate_op(self, kind: str, seconds: float, slowdown: float, code,
                     stdout: str) -> Op:
        op = Op(kind, "estimate", seconds,
                checks.estimate_problems(code, stdout, FILE_ESTIMATORS), slowdown=slowdown)
        if self.reference is not None:
            op.problems += checks.compare_text(stdout, self.reference["stdout"])
        return op

    def _assemble(self, kind: str) -> Op:
        clock = Stopwatch(self.calibrate)
        try:
            with clock:
                inputs = dataio.assemble_estimation_inputs(
                    self.paths["sample"], self.paths["aux"], self.paths["links"],
                    n_population=self.size.n_population)
        except Exception as exc:  # a failed call is counted, not fatal
            return Op(kind, "assemble", clock.seconds, _error(exc), slowdown=clock.slowdown)
        op = Op(kind, "assemble", clock.seconds, slowdown=clock.slowdown)
        if inputs.sample.n != self.size.sample_size:
            op.problems.append(f"assembled {inputs.sample.n} sampled units, "
                               f"expected {self.size.sample_size}")
        return op

    def warm_up(self) -> list[Op]:
        return [self._assemble("warm-up"),
                self._estimate_op("warm-up", *timed_estimate(self.argv, self.calibrate))]

    def start_workers(self) -> list[Op]:
        """Start the two ``w2`` caller processes and let each make one call."""
        self._callers = [
            subprocess.Popen([sys.executable, "-c", _CALLER, str(_ROOT / "src"),
                              str(_ROOT), *self.argv],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(2)]
        return [self._estimate_op("warm-up", *result) for result in self._call_both()]

    def _call_both(self) -> list[tuple[float, float, object, str]]:
        for caller in self._callers:
            caller.stdin.write("\n")
            caller.stdin.flush()
        return [tuple(json.loads(caller.stdout.readline())) for caller in self._callers]

    def setup_round(self, repeats: int, kind: str = "setup") -> list[Op]:
        return [self._assemble(kind) for _ in range(repeats)]

    def w1_round(self) -> list[Op]:
        seconds, slowdown, code, stdout = timed_estimate(self.argv, self.calibrate)
        self.stdout_w1 = stdout
        return [self._estimate_op("w1", seconds, slowdown, code, stdout)]

    def w2_round(self) -> list[Op]:
        clock = Stopwatch(self.calibrate)
        with clock:
            results = self._call_both()
        ops = []
        for seconds, _, code, stdout in results:
            op = self._estimate_op("w2", seconds, clock.slowdown, code, stdout)
            if stdout != self.stdout_w1:
                op.problems.append("caller process output differs from the in-process output")
            ops.append(op)
        return ops

    def metrics(self, ops: list[Op], time_of) -> dict[str, float]:
        def median(kind: str) -> float:
            return statistics.median(time_of(op) for op in ops if op.kind == kind)
        return {"setup_s": median("setup"), "wall_s": median("w1"),
                "wall_s_w2": median("w2"), "estimate_s_p50": median("w1")}

    def reference_payload(self) -> dict:
        return {"stdout": self.stdout_w1}

    def close(self) -> None:
        for caller in self._callers:
            caller.stdin.close()
        for caller in self._callers:
            try:
                caller.wait(timeout=60)
            except subprocess.TimeoutExpired:
                caller.kill()
                caller.wait()
            caller.stdout.close()
        self._callers = []


def make(name: str, seed: int, smoke: bool, reference: dict | None, workdir: Path,
         calibrate: bool = True):
    """Build a workload from its seed; file inputs are written to ``workdir``.

    With ``calibrate`` every timed operation is bracketed by the speed probe.
    """
    size = SIZES[name][1 if smoke else 0]
    if name == "mc_tables":
        configs = [block_config(block, size, seed, block) for block in TABLE_BLOCKS]
        return MonteCarloWorkload(configs, 6, reference, calibrate)
    if name == "mc_setup_large":
        config = block_config("large_block1", size, seed, "table1_block1")
        return MonteCarloWorkload([config], 1, reference, calibrate)
    if name == "file_estimate":
        return FileEstimateWorkload(write_estimate_inputs(workdir, size, seed), size,
                                    reference, calibrate)
    raise ValueError(f"unknown workload {name!r}")
