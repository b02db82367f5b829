"""Record the benchmark's end-to-end metrics in ``BENCH_<label>.json``.

    python3 bench/record.py --label baseline                # 5 runs of each workload
    python3 bench/record.py --label try --repeats 1 --smoke --workload mc_setup_large

Each run is ``python3 perfbench/run.py --workload W --trace 0`` (the command of
``BENCHMARK.json``) in a child process. The workloads take turns, one run of
each per repeat, so a slow spell of the host falls on all of them. For every
metric the record keeps the median, Q1 and Q3 over the runs, and beside them
the failed operations, the median probe ``slowdown``, and each run's minor
page faults, read from ``getrusage(RUSAGE_CHILDREN)`` before and after the
child. It also records what was measured, and where: the commit, the number
of usable CPUs, the Python and numpy versions and the date.

Each run is repeated at once with ``MALLOC_ARENA_MAX=1`` in the child's
environment only, and those runs are summarised the same way under
``workloads_one_arena``: glibc's malloc then keeps one arena, so the peak RSS
and the two-worker wall time no longer move with how the threads' memory is
spread over arenas.

Under ``startup`` it keeps the median, Q1 and Q3 of the wall seconds of
``python -c 'import greglink.cli'`` and of ``python -m greglink.cli simulate``
on each bundled reference block (``--k 2`` under ``--smoke``), run as many
times each as the workloads, with the sources of this checkout: at the
paper's sizes most of a block's wall time is start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_BLOCKS = ("table1_block1", "table2_block2", "table3_block3")


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _provenance(spec: dict, args: argparse.Namespace) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": spec["command"],
        "repeats": args.repeats,
        "seconds": 0 if args.smoke else spec["run_seconds"],
        "smoke": args.smoke,
    }


def _run(command: list[str], env: dict[str, str] | None = None) -> dict:
    """One child run, in ``env`` (by default this process's environment): its
    last stdout line, its probe slowdown and its minor faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, env=env)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "slowdown": detail["slowdown"],
            "minor_faults": faults}


def _startup(repeats: int, smoke: bool) -> dict:
    """Wall seconds of importing the CLI and of simulating each reference
    block, in turns, ``repeats`` times each."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    commands = {"import_cli": [sys.executable, "-c", "import greglink.cli"]}
    for block in REFERENCE_BLOCKS:
        commands[f"simulate_{block}"] = [
            sys.executable, "-m", "greglink.cli", "simulate", f"scenarios/{block}.scenario",
            *(["--k", "2"] if smoke else [])]
    seconds: dict[str, list[float]] = {name: [] for name in commands}
    for repeat in range(repeats):
        for name, command in commands.items():
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, env=env)
            seconds[name].append(time.perf_counter() - start)
            if done.returncode != 0:
                raise SystemExit(f"error: {' '.join(command)} exited {done.returncode}:\n"
                                 f"{done.stderr.strip()}")
            print(f"{name} {repeat + 1}/{repeats}: {seconds[name][-1]:.3f} s", file=sys.stderr)
    return {name: {"unit": "s", **_spread(values)} for name, values in seconds.items()}


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs: list[dict], units: dict[str, str]) -> dict:
    return {
        "metrics": {name: {"unit": unit, **_spread([r["metrics"][name] for r in runs])}
                    for name, unit in units.items()},
        "minor_faults": _spread([r["minor_faults"] for r in runs]),
        "slowdown": statistics.median(r["slowdown"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=5, help="runs of each workload")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, passed to each run")
    parser.add_argument("--workload", action="append", choices=names,
                        help="record only this workload (repeatable; default: all)")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error(f"--label must be letters, digits, '_', '.' or '-', got {args.label!r}")
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    workloads = args.workload or names

    extra = ["--smoke"] if args.smoke else []
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    provenance = _provenance(spec, args)
    one_arena = {**os.environ, "MALLOC_ARENA_MAX": "1"}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    arena_runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for repeat in range(args.repeats):
        for w in workloads:
            command = [*spec["command"], "--workload", w, "--trace", "0", *extra]
            for kept, env, name in ((runs, None, "run"),
                                    (arena_runs, one_arena, "one-arena run")):
                kept[w].append(_run(command, env))
                print(f"{w} {name} {repeat + 1}/{args.repeats}: "
                      + json.dumps(kept[w][-1]["metrics"]), file=sys.stderr)

    record = {"label": args.label, "provenance": provenance,
              "workloads": {w: _summary(runs[w], units) for w in workloads},
              "workloads_one_arena": {w: _summary(arena_runs[w], units) for w in workloads},
              "startup": _startup(args.repeats, args.smoke)}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
