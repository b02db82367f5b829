"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload mc_tables --seed 15 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing; ``--trace 1`` makes a separate run at one worker that alternates an
untraced and a traced pass of the same operations and reports the per-layer
metrics. ``--smoke`` runs toy sizes in a few seconds. At the default seed the
outputs are compared with the references in ``perfbench/reference``;
``--write-reference`` rewrites them instead.

The greglink sources are imported from ``src/`` of the checkout that holds
this file; without them the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# per-layer groups whose share of traced wall time tells the workloads apart
LOOP_LAYERS = ("estimators.", "design.", "linkage.LinkageStructure.restrict",
               "linkage.WeightScheme.restrict")
SETUP_LAYERS = ("synthpop.", "linkage.build_linkage", "linkage.reverse_weights_best_link",
                "linkage.best_link_indicator_weights", "linkage.multiplicity_weights",
                "linkage.derive_covariates")


def _import_program():
    """Import greglink and the workloads from this checkout only."""
    src = ROOT / "src"
    if not (src / "greglink" / "__init__.py").is_file():
        raise SystemExit(f"error: greglink sources not found under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import greglink
    if Path(greglink.__file__).resolve().parent != src / "greglink":
        raise SystemExit(f"error: imported greglink from {greglink.__file__}, not {src}")
    from perfbench import checks, tracer, workloads
    return checks, tracer, workloads


def _peak_rss_mb() -> float:
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def _measure(workload, seconds: float, min_rounds: int) -> tuple[list, dict]:
    """Closed loop of rounds (setup, workers=1, workers=2) for ``seconds``."""
    ops = workload.warm_up() + workload.start_workers()
    timed, rounds = [], 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        timed += workload.setup_round(workload.setup_repeats)
        timed += workload.w1_round()
        timed += workload.w2_round()
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now - start + (now - round_start) > seconds:
            break
    # end to end at the reference speed; the plain wall times on the detail line
    metrics = workload.metrics(timed, lambda op: op.scaled)
    metrics.update({f"{k}_unscaled": v for k, v in
                    workload.metrics(timed, lambda op: op.seconds).items()})
    metrics["slowdown"] = statistics.median(op.slowdown for op in timed)
    metrics["rounds"] = rounds
    return ops + timed, metrics


def _group_share(selfs: dict[str, float], prefixes: tuple[str, ...]) -> float:
    return sum(v for name, v in selfs.items() if name.startswith(prefixes))


def _trace(workload, workloads, tracer_mod, seconds: float, spans_path: Path,
           name: str) -> tuple[list, dict]:
    """Alternate untraced and traced passes of one setup plus one workers=1 round."""
    ops = workload.warm_up()
    plain, traced, passes = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        ops += workload.setup_round(1) + workload.w1_round()
        plain.append(time.perf_counter() - pair_start)
        tracer = tracer_mod.Tracer()
        with tracer_mod.installed(tracer):
            traced_start = time.perf_counter()
            ops += workload.setup_round(1) + workload.w1_round()
            traced.append(time.perf_counter() - traced_start)
        passes.append(tracer)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    tracer_mod.write_spans(spans_path, name, passes)

    selfs = [t.self_times() for t in passes]
    names = sorted({n for s in selfs for n in s})
    # self time in seconds, and as a share of traced wall time (detail line)
    metrics = {f"{n}.self_s": statistics.median(s.get(n, 0.0) for s in selfs) for n in names}
    metrics.update({f"{n}.self_share": statistics.median(
        s.get(n, 0.0) / w for s, w in zip(selfs, traced)) for n in names})
    counts = [dict(t.counts) for t in passes]
    if any(c != counts[0] for c in counts):
        ops.append(workloads.Op("check", "trace counts", 0.0,
                                ["traced counts differ between passes of one run"]))
    metrics.update(counts[0])
    wall = statistics.median(traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - statistics.median(plain)
    metrics["trace.passes"] = len(passes)
    metrics["trace.accounted_share"] = statistics.median(
        sum(s.values()) / w for s, w in zip(selfs, traced))
    for key, prefixes in (("share.loop_layers", LOOP_LAYERS),
                          ("share.setup_layers", SETUP_LAYERS),
                          ("share.dataio", ("dataio.",))):
        metrics[key] = statistics.median(
            _group_share(s, prefixes) / w for s, w in zip(selfs, traced))
    return ops, metrics


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the bundled blocks' seed, 15)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one round")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    checks, tracer_mod, workloads = _import_program()
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    size_dir = "smoke" if args.smoke else "full"
    ref_dir = HERE / "reference" / size_dir
    reference = None
    if args.write_reference:
        if seed != workloads.DEFAULT_SEED or args.trace:
            parser.error("--write-reference needs the default seed and --trace 0")
    elif seed == workloads.DEFAULT_SEED:
        reference = checks.load_reference(ref_dir, args.workload)

    seconds = 0.0 if args.smoke or args.write_reference else args.seconds
    min_rounds = 1 if args.smoke or args.write_reference else 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.make(args.workload, seed, args.smoke, reference, workdir,
                                  calibrate=not args.trace)
        try:
            if args.trace:
                spans = OUT / f"spans_{args.workload}{'_smoke' if args.smoke else ''}.csv"
                ops, values = _trace(workload, workloads, tracer_mod, seconds, spans,
                                     args.workload)
                wanted = spec["per_layer"]
            else:
                ops, values = _measure(workload, seconds, min_rounds)
                wanted = spec["end_to_end"]
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # after close() has waited for the caller processes, so they count
    values["peak_rss_mb"] = _peak_rss_mb()

    if args.write_reference:
        payload = {"seed": seed, "size": size_dir, **workload.reference_payload()}
        checks.write_reference(ref_dir, args.workload, payload)

    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"FAILED {op.kind} {op.label}: {'; '.join(op.problems[:5])}", file=sys.stderr)
    # a layer the workload never calls has no span: its self time and count are 0
    metrics = {m["name"]: {"value": values[m["name"]] if not args.trace
                           else values.get(m["name"], 0 if m["unit"] == "count" else 0.0),
                           "unit": m["unit"]}
               for m in wanted}
    detail = {k: v for k, v in values.items() if k not in metrics}
    detail["failed_share"] = len(failed) / len(ops)
    print(json.dumps({"detail": {"workload": args.workload, "seed": seed,
                                 "trace": args.trace, **detail}}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
