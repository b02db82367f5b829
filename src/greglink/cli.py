"""Command-line interface: simulate, estimate, diagnose, oracle.

Exit codes: 0 success, 1 validation error (bad options, files, parameters
or invariants), 2 numerical failure (singular fits, enumeration guard,
values that overflow double precision).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from .dataio import EstimationInputs, assemble_estimation_inputs
from .design import Estimate, exact_design_moments, rng_stream, sample_count
from .errors import NumericalError, ValidationError
from .estimators import (
    DIAGNOSTIC_KINDS,
    ESTIMATORS,
    DiagnosticsReport,
    UnitInputs,
    build_estimators,
    check_estimator_ids,
    diagnose_unit_inputs,
    fit_unit_inputs,
    link_sums,
    npa_covariances,
)
from .harness import (
    load_scenario_file,
    run_scenario,
    summarize_to_table,
    summary_csv_rows,
)
from .linkage import (
    INCIDENCE,
    POPULATION,
    REVERSE,
    LinkageStructure,
    WeightSumError,
    link_weights,
)
from .synthpop import PopulationModel, gen_population

FILE_ESTIMATORS = ("ht", "pi", "sub", "sbl", "sri", "sls")


def _fmt(value: float | None) -> str:
    return "unavailable" if value is None else f"{value:.6g}"


def _print_estimate(est: Estimate, diagnostics: DiagnosticsReport | None) -> None:
    print(f"estimator: {est.estimator}")
    print(f"target: {est.target}")
    print(f"point estimate: {_fmt(est.value)}")
    print(f"variance estimate: {_fmt(est.variance)}")
    print(f"standard error: {_fmt(est.se)}")
    if diagnostics is not None:
        _print_diagnostic(diagnostics)
    print()


def _print_diagnostic(report: DiagnosticsReport) -> None:
    stats = ", ".join(
        f"component {j + 1}: value {value:.6g} z {'unavailable' if np.isnan(z) else f'{z:.3g}'}"
        for j, (value, z) in enumerate(zip(report.value[0], report.z[0]))
    )
    print(f"consistency diagnostic ({report.statistic}): {stats}")


def _named(exc: WeightSumError, inputs: EstimationInputs) -> ValidationError:
    """``exc`` naming its unit or record by its id in the files."""
    keys = inputs.record_keys if exc.kind == INCIDENCE else inputs.unit_keys
    return ValidationError(exc.message(keys[exc.index]))


def build_file_estimators(inputs: EstimationInputs, estimators: list[str],
                          q: float) -> dict[str, UnitInputs]:
    """Each of ``estimators``' inputs, by id, from one ``build_estimators``
    call over the file's links, which checks each id's inputs and every unit's
    weights and flags, after the sample file's checks. They are gathered, and
    ``sub`` fits, at the sampled units' ids, their covered positions."""
    if inputs.sample is None:
        raise ValidationError("estimation needs a sample file")
    if "sub" in estimators and not inputs.sample.equal_probability:
        raise ValidationError("sub needs an equal-probability sample")
    try:
        built = build_estimators(estimators, inputs.linkage, inputs.aux, inputs.weights,
                                 inputs.best_links, q, inputs.y, inputs.sample.ids)
    except WeightSumError as exc:
        raise _named(exc, inputs) from None
    return dict(zip(estimators, built))


def estimate_from_inputs(inputs: EstimationInputs, estimator: str, target: str,
                         built: dict[str, UnitInputs]
                         ) -> tuple[Estimate, DiagnosticsReport | None]:
    """Fit one file-based estimator from its ``build_file_estimators`` inputs
    in ``built``, and compute its diagnostic, when defined, on the rows it
    was fitted on, as a stack of one sample."""
    sample, unit_inputs = inputs.sample, built[estimator]
    pos, pi = sample.ids[None], sample.pi[None]
    fit = fit_unit_inputs(unit_inputs, pos, inputs.y[None], pi, sample.design, target,
                          strict=True)
    diag = None if ESTIMATORS[estimator].diagnostic is None else diagnose_unit_inputs(
        unit_inputs, pos, pi, inputs.aux, sample.design)
    return fit.first(estimator, target), diag


def _check_q(q: float) -> None:
    if not 0 < q <= 1:
        raise ValidationError(f"--q must lie in (0, 1], got {q}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValidationError(f"--workers must be at least 1, got {args.workers}")
    configs = load_scenario_file(args.scenario)
    if not configs:
        raise ValidationError(f"{args.scenario}: no scenario blocks found")
    if args.replicates is not None:
        configs = [dataclasses.replace(c, replicates=args.replicates) for c in configs]
    if args.seed is not None:
        configs = [dataclasses.replace(c, seed=args.seed) for c in configs]
    summaries = [run_scenario(c, workers=args.workers) for c in configs]
    # only once every block has run, so a rejected block prints one error line
    small = [c.name for c in configs if c.replicates < 30]
    if small:
        print(f"warning: fewer than 30 replicates in {', '.join(small)}; "
              "Monte Carlo error is large", file=sys.stderr)
    text = summarize_to_table(summaries)
    print(text)

    if args.out:
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        for summary in summaries:
            csv_path = Path(f"{prefix}_{summary.name}.csv")
            with csv_path.open("w", encoding="utf-8") as handle:
                handle.write("metric,estimator,value\n")
                for metric, estimator, value in summary_csv_rows(summary):
                    handle.write(f"{metric},{estimator},{value!r}\n")
        Path(f"{prefix}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"wrote {prefix}.txt and per-block CSV files")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    _check_q(args.q)
    estimators = [e.strip() for e in args.estimator.split(",") if e.strip()]
    check_estimator_ids(estimators, FILE_ESTIMATORS)
    inputs = assemble_estimation_inputs(args.sample, args.aux, args.links,
                                        n_population=args.big_n)
    # every input is built, and every estimate computed, before any is
    # printed, so a failure prints none
    built = build_file_estimators(inputs, estimators, args.q)
    results = [estimate_from_inputs(inputs, estimator, args.target, built)
               for estimator in estimators]
    for est, diag in results:
        _print_estimate(est, diag)
    return 0


def _echo_structure(linkage: LinkageStructure, unit_keys: list[str],
                    record_keys: list[str], limit: int) -> None:
    print(f"scope: {linkage.scope}")
    print(f"units covered: {linkage.n_covered}, records: {linkage.n_records}, "
          f"links: {linkage.n_links}")
    for unit in linkage.covered_units[:limit]:
        records = [record_keys[r] for r in linkage.records_of(int(unit))]
        print(f"unit {unit_keys[unit]}: links {records} (d={len(records)})")
    if linkage.n_covered > limit:
        print(f"... {linkage.n_covered - limit} more units")
    linked = np.flatnonzero(linkage.multiplicities)
    shown = linked[:limit]
    if len(shown):
        # one stable sort by record of just the shown records' links keeps
        # each record's units ascending, as the links are ordered by unit
        near = np.flatnonzero(linkage.link_records <= shown[-1])
        near = near[np.argsort(linkage.link_records[near], kind="stable")]
        ends = np.cumsum(linkage.multiplicities[shown])
        name = "units" if linkage.scope == POPULATION else "sample units"
        for record, units in zip(shown, np.split(linkage.link_units[near], ends[:-1])):
            print(f"record {record_keys[record]}: {name} "
                  f"{[unit_keys[u] for u in units]} (m={len(units)})")
    if len(linked) > limit:
        print(f"... {len(linked) - limit} more records")


def _npa_lines(inputs: EstimationInputs) -> list[str]:
    """Informativeness covariances of population links, over the incidence
    weights ``pi`` gets, or a weight column valid only as reverse weights."""
    if inputs.linkage.scope != POPULATION:
        return []
    try:
        scheme = link_weights(INCIDENCE, inputs.linkage, inputs.weights)
    except WeightSumError as incidence_error:
        # neither kind fits: report it as `estimate --estimator pi` does
        try:
            scheme = link_weights(REVERSE, inputs.linkage, inputs.weights)
        except ValidationError:
            raise _named(incidence_error, inputs) from None
    npa = npa_covariances(inputs.linkage, scheme, inputs.aux)
    cov1 = ", ".join(f"{v:.6g}" for v in npa.weight_x_cov)
    cov2 = ", ".join(f"{v:.6g}" for v in npa.indicator_x_cov)
    return [f"weight-value covariance over links: {cov1}",
            f"linked-indicator covariance over records: {cov2} "
            f"({npa.n_linked_records} of {inputs.linkage.n_records} records linked)"]


def _sample_diagnostics(inputs: EstimationInputs, q: float) -> list[DiagnosticsReport]:
    """The consistency diagnostics the files allow, each by
    ``diagnose_unit_inputs`` on the rows its estimator fits: ``sbl`` needs
    best links, and ``sls`` no weights, as its rows are the ``link_sums``.

    ``sri`` is left out when the weight column fails as reverse weights yet
    covers the population, for ``_npa_lines`` has then taken it as ``pi``'s
    incidence weights.
    """
    built = {"sls": UnitInputs("sls", (link_sums(inputs.linkage, inputs.aux),))}
    tags = ["sri", "sbl"] if inputs.best_links is not None else ["sri"]
    try:
        built.update(build_file_estimators(inputs, tags, q))
    except ValidationError:
        if inputs.weights is None or inputs.linkage.scope != POPULATION:
            raise
        built.update(build_file_estimators(inputs, tags[1:], q))
    return [diagnose_unit_inputs(built[tag], inputs.sample.ids[None], inputs.sample.pi[None],
                                 inputs.aux, inputs.sample.design)
            for tag in DIAGNOSTIC_KINDS if tag in built]


def _cmd_diagnose(args: argparse.Namespace) -> int:
    _check_q(args.q)
    if args.limit < 0:
        raise ValidationError(f"--limit must be nonnegative, got {args.limit}")
    inputs = assemble_estimation_inputs(args.sample, args.aux, args.links,
                                        n_population=args.big_n)
    # everything is computed before anything is printed, so a failure prints nothing
    npa = _npa_lines(inputs)
    reports = None if inputs.sample is None else _sample_diagnostics(inputs, args.q)
    _echo_structure(inputs.linkage, inputs.unit_keys, inputs.record_keys, args.limit)
    for line in npa:
        print(line)
    if reports is not None:
        print()
        for report in reports:
            _print_diagnostic(report)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    if args.n < 2:
        # one unit per sample leaves the variance estimator undefined
        raise ValidationError(f"--n must be at least 2, got {args.n}")
    model = PopulationModel(n_units=args.big_n, sigma=args.sigma, gamma=args.gamma)
    # decided before the draw, which at a large --big-n would allocate gigabytes
    sample_count(args.big_n, args.n)
    _, population = gen_population(model, rng_stream(args.seed, 0))
    y = population.y
    moments = exact_design_moments(y, args.n)
    truth = float(y.sum())
    dev_mean = abs(moments.expectation - truth) / max(abs(truth), 1e-300)
    dev_var = abs(moments.expected_variance_estimate - moments.variance)
    dev_var /= max(abs(moments.variance), 1e-300)
    print(f"enumerated C({args.big_n},{args.n}) = {moments.n_samples} samples")
    print(f"max relative deviation, estimator expectation vs truth: {dev_mean:.6g}")
    print(f"max relative deviation, expected variance estimate vs exact variance: "
          f"{dev_var:.6g}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a validation error (exit 1)."""

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="greglink",
        description="Population total and mean estimation from imperfectly "
                    "linked auxiliary data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run scenario blocks and print metric tables")
    p_sim.add_argument("scenario", help="scenario file (key = value blocks)")
    p_sim.add_argument("--out", help="output prefix for CSV and text tables")
    p_sim.add_argument("--seed", type=int, default=None, help="override every block's seed")
    p_sim.add_argument("--k", "--replicates", dest="replicates", type=int,
                       default=None, help="override every block's replicate count")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="worker threads, at least 1 (default 1)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate from sample, auxiliary and link files")
    p_est.add_argument("--sample", required=True, help="CSV unit_id,y,pi")
    p_est.add_argument("--aux", required=True, help="CSV record_id,x1,...,xp")
    p_est.add_argument("--links", required=True,
                       help="CSV unit_id,record_id[,weight][,is_best]")
    p_est.add_argument("--estimator", default="sri",
                       help=f"comma-separated subset of {','.join(FILE_ESTIMATORS)}")
    p_est.add_argument("--target", choices=("total", "mean"), default="total")
    p_est.add_argument("--big-n", dest="big_n", type=int, required=True,
                       help="population size N")
    p_est.add_argument("--q", type=float, default=0.4,
                       help="best-link weight when building reverse weights from is_best")
    p_est.set_defaults(func=_cmd_estimate)

    p_diag = sub.add_parser("diagnose", help="echo the link structure and consistency checks")
    p_diag.add_argument("--aux", required=True)
    p_diag.add_argument("--links", required=True)
    p_diag.add_argument("--sample", default=None)
    p_diag.add_argument("--big-n", dest="big_n", type=int, default=None,
                        help="population size N; required with --sample")
    p_diag.add_argument("--q", type=float, default=0.4)
    p_diag.add_argument("--limit", type=int, default=50,
                        help="maximum units/records echoed")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_orc = sub.add_parser("oracle", help="exact enumeration check of design unbiasedness")
    p_orc.add_argument("--big-n", dest="big_n", type=int, required=True)
    p_orc.add_argument("--n", type=int, required=True)
    p_orc.add_argument("--seed", type=int, default=0)
    p_orc.add_argument("--sigma", type=float, default=1.5)
    p_orc.add_argument("--gamma", type=float, default=0.0)
    p_orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "simulate":
            # the harness counts a failed fit in a replicate as NaN
            return args.func(args)
        # elsewhere an overflowing or invalid operation fails the command
        # rather than print the number it made
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's names the allocation it could not make
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
