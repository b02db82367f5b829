"""Monte Carlo driver: repeated samples, estimator summaries, result tables.

One population and one linkage are generated per scenario block and held
fixed while samples are redrawn, matching the fixed-links inference frame.

Replicates run in chunks of ``REPLICATE_CHUNK`` consecutive indices. Every
estimator the harness runs is linear in y once its per-unit covariates are
fixed, so ``estimators.build_unit_inputs`` builds those once per linkage
(for the link-set estimator, the sums over each unit's links) and a chunk
gathers them for all its samples and fits each estimator with
``estimators.fit_unit_inputs``, in stacked array operations. A failed fit
(singular normal equations, too few single-link units or links) records NaN
for that estimator in that replicate only.

Replicate k always draws the sample that the stream derived from (seed, k)
gives, and its result depends only on that sample: ``fit_unit_inputs``
fits a sample alone as it fits it in a stack. So neither the chunk size
nor the worker count moves any bit of the summaries. ``workers`` > 1 hands
whole chunks to a thread pool. A chunk is a few large numpy and LAPACK
calls, which release the GIL, so threads run chunks in parallel and share
the block's inputs without copying them.

A chunk draws its samples with ``design.replicate_ids``, which replays
the end of numpy's seeding, PCG64 and Floyd's sampler in array operations
over the chunk and falls back to the stream itself for any row or case it
cannot reproduce, so its ids equal the per-stream ``srswor_ids`` bit for
bit.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .design import SurveyDesign, replicate_ids, rng_stream
from .errors import NumericalError, ValidationError
from .estimators import UnitInputs, build_unit_inputs, fit_unit_inputs
from .linkage import multiplicity_weights, reverse_weights_best_link
from .synthpop import (
    LinkageModel,
    PopulationModel,
    aux_from_population,
    gen_linkage,
    gen_pi_q_weights,
    gen_population,
)

ESTIMATOR_ORDER = ("ht", "ideal", "sub", "pi-m", "pi-q", "sbl", "sri-q", "sls")
ESTIMATOR_LABELS = {
    "ht": "HT",
    "ideal": "Ideal",
    "sub": "Sub",
    "pi-m": "PI-m",
    "pi-q": "PI-q",
    "sbl": "SBL",
    "sri-q": "SRI-q",
    "sls": "SLS",
}

# stream tags: population draw, linkage draw, incidence-weight draw, replicates
_POP_KEY, _LINK_KEY, _WEIGHT_KEY, _REPLICATE_KEY = 0, 1, 2, 3

MAX_FAILURE_SHARE = 0.01

# replicates fitted together; bounds the stacked arrays to a few hundred kB
REPLICATE_CHUNK = 250


@dataclass(frozen=True)
class ScenarioConfig:
    """All parameters of one simulation block."""

    name: str
    n_population: int
    sample_size: int
    replicates: int
    link_share: tuple[float, float, float] = (0.2, 0.4, 0.4)
    match_rate: float = 0.4
    correct_best_rate: float = 0.4
    best_link_weight: float = 0.4
    sigma: float = 1.5
    gamma: float = 0.0
    estimators: tuple[str, ...] = ESTIMATOR_ORDER
    seed: int = 0
    target: str = "mean"

    def __post_init__(self) -> None:
        if self.replicates < 2:
            raise ValidationError("need at least 2 replicates")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if not 2 <= self.sample_size < self.n_population:
            # one unit leaves no variance estimator; a census (n = N) draws
            # the same sample every replicate, so HT's variance and MSE are 0
            # and RE and RMSE are undefined
            raise ValidationError(f"sample size {self.sample_size} outside "
                                  f"2..{self.n_population - 1}")
        if "/" in self.name or "\\" in self.name or self.name in ("", ".", ".."):
            # simulate --out writes one file per block, named after the block
            raise ValidationError(f"name {self.name!r} cannot be part of a file name")
        if self.target not in ("mean", "total"):
            raise ValidationError(f"unknown target {self.target!r}")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_ORDER]
        if unknown:
            raise ValidationError(f"unknown estimators: {unknown}")
        repeated = [tag for tag, n in Counter(self.estimators).items() if n > 1]
        if repeated:
            # each would be fitted and reported twice
            raise ValidationError(f"repeated estimators: {repeated}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "link_share",
                           tuple(float(v) for v in self.link_share))
        # fail fast on bad model parameters
        self.population_model()
        self.linkage_model()

    def population_model(self) -> PopulationModel:
        return PopulationModel(n_units=self.n_population, sigma=self.sigma,
                               gamma=self.gamma)

    def linkage_model(self) -> LinkageModel:
        return LinkageModel(link_share=self.link_share,
                            match_rate=self.match_rate,
                            correct_best_rate=self.correct_best_rate,
                            best_link_weight=self.best_link_weight)


def _build_block(config: ScenarioConfig
                 ) -> tuple[np.ndarray, float, list[UnitInputs]]:
    """The block's population values, their true mean or total, and each
    estimator's per-unit inputs over its one linkage; the subsample
    estimator's coefficients are fit on the population's single-link units.

    Each weight scheme is built just before the estimators that use it and
    dropped after them, so at most one is alive at a time, and the matched
    units and best links are dropped after their last use. The order is fixed,
    so the set-up's peak memory does not depend on the order of
    ``config.estimators``: pi-q, whose weight draw has the largest
    transient arrays, comes first while few inputs are alive, and the
    link-set sums come last but before the reverse-weighted sums. Only pi-q
    draws from the weight stream, so the order moves no draw.
    """
    x, population = gen_population(config.population_model(),
                                   rng_stream(config.seed, _POP_KEY))
    aux, y = aux_from_population(x), population.y
    matched, linkage, best = gen_linkage(config.n_population, config.linkage_model(),
                                         rng_stream(config.seed, _LINK_KEY))
    q = config.best_link_weight
    wanted = dict.fromkeys(config.estimators)
    built = {}
    if "pi-q" in wanted:
        built["pi-q"] = build_unit_inputs("pi-q", linkage, aux, gen_pi_q_weights(
            linkage, matched, q, rng_stream(config.seed, _WEIGHT_KEY)))
    del matched
    if "pi-m" in wanted:
        built["pi-m"] = build_unit_inputs("pi-m", linkage, aux, multiplicity_weights(linkage))
    for tag in wanted:
        if tag not in ("pi-m", "pi-q", "sri-q", "sls"):
            built[tag] = build_unit_inputs(tag, linkage, aux, None, best, y)
    if "sls" in wanted or "sri-q" in wanted:
        reverse = reverse_weights_best_link(linkage, best, q)
        del best
        for tag in ("sls", "sri-q"):
            if tag in wanted:
                built[tag] = build_unit_inputs(tag, linkage, aux, reverse)
    truth = population.mean if config.target == "mean" else population.total
    return y, truth, [built[tag] for tag in config.estimators]


def _run_chunk(config: ScenarioConfig, y: np.ndarray, inputs: list[UnitInputs],
               indices: range) -> tuple[np.ndarray, np.ndarray]:
    """Values and variance estimates (len(indices), n_estimators) of one
    chunk of replicates; NaN where an estimator failed."""
    design = SurveyDesign(config.n_population, config.sample_size)
    ids = replicate_ids(config.n_population, config.sample_size, config.seed,
                        (_REPLICATE_KEY,), indices)
    y_s = np.take(y, ids)
    pi = np.full(ids.shape, design.f)

    values = np.empty((len(indices), len(inputs)))
    varests = np.empty_like(values)
    for j, unit_inputs in enumerate(inputs):
        fit = fit_unit_inputs(unit_inputs, ids, y_s, pi, design, config.target)
        values[:, j] = fit.values
        varests[:, j] = fit.variances
    return values, varests


@dataclass(frozen=True)
class EstimatorSummary:
    """Monte Carlo metrics of one estimator within one scenario block."""

    estimator: str
    mean: float
    variance: float
    mse: float
    mean_variance_estimate: float
    se: float
    ese: float
    re: float | None
    rmse: float | None
    failures: int

    @property
    def label(self) -> str:
        return ESTIMATOR_LABELS.get(self.estimator, self.estimator)


@dataclass(frozen=True)
class MonteCarloSummary:
    config: ScenarioConfig
    truth: float
    estimators: tuple[EstimatorSummary, ...]

    @property
    def name(self) -> str:
        return self.config.name

    def get(self, tag: str) -> EstimatorSummary:
        for est in self.estimators:
            if est.estimator == tag:
                return est
        raise KeyError(tag)


def run_scenario(config: ScenarioConfig, workers: int = 1) -> MonteCarloSummary:
    """Run one scenario block and aggregate its Monte Carlo metrics.

    An estimator failing in a replicate (singular fit, starving subsample)
    is recorded and skipped; more than 1 percent failures for any estimator
    aborts the run. ``workers`` > 1 runs whole chunks of replicates in a
    thread pool of at most one thread per chunk, so a single chunk runs in
    the calling thread; an error raised in a chunk is raised here as it is.
    Aggregation is a sequential reduction in replicate order, so results do
    not depend on thread scheduling.
    """
    y, truth, inputs = _build_block(config)
    k_total = config.replicates
    chunks = [range(start, min(start + REPLICATE_CHUNK, k_total))
              for start in range(0, k_total, REPLICATE_CHUNK)]
    run_chunk = partial(_run_chunk, config, y, inputs)
    # no more threads than chunks, so a single chunk starts no pool
    workers = min(workers, len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = list(map(run_chunk, chunks))
    tags = config.estimators
    values = np.concatenate([r[0] for r in results])
    varests = np.concatenate([r[1] for r in results])

    ok = np.isfinite(values)
    failures = [int(k_total - n_ok) for n_ok in ok.sum(axis=0)]
    for tag, n_failed in zip(tags, failures):
        if n_failed > MAX_FAILURE_SHARE * k_total:
            raise NumericalError(
                f"estimator {tag} failed in {n_failed} of {k_total} replicates"
            )
    # at most 1 percent failed, so every estimator kept at least 2 replicates
    kept = [values[ok[:, j], j] for j in range(len(tags))]
    variances = [float(v.var(ddof=1)) for v in kept]
    mses = [float(np.mean((v - truth) ** 2)) for v in kept]
    ht = tags.index("ht") if "ht" in tags else None
    rows = []
    for j, tag in enumerate(tags):
        mean_varest = float(np.nanmean(varests[ok[:, j], j]))
        rows.append(EstimatorSummary(
            estimator=tag,
            mean=float(kept[j].mean()),
            variance=variances[j],
            mse=mses[j],
            mean_variance_estimate=mean_varest,
            se=math.sqrt(variances[j]),
            ese=math.sqrt(mean_varest),
            re=None if ht is None else variances[j] / variances[ht],
            rmse=None if ht is None else mses[j] / mses[ht],
            failures=failures[j],
        ))
    return MonteCarloSummary(config=config, truth=truth, estimators=tuple(rows))


_METRICS = ("SE", "ESE", "RE", "RMSE")


def _metric_value(est: EstimatorSummary, metric: str) -> float | None:
    return {"SE": est.se, "ESE": est.ese, "RE": est.re, "RMSE": est.rmse}[metric]


def summary_csv_rows(summary: MonteCarloSummary) -> list[tuple[str, str, float]]:
    """Rows (metric, estimator, value) for CSV output, full precision."""
    rows = []
    for metric in _METRICS:
        for est in summary.estimators:
            value = _metric_value(est, metric)
            if value is not None:
                rows.append((metric, est.estimator, value))
    return rows


def summarize_to_table(summaries: list[MonteCarloSummary]) -> str:
    """Aligned text tables, one block per summary, metrics by estimator."""
    blocks = []
    for summary in summaries:
        cfg = summary.config
        head = (f"{summary.name}: target={cfg.target} truth={summary.truth:.6g} "
                f"replicates={cfg.replicates}")
        labels = [est.label for est in summary.estimators]
        width = max([10] + [len(lab) + 2 for lab in labels])
        lines = [head,
                 "metric" + "".join(f"{lab:>{width}}" for lab in labels)]
        for metric in _METRICS:
            cells = []
            for est in summary.estimators:
                value = _metric_value(est, metric)
                cells.append("-".rjust(width) if value is None
                             else f"{value:>{width}.6g}")
            lines.append(f"{metric:<6}" + "".join(cells))
        failures = {est.label: est.failures for est in summary.estimators
                    if est.failures}
        if failures:
            lines.append(f"failed replicates: {failures}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# scenario files: flat "key = value" lines, blocks separated by blank lines

_SCENARIO_KEYS = {
    "name": ("name", str),
    "population": ("n_population", int),
    "sample": ("sample_size", int),
    "replicates": ("replicates", int),
    "p1": ("_p1", float),
    "p2": ("_p2", float),
    "p3": ("_p3", float),
    "match_rate": ("match_rate", float),
    "correct_best_rate": ("correct_best_rate", float),
    "q": ("best_link_weight", float),
    "sigma": ("sigma", float),
    "gamma": ("gamma", float),
    "seed": ("seed", int),
    "target": ("target", str),
    "estimators": ("estimators", lambda v: tuple(t.strip() for t in v.split(",") if t.strip())),
}

_REQUIRED_KEYS = ("population", "sample", "replicates")


def parse_scenario_text(text: str, source: str = "<string>") -> list[ScenarioConfig]:
    """Parse scenario blocks; raises with the offending line on bad input."""
    blocks: list[dict] = []
    current: dict = {}

    def close_block() -> None:
        nonlocal current
        if current:
            blocks.append(current)
            current = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            close_block()
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise ValidationError(f"{source}:{lineno}: unknown scenario key {key!r}")
        field_name, parser = _SCENARIO_KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ValidationError(
                f"{source}:{lineno}: bad value for {key!r}: {value!r}"
            ) from exc
        if field_name in current:
            raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        current[field_name] = parsed
    close_block()

    configs = []
    block_of: dict[str, int] = {}  # each name's block, numbered from 1
    for i, fields in enumerate(blocks, start=1):
        for key in _REQUIRED_KEYS:
            field_name = _SCENARIO_KEYS[key][0]
            if field_name not in fields:
                raise ValidationError(
                    f"{source}: block {i} is missing required key {key!r}"
                )
        shares = (fields.pop("_p1", 0.2), fields.pop("_p2", 0.4), fields.pop("_p3", 0.4))
        fields["link_share"] = shares
        name = fields.setdefault("name", f"block{i}")
        if name in block_of:
            # --out writes one file per block name
            raise ValidationError(f"{source}: block {i} repeats the name {name!r} "
                                  f"of block {block_of[name]}")
        block_of[name] = i
        try:
            configs.append(ScenarioConfig(**fields))
        except ValidationError as exc:
            raise ValidationError(f"{source}: block {i}: {exc}") from exc
    return configs


def load_scenario_file(path: str | Path) -> list[ScenarioConfig]:
    path = Path(path)
    return parse_scenario_text(path.read_text(encoding="utf-8"), source=str(path))
