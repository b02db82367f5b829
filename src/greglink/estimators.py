"""Regression estimators of population totals from linked auxiliary data.

All estimators share one template: fit a weighted least-squares assisting
model (an intercept plus some constructed covariate) on the sample, then
correct the Horvitz-Thompson estimator with the gap between a known
calibration total and its sample estimate. The covariate source and the
total distinguish the family members:

==============  =============================  ==========================
estimator       covariate per sampled unit     calibration total
==============  =============================  ==========================
ideal           matched auxiliary value        population covariate total
pop-incidence   incidence-weighted link sum    its known population total
pop-reverse     reverse-weighted link sum      its known population total
sample-reverse  reverse-weighted link sum      N x auxiliary-file mean
best-link       best link's value              N x auxiliary-file mean
link-set        raw link sums (link-level fit) N x auxiliary-file mean
subsample       matched value, single-link     auxiliary-file mean
==============  =============================  ==========================

Estimators whose total is N x the auxiliary-file mean are computable from
sample links alone; their design consistency rests on the linkage being
non-informative of the auxiliary values, which ``consistency_diagnostics``
turns into a testable statistic.

Each estimator's arithmetic lives in one batched kernel (``greg_batch``,
``sub_greg_batch``, ``sls_greg_batch``) over a stack of samples, which the
Monte Carlo harness calls once per chunk of replicates; ``greg``,
``sub_greg`` and ``sls_greg`` validate one sample and run the same kernel
on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import (
    BatchEstimate,
    Estimate,
    Sample,
    SurveyDesign,
    check_finite_values,
    equal_probability_variances,
    residual_variance,
    residual_variances,
    scale_to_target,
)
from .errors import NumericalError, ValidationError
from .linkage import (
    POPULATION,
    REVERSE,
    SAMPLE,
    AuxDatabase,
    LinkageStructure,
    WeightScheme,
    align_best_links,
    derive_covariates,
)

RCOND_THRESHOLD = 1e-12


def _solve_normal_equations(m: np.ndarray, rhs: np.ndarray,
                            strict: bool = True) -> np.ndarray:
    """Solve the stacked systems m b = rhs, (..., q, q) by (..., q).

    A system is near-singular when the ratio of its smallest to its largest
    eigenvalue (in absolute value, from ``eigvalsh``) is below
    ``RCOND_THRESHOLD``. Under ``strict`` the first such system raises
    ``NumericalError`` naming the collinear columns; otherwise it gets a NaN
    solution. The others are solved by LU with partial pivoting.
    """
    eigvals = np.linalg.eigvalsh(m)
    lo, hi = np.abs(eigvals[..., 0]), np.abs(eigvals[..., -1])
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = np.where(hi == 0.0, 0.0, lo / hi)
    singular = rcond < RCOND_THRESHOLD
    if strict and singular.any():
        first = tuple(np.argwhere(singular)[0])
        eigvecs = np.linalg.eigh(m[first])[1]
        involved = np.flatnonzero(np.abs(eigvecs[:, 0]) > 0.3)
        raise NumericalError(
            f"normal-equation matrix is singular (reciprocal condition "
            f"{rcond[first]:.2e}); columns {involved.tolist()} are collinear"
        )
    safe = np.where(singular[..., None, None], np.eye(m.shape[-1]), m)
    b = np.linalg.solve(safe, rhs[..., None])[..., 0]
    b[singular] = np.nan
    return b


def _weighted_least_squares(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                            strict: bool) -> np.ndarray:
    """Stacked b = (X' W X)^-1 X' W y for x (..., n, q), y and w (..., n)."""
    xw_t = np.swapaxes(x * w[..., None], -1, -2)
    return _solve_normal_equations(xw_t @ x, (xw_t @ y[..., None])[..., 0], strict)


def _fitted(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked x @ b for x (..., n, q) and b (..., q)."""
    return (x @ b[..., None])[..., 0]


def wls_coefficients(covariates: np.ndarray, responses: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """Weighted least-squares coefficients b = (X' W X)^-1 X' W y.

    ``weights`` holds the per-observation factors (regression constants over
    inclusion probabilities, for design-weighted fits). The design matrix is
    taken as given; callers wanting an intercept include a constant column.
    """
    x = np.asarray(covariates, dtype=np.float64)
    y = np.asarray(responses, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("covariates must be a 2-d array")
    n, p = x.shape
    if y.shape != (n,) or w.shape != (n,):
        raise ValidationError("responses and weights must align with covariates")
    if n < p:
        raise ValidationError(f"need at least {p} observations, got {n}")
    check_finite_values(y)
    return _weighted_least_squares(x[None], y[None], w[None], strict=True)[0]


def with_intercept(x: np.ndarray) -> np.ndarray:
    """Prepend a constant column to (..., n, p) covariates."""
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)


@dataclass(frozen=True)
class GregSpec:
    """Covariate rows per sampled unit, their calibration total, fit constants.

    ``total`` is the population total of the covariate columns; the model
    intercept and its total (the population size) are added automatically
    unless ``intercept`` is disabled.
    """

    covariates: np.ndarray
    total: np.ndarray
    constants: np.ndarray | None = None
    intercept: bool = True
    tag: str = "greg"

    def __post_init__(self) -> None:
        x = np.asarray(self.covariates, dtype=np.float64)
        t = np.asarray(self.total, dtype=np.float64).reshape(-1)
        if x.ndim != 2 or x.shape[1] != t.shape[0]:
            raise ValidationError("covariate dimension must match the total")
        if x.shape[1] == 0 and not self.intercept:
            raise ValidationError("model needs at least one column")
        c = self.constants
        if c is not None:
            c = np.asarray(c, dtype=np.float64)
            if c.shape != (x.shape[0],) or np.any(c <= 0):
                raise ValidationError("regression constants must be positive, one per unit")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "total", t)
        object.__setattr__(self, "constants", c)

    def design_matrix(self) -> np.ndarray:
        return with_intercept(self.covariates) if self.intercept else self.covariates

    def full_total(self, n_population: int) -> np.ndarray:
        if self.intercept:
            return np.concatenate([[float(n_population)], self.total])
        return self.total


def greg_batch(x: np.ndarray, y: np.ndarray, pi: np.ndarray, total: np.ndarray,
               design: SurveyDesign, constants: np.ndarray | None = None,
               target: str = "total", strict: bool = False) -> BatchEstimate:
    """Regression estimator over stacked samples: T'b plus the design-weighted
    residual total.

    ``x`` (..., n, q) holds each sample's design matrix (intercept included),
    ``y``, ``pi`` and ``constants`` (..., n) its responses, inclusion
    probabilities and regression constants, ``total`` (q,) the full
    calibration total. A near-singular fit gives NaN, or raises under
    ``strict``.
    """
    check_finite_values(y)
    c = 1.0 if constants is None else constants
    b = _weighted_least_squares(x, y, c / pi, strict)
    residuals = y - _fitted(x, b)
    values = b @ total + np.sum(residuals / pi, axis=-1)
    variances = equal_probability_variances(residuals, pi, design)
    values, variances = scale_to_target(values, variances, target,
                                        design.n_population)
    return BatchEstimate(values, variances, b, residuals)


def greg(spec: GregSpec, y: np.ndarray, sample: Sample,
         target: str = "total") -> Estimate:
    """Regression estimator: T'b plus the design-weighted residual total.

    The implied linear weights calibrate exactly: summing them against the
    model columns reproduces the full calibration total (population size and
    covariate total).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (sample.n,):
        raise ValidationError("need one response per sampled unit")
    if spec.covariates.shape[0] != sample.n:
        raise ValidationError("covariate rows must align with the sample")
    constants = None if spec.constants is None else spec.constants[None]
    batch = greg_batch(spec.design_matrix()[None], y[None], sample.pi[None],
                       spec.full_total(sample.design.n_population),
                       sample.design, constants, target, strict=True)
    return batch.first(spec.tag, target)


def calibration_weights(spec: GregSpec, sample: Sample) -> np.ndarray:
    """The linear weights w_i that make greg() equal to sum_i w_i y_i."""
    x = spec.design_matrix()
    total = spec.full_total(sample.design.n_population)
    c = spec.constants if spec.constants is not None else np.ones(sample.n)
    xw = x * (c / sample.pi)[:, None]
    m = xw.T @ x
    ht_x = np.sum(x / sample.pi[:, None], axis=0)
    adjust = _solve_normal_equations(m, total - ht_x)
    g = 1.0 + (x * c[:, None]) @ adjust
    return g / sample.pi


def sub_greg_batch(x: np.ndarray, y: np.ndarray, kept: np.ndarray,
                   coefficients: np.ndarray, aux_mean: np.ndarray,
                   design: SurveyDesign, target: str = "total") -> BatchEstimate:
    """Difference-form subsample estimator over stacked samples.

    ``x`` (..., n, q) holds matched covariates with the intercept first,
    ``y`` (..., n) the responses, ``kept`` (..., n) marks the single-link
    units that enter, and ``coefficients`` (q,) or (..., q) are held fixed.
    A sample with fewer than 2 kept units gives NaN.
    """
    check_finite_values(y)
    b = np.broadcast_to(coefficients, x.shape[:-2] + x.shape[-1:])
    residuals = y - _fitted(x, b)
    n_sub = np.sum(kept, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_values = (b @ np.concatenate([[1.0], aux_mean])
                       + np.sum(residuals * kept, axis=-1) / n_sub)
    mean_variances = residual_variances(residuals, design, kept) / design.n_population**2
    too_few = n_sub < 2
    mean_values = np.where(too_few, np.nan, mean_values)
    mean_variances = np.where(too_few, np.nan, mean_variances)
    if target == "total":
        return BatchEstimate(mean_values * design.n_population,
                             mean_variances * design.n_population**2, b, residuals)
    return BatchEstimate(mean_values, mean_variances, b, residuals)


def sub_greg(y: np.ndarray, covariates: np.ndarray, aux_mean: np.ndarray,
             design: SurveyDesign, coefficients: np.ndarray | None = None,
             target: str = "total", tag: str = "sub") -> Estimate:
    """Regression estimator over the single-link subsample only.

    Takes the responses and matched covariates of the sampled units whose
    link is unique (hence trusted). By default the assisting coefficients
    are fit on the subsample itself (self-normalised, so no inclusion
    probabilities are needed). Passing ``coefficients`` (intercept first)
    switches to the difference form with those coefficients held fixed,
    which avoids refit noise when a stable external fit is available; the
    simulation harness uses this with coefficients fit once per scenario.
    The variance uses the design's sampling fraction with the subsample
    size as the effective size.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(covariates, dtype=np.float64)
    t = np.asarray(aux_mean, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[1] != t.shape[0]:
        raise ValidationError("covariates must align with responses and the mean")
    n_sub = x.shape[0]
    x_full = with_intercept(x)
    if coefficients is None:
        if n_sub <= x_full.shape[1]:
            raise ValidationError(
                f"subsample too small: {n_sub} single-link units for "
                f"{x_full.shape[1]} model columns"
            )
        b = wls_coefficients(x_full, y, np.ones(n_sub))
    else:
        b = np.asarray(coefficients, dtype=np.float64).reshape(-1)
        if b.shape != (x_full.shape[1],):
            raise ValidationError("fixed coefficients must include the intercept")
        if n_sub < 2:
            raise ValidationError("subsample too small: need at least 2 units")
    batch = sub_greg_batch(x_full[None], y[None], np.ones((1, n_sub), dtype=bool),
                           b, t, design, target)
    return batch.first(tag, target)


def link_aggregates(linkage: LinkageStructure, weights: np.ndarray,
                    aux: AuxDatabase, link_constants: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per covered unit, the sums over its links that the link-set fit needs.

    With x_l = (1, record values of link l), w_l the link weight and c_l the
    link constant, returns Σ x_l (n_covered, q), whose first column is the
    degree; Σ c_l x_l x_l' (n_covered, q, q); and Σ c_l w_l x_l
    (n_covered, q). The link-set estimator is linear in these once the
    sample is fixed, so they are computed once per linkage.
    """
    unit_idx = linkage.unit_index_per_link()
    x_links = with_intercept(aux.x[linkage.link_records])
    c = 1.0 if link_constants is None else link_constants
    q = x_links.shape[1]

    def per_unit(values: np.ndarray) -> np.ndarray:
        return np.bincount(unit_idx, weights=values, minlength=linkage.n_covered)

    link_sum = np.column_stack([per_unit(x_links[:, i]) for i in range(q)])
    gram = np.empty((linkage.n_covered, q, q))
    for i in range(q):
        for j in range(i, q):
            gram[:, i, j] = gram[:, j, i] = per_unit(c * x_links[:, i] * x_links[:, j])
    weighted = np.column_stack([per_unit(c * weights * x_links[:, i])
                                for i in range(q)])
    return link_sum, gram, weighted


def sls_greg_batch(link_sum: np.ndarray, gram: np.ndarray, weighted: np.ndarray,
                   y: np.ndarray, pi: np.ndarray, design: SurveyDesign,
                   aux_mean: np.ndarray, target: str = "total",
                   strict: bool = False) -> BatchEstimate:
    """Link-set estimator over stacked samples, from each sampled unit's
    ``link_aggregates`` ((..., n, q), (..., n, q, q), (..., n, q)).

    A sample with fewer than q links, or a near-singular fit, gives NaN;
    under ``strict`` the latter raises.
    """
    check_finite_values(y)
    n_population = design.n_population
    d = link_sum[..., 0]
    link_rate_hat = np.sum(d / pi, axis=-1) / n_population
    link_total_hat = np.sum(link_sum / pi[..., None], axis=-2)
    link_mean_hat = link_total_hat / (link_rate_hat * n_population)[..., None]

    m = np.sum(gram / pi[..., None, None], axis=-3)
    rhs = np.sum(weighted * (y / pi)[..., None], axis=-2)
    rate = link_rate_hat[..., None]
    b = rate * _solve_normal_equations(m, rhs, strict)

    fit_residuals = y - _fitted(link_sum, b) / rate
    aux_mean_full = np.concatenate([[1.0], aux_mean])
    values = b @ (n_population * aux_mean_full) + np.sum(fit_residuals / pi, axis=-1)

    taylor_residuals = (fit_residuals
                        + (d / rate) * np.sum(link_mean_hat * b, axis=-1)[..., None])
    variances = equal_probability_variances(taylor_residuals, pi, design)
    too_few = np.sum(d, axis=-1) < link_sum.shape[-1]
    values = np.where(too_few, np.nan, values)
    variances = np.where(too_few, np.nan, variances)
    values, variances = scale_to_target(values, variances, target, n_population)
    return BatchEstimate(values, variances, b, taylor_residuals)


def sls_greg(linkage: LinkageStructure, scheme: WeightScheme, aux: AuxDatabase,
             y: np.ndarray, sample: Sample, link_constants: np.ndarray | None = None,
             target: str = "total", tag: str = "sls") -> Estimate:
    """Regression estimator fitted over the sample link set.

    The assisting fit regresses the reverse-weighted responses on the record
    values link by link (with a link-level intercept), a link inheriting its
    unit's inclusion probability. The calibration gap compares the
    auxiliary-file mean with the estimated mean over linked records, scaled
    by the estimated link rate. Variance comes from the first-order
    expansion of that ratio, which adds a link-count term to the plain fit
    residuals.
    """
    if linkage.scope != SAMPLE or not np.array_equal(linkage.covered_units, sample.ids):
        raise ValidationError("link-set estimator needs the sample's own links")
    if scheme.kind != REVERSE or scheme.linkage is not linkage:
        raise ValidationError("link-set estimator needs reverse weights on these links")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (sample.n,):
        raise ValidationError("need one response per sampled unit")
    dim = aux.dim + 1
    if linkage.n_links < dim:
        raise ValidationError(f"need at least {dim} links, got {linkage.n_links}")
    c_links = (None if link_constants is None
               else np.asarray(link_constants, dtype=np.float64))
    if c_links is not None and (c_links.shape != (linkage.n_links,) or np.any(c_links <= 0)):
        raise ValidationError("link constants must be positive, one per link")

    link_sum, gram, weighted = link_aggregates(linkage, scheme.values, aux, c_links)
    batch = sls_greg_batch(link_sum[None], gram[None], weighted[None], y[None],
                           sample.pi[None], sample.design, aux.mean, target,
                           strict=True)
    return batch.first(tag, target)


@dataclass(frozen=True)
class NpaCovariances:
    """Empirical covariances that quantify linkage informativeness.

    ``weight_x_cov`` is the covariance of the link weights with the record
    values over all population links; ``indicator_x_cov`` the covariance of
    the linked-record indicator with the record values over the auxiliary
    file. Both tend to zero when the linkage carries no information about
    the auxiliary values, which is the consistency condition for the
    sample-link estimators.
    """

    weight_x_cov: np.ndarray
    indicator_x_cov: np.ndarray
    n_linked_records: int
    linked_total: np.ndarray


def npa_covariances(linkage: LinkageStructure, scheme: WeightScheme,
                    aux: AuxDatabase) -> NpaCovariances:
    """Compute the two non-informativeness covariances over population links."""
    if linkage.scope != POPULATION:
        raise ValidationError("informativeness covariances need population links")
    if scheme.linkage is not linkage:
        raise ValidationError("weight scheme was built for a different linkage")
    n_links = linkage.n_links
    x_links = aux.x[linkage.link_records]
    link_mean = x_links.sum(axis=0) / n_links
    w = scheme.values
    weight_x_cov = (w[:, None] * x_links).sum(axis=0) / n_links - (w.sum() / n_links) * link_mean

    linked = linkage.multiplicities > 0
    n_linked = int(linked.sum())
    linked_total = aux.x[linked].sum(axis=0)
    indicator_x_cov = linked_total / aux.n_records - (n_linked / aux.n_records) * aux.mean
    return NpaCovariances(
        weight_x_cov=weight_x_cov,
        indicator_x_cov=indicator_x_cov,
        n_linked_records=n_linked,
        linked_total=linked_total,
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    """A consistency statistic with componentwise variance and z-scores."""

    statistic: str
    value: np.ndarray
    variance: np.ndarray
    z: np.ndarray
    npa: NpaCovariances | None = None

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z)))


DIAGNOSTIC_KINDS = ("sri", "sbl", "sls")


def consistency_diagnostics(linkage: LinkageStructure, aux: AuxDatabase,
                            sample: Sample, kind: str,
                            scheme: WeightScheme | None = None,
                            best_links=None,
                            npa: NpaCovariances | None = None) -> DiagnosticsReport:
    """Observable check of the consistency condition behind a sample-link estimator.

    Each kind compares a sample estimate of a constructed covariate mean with
    the auxiliary-file mean: the reverse-weighted mean ("sri"), the best-link
    mean ("sbl"), or the ratio-estimated mean over linked records ("sls").
    The variance comes from the per-unit contributions of the linearised
    statistic. A component whose contributions are constant across units
    (a degenerate covariate) is reported with zero variance, and zero z when
    its statistic is also zero.
    """
    if kind not in DIAGNOSTIC_KINDS:
        raise ValidationError(f"unknown diagnostic kind {kind!r}")
    if not np.array_equal(linkage.covered_units, sample.ids):
        raise ValidationError("diagnostics need the sample's own links")
    if not sample.equal_probability:
        raise ValidationError("diagnostics need an equal-probability sample")
    n_population = sample.design.n_population

    if kind == "sri":
        if scheme is None or scheme.kind != REVERSE:
            raise ValidationError("reverse weights are required for this diagnostic")
        derived = derive_covariates(linkage, scheme, aux)
        contributions = derived.weighted / n_population
        value = np.sum(contributions / sample.pi[:, None], axis=0) - aux.mean
    elif kind == "sbl":
        if best_links is None:
            raise ValidationError("best links are required for this diagnostic")
        best = aux.x[align_best_links(linkage, best_links)]
        contributions = best / n_population
        value = np.sum(contributions / sample.pi[:, None], axis=0) - aux.mean
    else:
        unit_idx = linkage.unit_index_per_link()
        link_sum = np.zeros((sample.n, aux.dim))
        np.add.at(link_sum, unit_idx, aux.x[linkage.link_records])
        d = linkage.degrees.astype(np.float64)
        n_links_hat = float(np.sum(d / sample.pi))
        link_mean_hat = np.sum(link_sum / sample.pi[:, None], axis=0) / n_links_hat
        value = link_mean_hat - aux.mean
        contributions = (link_sum - link_mean_hat[None, :] * d[:, None]) / n_links_hat

    spread = contributions.std(axis=0)
    scale = np.maximum(np.abs(contributions).max(axis=0), 1.0 / n_population)
    degenerate = spread <= 1e-9 * scale

    variance = np.zeros(aux.dim)
    z = np.zeros(aux.dim)
    for j in range(aux.dim):
        if degenerate[j]:
            if abs(value[j]) > 1e-6 * scale[j] * n_population:
                z[j] = np.inf if value[j] > 0 else -np.inf
            continue
        variance[j] = residual_variance(contributions[:, j], sample.design)
        z[j] = value[j] / np.sqrt(variance[j])
    return DiagnosticsReport(statistic=kind, value=value, variance=variance,
                             z=z, npa=npa)
