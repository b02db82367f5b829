"""Regression estimators of population totals from linked auxiliary data.

All estimators share one template: fit a weighted least-squares assisting
model (an intercept plus some constructed covariate) on the sample, then
correct the Horvitz-Thompson estimator with the gap between a calibration
total and its sample estimate. ``ESTIMATORS`` tells the family members
apart, with one rule per estimator id: a covariate source (the matched
value, an incidence- or reverse-weighted link sum, the best or the only
link's value, or the link-set sums of a link-level fit) and a calibration
total (the known population total, or N x the auxiliary-file mean).

Estimators whose total is N x the auxiliary-file mean are computable from
sample links alone; their design consistency rests on the linkage being
non-informative of the auxiliary values, which ``consistency_diagnostics``
turns into a testable statistic. ``diagnose_unit_inputs`` takes it for an
estimator on the rows its fit gathers, as ``estimate``, ``diagnose
--sample`` and the acceptance tests do.

``build_estimators`` turns rules into per-unit arrays over one linkage, in
simulation and from files alike, and ``fit_unit_inputs`` fits a rule on a
stack of samples with one batched kernel (``ht_total_batch``,
``greg_batch``, ``sub_greg_batch``, ``sls_greg_batch``). The Monte Carlo
harness fits chunks of replicates this way and the command line a stack of
one sample. Each kernel, and ``consistency_diagnostics``, takes its variance
from ``design.equal_probability_variances``, which also decides whether the
sample has one; a regression kernel passes it the number of coefficients it
fits. ``check_estimator_ids`` checks the ids a scenario block or a command
requests.

No package code calls the single-sample names: ``GregSpec``, ``greg``,
``sub_greg`` and ``sls_greg`` here, ``design.ht_total``,
``linkage.derive_covariates``, ``linkage.best_link_indicator_weights`` and
the two ``restrict`` methods. They stay only because the benchmark's tracer,
``perfbench/tracer.py``, looks each of them up. Each runs a program rule on
one sample: ``ht_total``, ``greg``, ``sub_greg`` and ``sls_greg`` call
their batched kernels, ``derive_covariates`` calls ``weighted_sums`` over
``link_values``, ``best_link_indicator_weights`` is
``reverse_weights_best_link`` at q = 1, and ``LinkageStructure.restrict``
builds its restriction with ``build_linkage`` over the kept links.
``tests/test_single_sample_api.py`` holds their contract tests, and item 1
of ``ROADMAP.md`` deletes them.

A sample's fit does not depend on the samples stacked with it: every
matrix product runs sample by sample, and each value's T'b is an
elementwise product summed over the model columns, not a matrix-vector
product over the stack, whose BLAS kernel may order its sums by the
stack's size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .design import (
    BatchEstimate,
    Estimate,
    Sample,
    SurveyDesign,
    check_finite_values,
    equal_probability_variances,
    ht_total_batch,
    scale_to_target,
)
from .errors import NumericalError, ValidationError
from .linkage import (
    INCIDENCE,
    POPULATION,
    REVERSE,
    SAMPLE,
    AuxDatabase,
    LinkageStructure,
    WeightScheme,
    check_aux_matches,
    link_values,
    link_weights,
    unit_sums,
    weighted_sums,
)

RCOND_THRESHOLD = 1e-12


def _solve_normal_equations(m: np.ndarray, rhs: np.ndarray,
                            strict: bool = True) -> np.ndarray:
    """Solve the stacked systems m b = rhs, (..., q, q) by (..., q).

    A system is near-singular when the ratio of its smallest to its largest
    eigenvalue (in absolute value, from ``eigvalsh``) is below
    ``RCOND_THRESHOLD``. Under ``strict`` the first such system raises
    ``NumericalError`` naming the collinear columns; otherwise it gets a NaN
    solution. The others are solved by LU with partial pivoting. Under
    ``strict`` a matrix that overflowed raises ``NumericalError`` too.
    """
    if strict and not np.isfinite(m).all():
        raise NumericalError("normal-equation matrix is not finite")
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
    """Stacked b = (X' W X)^-1 X' W y for x (..., n, q), y and w (..., n).

    W X is filled one column at a time, so numpy's inner loop runs over n
    rather than over the q-wide last axis. For a C-ordered x, as
    ``with_intercept`` builds, its values and layout are those of
    ``x * w[..., None]``, so the products keep their bits.
    """
    xw = np.empty(x.shape, np.result_type(x, w))
    for j in range(x.shape[-1]):
        np.multiply(x[..., j], w, out=xw[..., j])
    xw_t = np.swapaxes(xw, -1, -2)
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
    The result does not depend on the memory order of ``covariates``.
    """
    x = np.ascontiguousarray(covariates, dtype=np.float64)
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
    """Prepend a constant column to (..., n, p) covariates.

    The result is allocated once and filled, with the dtype and layout of
    ``np.concatenate([np.ones(...), x], axis=-1)`` but no temporary column.
    """
    x_full = np.empty(x.shape[:-1] + (x.shape[-1] + 1,), np.result_type(np.float64, x))
    x_full[..., 0] = 1.0
    x_full[..., 1:] = x
    return x_full


@dataclass(frozen=True)
class GregSpec:
    """Covariate rows per sampled unit and their calibration total.

    ``total`` is the population total of the covariate columns; the model
    intercept and its total (the population size) are added automatically.
    """

    covariates: np.ndarray
    total: np.ndarray
    tag: str = "greg"

    def __post_init__(self) -> None:
        x = np.asarray(self.covariates, dtype=np.float64)
        t = np.asarray(self.total, dtype=np.float64).reshape(-1)
        if x.ndim != 2 or x.shape[1] != t.shape[0]:
            raise ValidationError("covariate dimension must match the total")
        if not np.all(np.isfinite(x)):
            raise ValidationError("covariates must be finite")
        if not np.all(np.isfinite(t)):
            raise ValidationError("calibration total must be finite")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "total", t)


def greg_batch(x: np.ndarray, y: np.ndarray, pi: np.ndarray, total: np.ndarray,
               design: SurveyDesign, target: str = "total",
               strict: bool = False) -> BatchEstimate:
    """Regression estimator over stacked samples: T'b plus the design-weighted
    residual total.

    ``x`` (..., n, q) holds each sample's design matrix (intercept included),
    ``y`` and ``pi`` (..., n) its responses and inclusion probabilities,
    ``total`` (q,) the full calibration total. A near-singular fit gives
    NaN, or raises under ``strict``; ``equal_probability_variances`` decides
    whether its variance exists.
    """
    check_finite_values(y)
    b = _weighted_least_squares(x, y, 1.0 / pi, strict)
    residuals = y - _fitted(x, b)
    values = np.sum(b * total, axis=-1) + np.sum(residuals / pi, axis=-1)
    variances = equal_probability_variances(residuals, pi, design, q=x.shape[-1])
    return BatchEstimate(*scale_to_target(values, variances, target,
                                          design.n_population))


def greg(spec: GregSpec, y: np.ndarray, sample: Sample,
         target: str = "total") -> Estimate:
    """Regression estimator: T'b plus the design-weighted residual total.

    It is linear in y, and its implied weights calibrate exactly: ``greg``
    of y = 1 is the population size, and of y = a covariate column that
    column's total.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (sample.n,):
        raise ValidationError("need one response per sampled unit")
    if spec.covariates.shape[0] != sample.n:
        raise ValidationError("covariate rows must align with the sample")
    batch = greg_batch(with_intercept(spec.covariates)[None], y[None], sample.pi[None],
                       np.concatenate([[float(sample.design.n_population)], spec.total]),
                       sample.design, target, strict=True)
    return batch.first(spec.tag, target)


def sub_greg_batch(x: np.ndarray, y: np.ndarray, pi: np.ndarray, kept: np.ndarray,
                   coefficients: np.ndarray, aux_mean: np.ndarray,
                   design: SurveyDesign, target: str = "total") -> BatchEstimate:
    """Difference-form subsample estimator over stacked samples.

    ``x`` (..., n, q) holds matched covariates with the intercept first,
    ``y`` and ``pi`` (..., n) the responses and inclusion probabilities,
    ``kept`` (..., n) marks the single-link units that enter, and
    ``coefficients`` (q,) or (..., q) are held fixed, not fitted on the
    sample. A sample with fewer than 2 kept units gives NaN.
    """
    check_finite_values(y)
    b = np.broadcast_to(coefficients, x.shape[:-2] + x.shape[-1:])
    residuals = y - _fitted(x, b)
    n_sub = np.sum(kept, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_values = (np.sum(b * np.concatenate([[1.0], aux_mean]), axis=-1)
                       + np.sum(residuals * kept, axis=-1) / n_sub)
    mean_values = np.where(n_sub < 2, np.nan, mean_values)
    mean_variances = (equal_probability_variances(residuals, pi, design, kept)
                      / design.n_population**2)
    if target == "mean":
        return BatchEstimate(mean_values, mean_variances)
    if target != "total":
        raise ValidationError(f"unknown target {target!r}")
    return BatchEstimate(mean_values * design.n_population,
                         mean_variances * design.n_population**2)


def sub_greg(y: np.ndarray, covariates: np.ndarray, aux_mean: np.ndarray,
             design: SurveyDesign, coefficients: np.ndarray | None = None,
             target: str = "total", tag: str = "sub") -> Estimate:
    """Regression estimator over the single-link subsample only.

    Takes the responses and matched covariates of the sampled units whose
    link is unique (hence trusted). By default the assisting coefficients
    are fit on the subsample itself (self-normalised, so no inclusion
    probabilities are needed). Passing ``coefficients`` (intercept first)
    switches to the difference form with those coefficients held fixed,
    which avoids refit noise when a stable external fit is available, as in
    simulation, where they are fit on the population's single-link units.
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
        b = _subsample_coefficients(x, y)
    else:
        b = np.asarray(coefficients, dtype=np.float64).reshape(-1)
        if b.shape != (x_full.shape[1],):
            raise ValidationError("fixed coefficients must include the intercept")
        if n_sub < 2:
            raise ValidationError("subsample too small: need at least 2 units")
    batch = sub_greg_batch(x_full[None], y[None], np.full((1, n_sub), design.f),
                           np.ones((1, n_sub), dtype=bool), b, t, design, target)
    return batch.first(tag, target)


def _subsample_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unweighted fit of ``y`` on an intercept and ``x`` over single-link units."""
    x_full = with_intercept(x)
    n_sub, q = x_full.shape
    if n_sub <= q:
        raise ValidationError(
            f"subsample too small: {n_sub} single-link units for {q} model columns"
        )
    return wls_coefficients(x_full, y, np.ones(n_sub))


def link_sums(linkage: LinkageStructure, aux: AuxDatabase,
              x_links: np.ndarray | None = None) -> np.ndarray:
    """Σ x_l over each covered unit's links, with x_l = (1, record values of
    link l): (n_covered, q), the degree first. The link-set estimator fits on
    these sums and its consistency diagnostic tests them. ``x_links`` holds
    the record values at the links, ``link_values(linkage, aux)``, when they
    are gathered already."""
    if x_links is None:
        x_links = link_values(linkage, aux)
    sums = np.empty((linkage.n_covered, aux.dim + 1))
    sums[:, 0] = linkage.degrees
    sums[:, 1:] = unit_sums(linkage, x_links.T, aux.dim)
    return sums


def link_aggregates(linkage: LinkageStructure, weights: np.ndarray, aux: AuxDatabase,
                    x_links: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per covered unit, the sums over its links that the link-set fit needs.

    With x_l = (1, record values of link l) and w_l the link weight, returns
    the ``link_sums`` Σ x_l (n_covered, q); the record-value block of
    Σ x_l x_l', that is Σ over links of the products of record values
    (n_covered, p, p) with p = q - 1; and Σ w_l x_l (n_covered, q). The
    link-set estimator is linear in these once the sample is fixed, so they
    are computed once per linkage. The intercept row and column of
    Σ x_l x_l' equal Σ x_l, so they are not stored: ``sls_greg_batch``
    fills them in from the ``link_sums``. ``x_links`` is as for ``link_sums``.

    Record values whose sums or products overflow raise ``NumericalError``,
    and no floating-point warning is issued.
    """
    if x_links is None:
        x_links = link_values(linkage, aux)
    p = aux.dim
    # the sums with the largest per-link temporaries come first, while
    # fewer results are alive
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = unit_sums(linkage, itertools.chain(
            [weights], (weights * c for c in x_links.T)), p + 1)
        gram = np.empty((linkage.n_covered, p, p))
        for i in range(p):
            gram[:, i, i:] = gram[:, i:, i] = unit_sums(
                linkage, (x_links[:, i] * x_links[:, j] for j in range(i, p)), p - i)
        link_sum = link_sums(linkage, aux, x_links)
    if not (np.isfinite(link_sum).all() and np.isfinite(gram).all()
            and np.isfinite(weighted).all()):
        raise NumericalError("sls link-set aggregates are not finite: sums or products "
                             "of the auxiliary record values overflow")
    return link_sum, gram, weighted


def sls_greg_batch(link_sum: np.ndarray, gram: np.ndarray, weighted: np.ndarray,
                   y: np.ndarray, pi: np.ndarray, design: SurveyDesign,
                   aux_mean: np.ndarray, target: str = "total",
                   strict: bool = False) -> BatchEstimate:
    """Link-set estimator over stacked samples, from each sampled unit's
    ``link_aggregates`` ((..., n, q), (..., n, q - 1, q - 1), (..., n, q)).

    The aggregates' sums over the n units add unit by unit, in order, over
    the unit axis moved to the front; they run over contiguous blocks when
    the aggregates are stored unit-major, as ``fit_unit_inputs`` gathers
    them. The record-value block of the normal matrix is summed by
    ``np.cumsum``: at one sample with one record value each unit holds one
    number, and ``np.sum`` would add those pairwise rather than in order.
    Its intercept row and column are the estimated link total, which is the
    same sum of the same terms. A sample with fewer than q links, or a
    near-singular fit, gives NaN; under ``strict`` either raises. The
    variance of the Taylor residuals is ``equal_probability_variances`` for a
    fit of q coefficients on the n sampled units.
    """
    check_finite_values(y)
    n_population = design.n_population
    d = link_sum[..., 0]
    n_links = np.sum(d, axis=-1)
    too_few = n_links < link_sum.shape[-1]
    if strict and too_few.any():
        raise ValidationError(f"need at least {link_sum.shape[-1]} links, "
                              f"got {int(n_links[too_few][0])}")
    link_rate_hat = np.sum(d / pi, axis=-1) / n_population
    pi_units = np.moveaxis(pi, -1, 0)[..., None]
    link_total_hat = np.sum(np.moveaxis(link_sum, -2, 0) / pi_units, axis=0)
    link_mean_hat = link_total_hat / (link_rate_hat * n_population)[..., None]

    m = np.empty(link_total_hat.shape + link_total_hat.shape[-1:])
    m[..., 0, :] = m[..., :, 0] = link_total_hat
    m[..., 1:, 1:] = np.cumsum(np.moveaxis(gram, -3, 0) / pi_units[..., None], axis=0)[-1]
    rhs = np.sum(np.moveaxis(weighted, -2, 0) * np.moveaxis(y / pi, -1, 0)[..., None],
                 axis=0)
    rate = link_rate_hat[..., None]
    b = rate * _solve_normal_equations(m, rhs, strict)

    fit_residuals = y - _fitted(link_sum, b) / rate
    aux_mean_full = np.concatenate([[1.0], aux_mean])
    values = (np.sum(b * (n_population * aux_mean_full), axis=-1)
              + np.sum(fit_residuals / pi, axis=-1))

    taylor_residuals = (fit_residuals
                        + (d / rate) * np.sum(link_mean_hat * b, axis=-1)[..., None])
    variances = equal_probability_variances(taylor_residuals, pi, design,
                                            q=link_sum.shape[-1])
    values = np.where(too_few, np.nan, values)
    variances = np.where(too_few, np.nan, variances)
    return BatchEstimate(*scale_to_target(values, variances, target, n_population))


def sls_greg(linkage: LinkageStructure, scheme: WeightScheme, aux: AuxDatabase,
             y: np.ndarray, sample: Sample, target: str = "total",
             tag: str = "sls") -> Estimate:
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
    link_sum, gram, weighted = link_aggregates(linkage, scheme.values, aux)
    batch = sls_greg_batch(link_sum[None], gram[None], weighted[None], y[None],
                           sample.pi[None], sample.design, aux.mean, target,
                           strict=True)
    return batch.first(tag, target)


# The estimator table: each estimator is one covariate source and one
# calibration total. Callers supply the weight schemes and best links.
MATCHED = "matched value"
INCIDENCE_SUM = "incidence-weighted link sum"
REVERSE_SUM = "reverse-weighted link sum"
BEST_LINK = "best link's value"
ONLY_LINK = "only link's value"
LINK_SET = "link-set sums"

KNOWN_TOTAL = "known population total"
AUX_MEAN = "N x auxiliary mean"


class EstimatorRule(NamedTuple):
    """Table label, covariate source and calibration total (both None for
    Horvitz-Thompson) of one estimator, and the diagnostic that checks it."""

    label: str
    covariate: str | None
    total: str | None
    diagnostic: str | None = None


ESTIMATORS = {
    "ht": EstimatorRule("HT", None, None),
    "ideal": EstimatorRule("Ideal", MATCHED, KNOWN_TOTAL),
    "sub": EstimatorRule("Sub", ONLY_LINK, AUX_MEAN),
    "pi-m": EstimatorRule("PI-m", INCIDENCE_SUM, KNOWN_TOTAL),
    "pi-q": EstimatorRule("PI-q", INCIDENCE_SUM, KNOWN_TOTAL),
    "sbl": EstimatorRule("SBL", BEST_LINK, AUX_MEAN, "sbl"),
    "sri-q": EstimatorRule("SRI-q", REVERSE_SUM, AUX_MEAN, "sri"),
    "sls": EstimatorRule("SLS", LINK_SET, AUX_MEAN, "sls"),
}
ESTIMATOR_ORDER = tuple(ESTIMATORS)  # the simulation ids, in table order
# file-based ids: PI and SRI with whatever weights the link file yields
ESTIMATORS["pi"] = ESTIMATORS["pi-m"]
ESTIMATORS["sri"] = ESTIMATORS["sri-q"]


def check_estimator_ids(tags, allowed=ESTIMATORS) -> None:
    """Reject an empty request, then the first id of ``tags``, in their
    order, that ``allowed`` does not hold or that an earlier id repeats: a
    repeated estimator would be fitted and reported twice."""
    if not tags:
        raise ValidationError("no estimator requested")
    for i, tag in enumerate(tags):
        if tag not in allowed:
            raise ValidationError(f"unknown estimator {tag!r}; "
                                  f"choose from {', '.join(allowed)}")
        if tag in tags[:i]:
            raise ValidationError(f"repeated estimator {tag!r}")


def _rule(tag: str) -> EstimatorRule:
    """The rule of the estimator ``tag`` in ``ESTIMATORS``."""
    check_estimator_ids((tag,))
    return ESTIMATORS[tag]


class UnitInputs(NamedTuple):
    """One estimator's inputs over one linkage.

    ``rows`` hold one entry per covered unit and are gathered at the sampled
    units of each fit. ``calibration`` is the known population total of the
    covariate, or the auxiliary mean for a rule calibrated on N times it;
    ``coefficients`` are the subsample rule's fixed assisting coefficients.
    """

    tag: str
    rows: tuple[np.ndarray, ...] = ()
    calibration: np.ndarray | None = None
    coefficients: np.ndarray | None = None


def build_estimators(tags: list[str], linkage: LinkageStructure, aux: AuxDatabase,
                     weights: np.ndarray | None = None, best: np.ndarray | None = None,
                     q: float | None = None, y: np.ndarray | None = None,
                     at: np.ndarray | None = None) -> list[UnitInputs]:
    """The per-unit inputs of each estimator of ``tags`` over ``linkage``, by
    its rule in ``ESTIMATORS``, with each weight kind resolved and checked
    once by ``link_weights`` from ``weights``, ``best`` and ``q``, and the
    record values gathered at the links once for all of them.

    ``best`` holds each covered unit's best record, and ``y`` the responses
    from which the subsample rule fits its coefficients on the single-link
    units among the covered units at positions ``at`` (all when None). The
    matched value of unit i is record i, which only a simulated population
    has. Link sums are local to each unit, so inputs built over the
    population links and gathered at a sample equal those built over the
    sample's own links. Every request is checked, in the order of ``tags``,
    before anything is built. Whatever the order of ``tags``, the incidence
    rules are built first, then the rules without weights, the
    reverse-weighted sums and the link-set sums, and each scheme is dropped
    after its estimators: one is alive at a time.
    """
    rules = {tag: _rule(tag) for tag in tags}
    check_aux_matches(linkage, aux)
    # what a rule lacks, if anything, by its covariate source
    lacks = {INCIDENCE_SUM: linkage.scope != POPULATION and "population-scope links",
             MATCHED: (linkage.scope != POPULATION or aux.n_records != linkage.n_covered)
             and "population-scope links and one auxiliary record per unit",
             BEST_LINK: best is None and "best links (an is_best column in the link file)",
             ONLY_LINK: y is None and "responses to fit its coefficients"}
    for tag in tags:
        if missing := lacks.get(rules[tag].covariate):
            raise ValidationError(f"estimator {tag!r} needs {missing}")
    built, x_links = {}, link_values(linkage, aux)
    for kind, sources in ((INCIDENCE, [INCIDENCE_SUM]),
                          (None, [None, MATCHED, ONLY_LINK, BEST_LINK]),
                          (REVERSE, [REVERSE_SUM, LINK_SET])):
        group = [tag for source in sources for tag in tags
                 if rules[tag].covariate == source]
        scheme = None if kind is None or not group else link_weights(
            kind, linkage, weights, best, q)
        for tag in group:
            rule = rules[tag]
            source, coefficients = rule.covariate, None
            if source is None:
                built[tag] = UnitInputs(tag)
                continue
            if source == MATCHED:
                rows = (aux.x,)
            elif source == BEST_LINK:
                rows = (aux.x[best],)
            elif source == ONLY_LINK:
                # each unit's first link; the fit keeps only the single-link units
                x = x_links[linkage._unit_ptr[:-1]]
                single = linkage.degrees == 1
                fit_x, fit_single = (x, single) if at is None else (x[at], single[at])
                rows = (x, single)
                coefficients = _subsample_coefficients(fit_x[fit_single], y[fit_single])
            elif source == LINK_SET:
                rows = link_aggregates(linkage, scheme.values, aux, x_links)
            else:
                rows = (weighted_sums(linkage, scheme, x_links),)
            if rule.total == AUX_MEAN:
                calibration = aux.mean
            else:
                # matched values and incidence weights need population links,
                # so the column sums are the covariate's known population totals
                calibration = rows[0].sum(axis=0)
            built[tag] = UnitInputs(tag, rows, calibration, coefficients)
    return [built[tag] for tag in tags]


def fit_unit_inputs(inputs: UnitInputs, pos: np.ndarray, y: np.ndarray,
                    pi: np.ndarray, design: SurveyDesign, target: str = "total",
                    strict: bool = False) -> BatchEstimate:
    """Fit one estimator on stacked samples.

    ``pos`` (..., n) holds the positions of the sampled units among the
    covered units of the linkage the inputs were built over, ``y`` and
    ``pi`` (..., n) their responses and inclusion probabilities. A failed
    fit gives NaN, or raises under ``strict``. Under ``strict`` an estimate
    that is not finite, or whose variance is infinite, raises
    ``NumericalError`` too: finite inputs whose sums or products overflow
    give one, and no floating-point warning is issued. A NaN variance is
    still no variance estimator. ``pos``, ``y`` and ``pi`` must share one
    shape.
    """
    if not np.shape(pos) == np.shape(y) == np.shape(pi):
        raise ValidationError(
            "sample positions, responses and inclusion probabilities must share one "
            f"shape, got {np.shape(pos)}, {np.shape(y)} and {np.shape(pi)}")
    if not strict:
        return _fit(inputs, pos, y, pi, design, target, strict)
    with np.errstate(all="ignore"):
        fit = _fit(inputs, pos, y, pi, design, target, strict)
    bad = np.flatnonzero(~np.isfinite(fit.values) | np.isinf(fit.variances))
    if len(bad):
        value, variance = fit.values.flat[bad[0]], fit.variances.flat[bad[0]]
        raise NumericalError(f"{inputs.tag} estimate is not finite "
                             f"(value {value:.6g}, variance {variance:.6g})")
    return fit


def diagnose_unit_inputs(inputs: UnitInputs, pos: np.ndarray, pi: np.ndarray,
                         aux: AuxDatabase, design: SurveyDesign) -> DiagnosticsReport:
    """The ``consistency_diagnostics`` of ``inputs``' rule on stacked samples,
    on the first of its rows as ``fit_unit_inputs`` gathers them at ``pos``
    (..., n), with ``pi`` (..., n). A rule without a diagnostic raises
    ``ValidationError``."""
    rule = _rule(inputs.tag)
    if rule.diagnostic is None:
        raise ValidationError(f"estimator {inputs.tag!r} has no consistency diagnostic")
    (rows,) = _gather(rule, inputs.rows[:1], pos)
    return consistency_diagnostics(rows, pi, aux, design, rule.diagnostic)


def _gather(rule: EstimatorRule, rows: tuple[np.ndarray, ...],
            pos: np.ndarray) -> list[np.ndarray]:
    """``rows`` at the positions ``pos`` (..., n), as ``rule``'s fit takes
    them: the link-set rows unit-major, the layout in which
    ``sls_greg_batch`` sums fastest."""
    if rule.covariate == LINK_SET:
        units = np.moveaxis(pos, -1, 0)
        return [np.moveaxis(np.take(a, units, axis=0), 0, pos.ndim - 1) for a in rows]
    return [np.take(a, pos, axis=0) for a in rows]


def _fit(inputs: UnitInputs, pos: np.ndarray, y: np.ndarray, pi: np.ndarray,
         design: SurveyDesign, target: str, strict: bool) -> BatchEstimate:
    rule = _rule(inputs.tag)
    rows = _gather(rule, inputs.rows, pos)
    if rule.covariate is None:
        return ht_total_batch(y, pi, design, target)
    if rule.covariate == ONLY_LINK:
        x, kept = rows
        return sub_greg_batch(with_intercept(x), y, pi, kept, inputs.coefficients,
                              inputs.calibration, design, target)
    if rule.covariate == LINK_SET:
        return sls_greg_batch(*rows, y, pi, design, inputs.calibration, target, strict)
    total = inputs.calibration
    if rule.total == AUX_MEAN:
        total = design.n_population * total
    return greg_batch(with_intercept(rows[0]), y, pi,
                      np.concatenate([[float(design.n_population)], total]),
                      design, target, strict)


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


def npa_covariances(linkage: LinkageStructure, scheme: WeightScheme,
                    aux: AuxDatabase) -> NpaCovariances:
    """Compute the two non-informativeness covariances over population links."""
    if linkage.scope != POPULATION:
        raise ValidationError("informativeness covariances need population links")
    if scheme.linkage is not linkage:
        raise ValidationError("weight scheme was built for a different linkage")
    n_links = linkage.n_links
    x_links = link_values(linkage, aux)
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
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    """A consistency statistic with componentwise variance and z-scores (..., c)."""

    statistic: str
    value: np.ndarray
    variance: np.ndarray
    z: np.ndarray


DIAGNOSTIC_KINDS = ("sri", "sbl", "sls")


def consistency_diagnostics(rows: np.ndarray, pi: np.ndarray, aux: AuxDatabase,
                            design: SurveyDesign, kind: str) -> DiagnosticsReport:
    """Observable check of the consistency condition behind a sample-link
    estimator, on stacked samples: ``rows`` (..., n, c), ``pi`` (..., n).

    ``rows`` are the estimator's fitted rows, one per sampled unit: the
    reverse-weighted link sums ("sri") or the best link's values ("sbl"),
    whose estimated mean is compared with the auxiliary-file mean; or the
    ``link_sums`` ("sls"), whose ratio-estimated mean over linked records is.
    The variance comes from the per-unit contributions of the linearised
    statistic. Per sample, a component whose contributions are constant
    across at least 2 units (a degenerate covariate), and every component of
    a census, has zero variance and zero z when its statistic is also zero
    up to rounding. A census component whose statistic is not zero has
    infinite z, as no sampling error can explain it. Outside a census, a
    constant component with a statistic that is not zero gets NaN variance
    and z: units that share one link set by chance show no spread, which is
    no evidence that the statistic is certain. Unequal ``pi``, and one
    sampled unit outside a census, give NaN variance and z too. Rows whose
    sums or squares overflow raise ``NumericalError``, and no floating-point
    warning is issued.
    """
    if kind not in DIAGNOSTIC_KINDS:
        raise ValidationError(f"unknown diagnostic kind {kind!r}")
    if rows.shape[-1] != aux.dim + (kind == "sls") or rows.shape[:-1] != pi.shape:
        raise ValidationError(f"{kind} diagnostic rows must align with the sample")
    n_population = design.n_population

    # sums and squares of finite rows may overflow: a statistic that is not
    # finite raises below, and no floating-point warning is issued
    with np.errstate(over="ignore", invalid="ignore"):
        if kind != "sls":
            contributions = rows / n_population
            value = np.sum(contributions / pi[..., None], axis=-2) - aux.mean
        else:
            d, link_sum = rows[..., :1], rows[..., 1:]
            n_links_hat = np.sum(d / pi[..., None], axis=-2)
            link_mean_hat = np.sum(link_sum / pi[..., None], axis=-2) / n_links_hat
            value = link_mean_hat - aux.mean
            contributions = (link_sum - link_mean_hat[..., None, :] * d) / n_links_hat[..., None]
        spread = contributions.std(axis=-2)
        variance = equal_probability_variances(
            np.ascontiguousarray(np.swapaxes(contributions, -1, -2)), pi[..., None, :],
            design)
    if not (np.isfinite(value).all() and np.isfinite(spread).all()
            and not np.isinf(variance).any()):
        raise NumericalError(f"{kind} consistency diagnostic is not finite: sums or "
                             "squares of its per-unit contributions overflow")
    scale = np.maximum(np.abs(contributions).max(axis=-2), 1.0 / n_population)
    equal = np.all(pi == pi[..., :1], axis=-1)[..., None]
    census = design.f == 1
    # a census (f = 1) has no sampling variance in any component; one unit
    # has no spread to read, as it has no variance estimator
    degenerate = (((spread <= 1e-9 * scale) & (rows.shape[-2] >= 2)) | census) & equal
    off = np.abs(value) > 1e-6 * scale * n_population
    variance = np.where(degenerate, 0.0, variance)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(degenerate, np.where(off, np.copysign(np.inf, value), 0.0),
                     value / np.sqrt(variance))
    unknown = degenerate & off & (not census)
    variance[unknown] = z[unknown] = np.nan
    return DiagnosticsReport(statistic=kind, value=value, variance=variance, z=z)
