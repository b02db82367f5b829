"""Sampling designs, Horvitz-Thompson estimation and exact-enumeration checks.

Only simple random sampling without replacement (SRSWOR) ships with a sampler
and a closed-form variance estimator. Externally supplied inclusion
probabilities are accepted for estimation from files; their variance is
reported as unavailable unless the probabilities are all equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError

ENUMERATION_GUARD = 10**6


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for (seed, key) pairs.

    Streams derived from the same seed but different keys are statistically
    independent, so replicate-level work can be distributed over workers
    without the results depending on the worker count.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass(frozen=True)
class SurveyDesign:
    """A sampling design over a population of ``n_population`` units.

    ``kind`` is either "srswor" (fixed size ``sample_size``, all inclusion
    probabilities equal to the sampling fraction) or "external" (inclusion
    probabilities supplied per sampled unit, fixed-size assumed).
    """

    n_population: int
    sample_size: int
    kind: str = "srswor"

    def __post_init__(self) -> None:
        if self.n_population < 1:
            raise ValidationError("population size must be at least 1")
        if not 0 < self.sample_size <= self.n_population:
            raise ValidationError(
                f"sample size {self.sample_size} outside 1..{self.n_population}"
            )
        if self.kind not in ("srswor", "external"):
            raise ValidationError(f"unknown design kind {self.kind!r}")

    @classmethod
    def srswor(cls, n_population: int, sample_size: int) -> "SurveyDesign":
        return cls(n_population, sample_size, "srswor")

    @property
    def f(self) -> float:
        """Sampling fraction n/N."""
        return self.sample_size / self.n_population

    @property
    def inclusion_probability(self) -> float:
        if self.kind != "srswor":
            raise ValidationError("per-design probability only defined for SRSWOR")
        return self.f


@dataclass(frozen=True)
class Sample:
    """A drawn sample: sorted unit ids, their inclusion probabilities, the design."""

    ids: np.ndarray
    pi: np.ndarray
    design: SurveyDesign

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        pi = np.asarray(self.pi, dtype=np.float64)
        if ids.ndim != 1 or pi.shape != ids.shape:
            raise ValidationError("ids and pi must be 1-d arrays of equal length")
        if len(np.unique(ids)) != len(ids):
            raise ValidationError("sample contains repeated unit ids")
        if ids.size and (ids.min() < 0 or ids.max() >= self.design.n_population):
            raise ValidationError("sample ids outside 0..N-1")
        if not np.all(np.isfinite(pi)) or np.any(pi <= 0) or np.any(pi > 1):
            raise ValidationError("inclusion probabilities must lie in (0, 1]")
        order = np.argsort(ids)
        object.__setattr__(self, "ids", ids[order])
        object.__setattr__(self, "pi", pi[order])
        self.ids.setflags(write=False)
        self.pi.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def equal_probability(self) -> bool:
        return bool(np.all(self.pi == self.pi[0]))


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its variance estimate and fit by-products.

    ``variance`` is None when no design-based variance estimator is available
    (externally supplied unequal probabilities). ``coefficients`` and
    ``residuals`` are populated by the regression estimators only.
    """

    value: float
    variance: float | None
    estimator: str
    target: str = "total"
    coefficients: np.ndarray | None = None
    residuals: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.target not in ("total", "mean"):
            raise ValidationError(f"unknown target {self.target!r}")
        if self.variance is not None and self.variance < -1e-30:
            raise ValidationError("variance estimate must be nonnegative")

    @property
    def se(self) -> float | None:
        if self.variance is None:
            return None
        return math.sqrt(max(self.variance, 0.0))


class BatchEstimate(NamedTuple):
    """One estimator over a stack of samples, one entry per leading index.

    A failed fit (singular normal equations, too few units or links) has a
    NaN value. ``variances`` is also NaN where no design-based variance
    estimator applies. ``coefficients`` and ``residuals`` are populated by
    the regression estimators only.
    """

    values: np.ndarray
    variances: np.ndarray
    coefficients: np.ndarray | None = None
    residuals: np.ndarray | None = None

    def first(self, estimator: str, target: str) -> Estimate:
        """The estimate of the first sample of the stack."""
        variance = float(self.variances[0])
        return Estimate(
            value=float(self.values[0]),
            variance=None if math.isnan(variance) else variance,
            estimator=estimator,
            target=target,
            coefficients=None if self.coefficients is None else self.coefficients[0],
            residuals=None if self.residuals is None else self.residuals[0],
        )


def scale_to_target(value, variance, target: str, n_population: int):
    """Convert a total-scale (value, variance) pair to the requested target.

    Works elementwise on arrays; a variance of None stays None.
    """
    if target == "total":
        return value, variance
    if target == "mean":
        v = None if variance is None else variance / n_population**2
        return value / n_population, v
    raise ValidationError(f"unknown target {target!r}")


def srswor_ids(n_population: int, sample_size: int,
               rng: np.random.Generator) -> np.ndarray:
    """Sorted unit ids of an SRSWOR sample of ``sample_size`` from 0..N-1.

    Uses the generator's without-replacement choice (partial Fisher-Yates),
    so every subset of the stated size is equally probable.
    """
    return np.sort(rng.choice(n_population, size=sample_size, replace=False))


def draw_srswor(n_population: int, sample_size: int,
                rng: np.random.Generator) -> Sample:
    """Draw an SRSWOR sample of ``sample_size`` units from 0..N-1."""
    design = SurveyDesign.srswor(n_population, sample_size)
    ids = srswor_ids(n_population, sample_size, rng)
    pi = np.full(sample_size, design.f)
    return Sample(ids=ids, pi=pi, design=design)


def check_finite_values(y: np.ndarray) -> None:
    """Reject a missing (NaN) or infinite study value in any sample."""
    if not np.all(np.isfinite(y)):
        raise ValidationError("missing or non-finite value for a sampled unit")


def ht_total_batch(y: np.ndarray, pi: np.ndarray, design: SurveyDesign,
                   target: str = "total") -> BatchEstimate:
    """Horvitz-Thompson estimates of stacked samples: ``y`` and ``pi`` are
    (..., n), one row per sample."""
    check_finite_values(y)
    values = np.sum(y / pi, axis=-1)
    variances = equal_probability_variances(y, pi, design)
    return BatchEstimate(*scale_to_target(values, variances, target,
                                          design.n_population))


def ht_total(values: np.ndarray, sample: Sample, target: str = "total") -> Estimate:
    """Horvitz-Thompson estimator of a population total (or mean).

    ``values`` must be aligned with ``sample.ids``. Under an equal-probability
    fixed-size design the variance estimate is N^2 (1-f) s^2 / n; otherwise
    the variance is unavailable.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.shape != sample.ids.shape:
        raise ValidationError(
            f"need one value per sampled unit ({sample.n}), got {y.shape}"
        )
    batch = ht_total_batch(y[None], sample.pi[None], sample.design, target)
    return batch.first("ht", target)


def residual_variances(residuals: np.ndarray, design: SurveyDesign,
                       kept: np.ndarray | None = None) -> np.ndarray:
    """SRSWOR variance estimator N^2 (1-f) s^2 / n along the last axis.

    ``kept`` (same shape, boolean) selects the residuals that count; by
    default all do. The effective size n is the count of kept residuals,
    which may be smaller than the design's sample size (subsample
    estimators); the finite-population correction stays at the design's
    sampling fraction. A row with fewer than 2 kept residuals gives NaN.
    Callers are responsible for only using rows from equal-probability
    samples.
    """
    e = np.asarray(residuals, dtype=np.float64)
    if kept is None:
        kept = np.ones(e.shape, dtype=bool)
    n_eff = np.sum(kept, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.sum(e * kept, axis=-1, keepdims=True) / n_eff[..., None]
        dev = (e - mean) * kept
        s2 = np.sum(dev * dev, axis=-1) / (n_eff - 1)
        return design.n_population**2 * (1.0 - design.f) * s2 / n_eff


def equal_probability_variances(residuals: np.ndarray, pi: np.ndarray,
                                design: SurveyDesign) -> np.ndarray:
    """``residual_variances`` of the samples (rows of ``pi``) with equal
    inclusion probabilities and at least 2 units; NaN for the others, which
    have no design-based variance estimator."""
    applies = np.all(pi == pi[..., :1], axis=-1) & (pi.shape[-1] >= 2)
    return np.where(applies, residual_variances(residuals, design), np.nan)


def residual_variance(residuals: np.ndarray, design: SurveyDesign) -> float:
    """``residual_variances`` of one 1-d residual vector; the variance
    engine of every estimator. Needs at least 2 residuals."""
    e = np.asarray(residuals, dtype=np.float64)
    if e.ndim != 1:
        raise ValidationError("residuals must be a 1-d array")
    if len(e) < 2:
        raise ValidationError("variance needs at least 2 units")
    return float(residual_variances(e, design))


@dataclass(frozen=True)
class ExactMoments:
    """Exact design moments of an estimator under full SRSWOR enumeration."""

    expectation: float
    variance: float
    expected_variance_estimate: float
    n_samples: int


def exact_design_moments(
    y: np.ndarray,
    sample_size: int,
    statistic: Callable[[Sample, np.ndarray], tuple[float, float]] | None = None,
    guard: int = ENUMERATION_GUARD,
) -> ExactMoments:
    """Enumerate every SRSWOR sample and return exact estimator moments.

    ``statistic(sample, y_sample)`` returns (value, variance estimate) per
    sample; the default is the HT total with its closed-form variance. All
    C(N, n) samples carry probability 1 / C(N, n); the enumeration refuses
    to run past ``guard`` samples.
    """
    y = np.asarray(y, dtype=np.float64)
    n_population = len(y)
    n_samples = math.comb(n_population, sample_size)
    if n_samples > guard:
        raise NumericalError(
            f"C({n_population},{sample_size}) = {n_samples} exceeds the "
            f"enumeration guard of {guard}"
        )
    design = SurveyDesign.srswor(n_population, sample_size)
    pi = np.full(sample_size, design.f)

    if statistic is None:
        def statistic(sample: Sample, y_s: np.ndarray) -> tuple[float, float]:
            est = ht_total(y_s, sample)
            return est.value, est.variance if est.variance is not None else math.nan

    values = np.empty(n_samples)
    varests = np.empty(n_samples)
    for k, ids in enumerate(combinations(range(n_population), sample_size)):
        idx = np.asarray(ids, dtype=np.int64)
        sample = Sample(ids=idx, pi=pi, design=design)
        values[k], varests[k] = statistic(sample, y[idx])

    expectation = float(values.mean())
    variance = float(np.mean((values - expectation) ** 2))
    return ExactMoments(
        expectation=expectation,
        variance=variance,
        expected_variance_estimate=float(varests.mean()),
        n_samples=n_samples,
    )
