"""Sampling designs, Horvitz-Thompson estimation and exact-enumeration checks.

Only simple random sampling without replacement (SRSWOR) ships with a sampler
and a closed-form variance estimator. Externally supplied inclusion
probabilities are accepted for estimation from files. One function,
``equal_probability_variances``, computes every design-based variance and
decides whether a sample has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError

ENUMERATION_GUARD = 10**6
# unit ids are int64, so a population has fewer units than this
MAX_POPULATION = 2**63
# samples stacked per batch of the exact enumeration
ENUMERATION_CHUNK = 65536


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for (seed, key) pairs.

    Streams derived from the same seed but different keys are statistically
    independent, so replicate-level work can be distributed over workers
    without the results depending on the worker count.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass(frozen=True)
class SurveyDesign:
    """A fixed-size design of ``sample_size`` units from ``n_population``.

    The inclusion probabilities travel with each ``Sample``: all equal to
    the sampling fraction under SRSWOR, supplied per unit from files. A
    design-based variance exists only when they are equal
    (``equal_probability_variances``).
    """

    n_population: int
    sample_size: int

    def __post_init__(self) -> None:
        if self.n_population < 1:
            raise ValidationError("population size must be at least 1")
        if self.n_population >= MAX_POPULATION:
            raise ValidationError(f"population size {self.n_population} is not below 2**63")
        if not 0 < self.sample_size <= self.n_population:
            raise ValidationError(
                f"sample size {self.sample_size} outside 1..{self.n_population}"
            )

    @property
    def f(self) -> float:
        """Sampling fraction n/N."""
        return self.sample_size / self.n_population


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
        if len(ids) != self.design.sample_size:
            raise ValidationError(
                f"sample has {len(ids)} units but the design's sample size is "
                f"{self.design.sample_size}"
            )
        if len(np.unique(ids)) != len(ids):
            raise ValidationError("sample contains repeated unit ids")
        if ids.min() < 0 or ids.max() >= self.design.n_population:
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
    """A point estimate with its variance estimate.

    ``variance`` is None when no design-based variance estimator is available
    (externally supplied unequal probabilities).
    """

    value: float
    variance: float | None
    estimator: str
    target: str = "total"

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
    estimator applies.
    """

    values: np.ndarray
    variances: np.ndarray

    def first(self, estimator: str, target: str) -> Estimate:
        """The estimate of the first sample of the stack."""
        variance = float(self.variances[0])
        return Estimate(
            value=float(self.values[0]),
            variance=None if math.isnan(variance) else variance,
            estimator=estimator,
            target=target,
        )


def scale_to_target(value, variance, target: str, n_population: int):
    """Convert a total-scale (value, variance) pair to the requested target,
    elementwise."""
    if target == "total":
        return value, variance
    if target == "mean":
        return value / n_population, variance / n_population**2
    raise ValidationError(f"unknown target {target!r}")


def srswor_ids(n_population: int, sample_size: int,
               rng: np.random.Generator) -> np.ndarray:
    """Sorted unit ids of an SRSWOR sample of ``sample_size`` from 0..N-1.

    Uses the generator's without-replacement choice, so every subset of the
    stated size is equally probable. numpy draws it by Floyd's algorithm
    (Bentley & Floyd 1987) when N <= 10000 or n <= N // 50, and otherwise
    by shuffling the last n places of 0..N-1.
    """
    return np.sort(rng.choice(n_population, size=sample_size, replace=False))


# When the vectorised draw pays, measured on a 2-core machine (numpy 2.4):
# - it costs about 0.2 ms per call plus 8 us per replicate at n = 100,
#   against 30-45 us per replicate stream by stream, so the two meet near
#   8 replicates (N = 5000: 8 replicates 0.20 ms either way, 16 replicates
#   0.26 against 0.40 ms, 250 replicates 2.1 against 9.3 ms);
# - its cost per replicate grows with n faster than the streams' does, and
#   the two meet between n = 600 and 1000 (N = 50000: 15 against 50 us at
#   n = 200, 53 against 64 us at n = 600, 111 against 58 us at n = 1000),
#   so n stops at 400, below that range;
# - a row whose draw lands on an earlier substitute is redrawn stream by
#   stream, a share that grows like n**3 / N**2 (N = 1000: 12 % of the rows
#   at n = 100, 82 % at n = 200, where the two paths cost the same).
_VECTOR_MIN_REPLICATES = 8
_VECTOR_MAX_SAMPLE = 400


def replicate_ids(n_population: int, sample_size: int, seed: int,
                  key: tuple[int, ...], indices) -> np.ndarray:
    """Sorted SRSWOR ids of replicates ``indices``, one row per replicate.

    Row i equals ``srswor_ids(n_population, sample_size,
    rng_stream(seed, *key, indices[i]))`` bit for bit. Where numpy samples
    by Floyd's algorithm, N < 2**32, every k < 2**32, and the chunk and
    sample sizes make it pay, the rows come from ``_floyd_rows`` in array
    operations over the whole chunk; a row it cannot vouch for, and every
    other case, is drawn stream by stream.
    """
    indices = list(indices)
    if (len(indices) >= _VECTOR_MIN_REPLICATES
            and sample_size <= _VECTOR_MAX_SAMPLE
            and sample_size**3 <= 4 * n_population**2
            and n_population < 2**32
            and (n_population <= 10000 or sample_size <= n_population // 50)
            and seed >= 0 and min(key, default=0) >= 0
            and min(indices) >= 0 and max(indices) <= _MASK32):
        ids, exact = _floyd_rows(n_population, sample_size,
                                 _pcg64_seeds(seed, key, np.asarray(indices, np.uint64)))
        redraw = np.flatnonzero(~exact)
    else:
        ids = np.empty((len(indices), sample_size), dtype=np.int64)
        redraw = range(len(indices))
    for i in redraw:
        ids[i] = srswor_ids(n_population, sample_size,
                            rng_stream(seed, *key, indices[i]))
    return ids


# The vectorised draw replays three fixed algorithms as numpy runs them:
# SeedSequence (numpy/random/bit_generator.pyx), PCG64 XSL-RR seeded from
# its 4-word state (O'Neill 2014), and Generator.choice's Floyd loop over
# Lemire's bounded 32-bit draw (numpy/random/src/distributions). Of
# SeedSequence only the last steps are replayed: numpy supplies the pool of
# seed and key, and k's mixing into it and generate_state run here. Tests
# pin every row against the stream-by-stream reference.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _n_words32(value: int) -> int:
    """How many 32-bit words SeedSequence makes of a non-negative int; 0 is
    one zero word."""
    return max(1, -(-int(value).bit_length() // 32))


def _hashmix(value: np.ndarray, hash_const: np.ndarray, mult: int) -> np.ndarray:
    """SeedSequence's hash of the 32-bit ``value`` under ``hash_const``, on
    uint64 arrays that broadcast."""
    value = ((value ^ hash_const) * ((hash_const * mult) & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    """``count`` successive hash constants from ``start``, as a column."""
    consts = [start]
    while len(consts) < count:
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint64)[:, None]


def _pcg64_seeds(seed: int, key: tuple[int, ...], ks: np.ndarray):
    """PCG64's 128-bit seed and increment as (high, low) uint64 arrays, one
    entry per k of ``ks`` (k < 2**32), as ``rng_stream(seed, *key, k)``
    seeds them.

    The entropy words are seed (padded to the pool size), key, k. numpy's
    SeedSequence of (seed, key) holds the pool with every word but k mixed
    in, after four hashes per word; k, the last word, is mixed into each
    pool word under the hash constants that follow.
    """
    pool = np.random.SeedSequence(seed, spawn_key=key).pool.astype(np.uint64)[:, None]
    n_words = max(_POOL_SIZE, _n_words32(seed)) + sum(map(_n_words32, key))
    hash_const = (_INIT_A * pow(_MULT_A, 4 * n_words, 1 << 32)) & _MASK32
    value = _hashmix(ks, _hash_constants(hash_const, _MULT_A, _POOL_SIZE), _MULT_A)
    # k's hash mixed into each pool word
    pool = (_MIX_MULT_L * pool - _MIX_MULT_R * value) & _MASK32
    pool ^= pool >> 16
    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little-endian; PCG64 reads (seed high, seed low, inc high, inc low)
    state = _hashmix(np.tile(pool, (2, 1)),
                     _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), _MULT_B)
    return state[0::2] | (state[1::2] << 32)


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of uint64 arrays as (high, low) halves."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low, cross1, cross2 = a0 * b0, a0 * b1, a1 * b0
    middle = (low >> 32) + (cross1 & _MASK32) + (cross2 & _MASK32)
    high = a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (middle >> 32)
    return high, a * b


def _mul128(x_hi, x_lo, c_hi, c_lo) -> tuple[np.ndarray, np.ndarray]:
    """(x * c) mod 2**128 on (high, low) uint64 halves."""
    high, low = _mul64(x_lo, c_lo)
    return high + x_lo * c_hi + x_hi * c_lo, low


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _pcg64_uint32(seeds, n_words: int) -> np.ndarray:
    """The first ``n_words`` 32-bit draws of each PCG64 stream, (B, n_words).

    Seeding leaves the state at s0 = M (s + inc') + inc', inc' = 2 inc + 1,
    and output t (t = 1, 2, ...) reads the state after t more LCG steps,
    A_t s + G_t inc' with A_t = M**(t + 1) and G_t = M**(t + 1) + M**t + ...
    + 1 (mod 2**128). Each 64-bit XSL-RR output gives two 32-bit draws, low
    half first.
    """
    seed_hi, seed_lo, inc_hi, inc_lo = seeds
    inc_hi = (inc_hi << 1) | (inc_lo >> 63)
    inc_lo = (inc_lo << 1) | 1
    n_outputs = (n_words + 1) // 2
    power, partial, a_coef, g_coef = _PCG_MULT, 1, [], []
    for _ in range(n_outputs):
        partial = (partial + power) & _MASK128
        power = (power * _PCG_MULT) & _MASK128
        a_coef.append(power)
        g_coef.append((power + partial) & _MASK128)
    a_hi, a_lo = _mul128(seed_hi[:, None], seed_lo[:, None], *_halves(a_coef))
    g_hi, g_lo = _mul128(inc_hi[:, None], inc_lo[:, None], *_halves(g_coef))
    low = a_lo + g_lo
    high = a_hi + g_hi + (low < a_lo)
    rot = high >> 58
    x = high ^ low
    out = (x >> rot) | (x << ((64 - rot) & 63))
    words = np.stack([out & _MASK32, out >> 32], axis=-1)
    return words.reshape(len(seed_hi), -1)[:, :n_words]


def _floyd_rows(n_population: int, sample_size: int, seeds
                ) -> tuple[np.ndarray, np.ndarray]:
    """Generator.choice(N, n, replace=False) by Floyd's algorithm on each
    PCG64 stream, sorted: (B, n) ids, and a mask of the rows known exact.

    Floyd's step j (j = N - n, ..., N - 1) draws v uniform on 0..j by
    Lemire's method, one 32-bit word each while no draw is rejected (j = 0
    takes none), and keeps v unless it is already taken, in which case it
    keeps j. A row is marked inexact if a draw needed a rejection, or if,
    after each draw equal to an earlier draw of its row is replaced by its
    j, the row still repeats a value (a draw equal to an earlier j, which
    only the sequential loop resolves).
    """
    js = np.arange(n_population - sample_size, n_population, dtype=np.uint64)
    drawn = js[js > 0]
    words = _pcg64_uint32(seeds, len(drawn))
    scaled = words * (drawn + 1)
    rejected = np.any((scaled & _MASK32) < (1 << 32) % (drawn + 1), axis=1)
    # sort each row by (draw, step): the first of equal draws keeps its value
    keyed = np.zeros(words.shape[:1] + js.shape, dtype=np.uint64)
    keyed[:, len(js) - len(drawn):] = (scaled >> 32) << 32
    keyed = np.sort(keyed | np.arange(len(js), dtype=np.uint64), axis=1)
    values = keyed >> 32
    repeats = np.zeros(values.shape, dtype=bool)
    repeats[:, 1:] = values[:, 1:] == values[:, :-1]
    ids = np.where(repeats, js[0] + (keyed & _MASK32), values)
    ids = np.sort(ids, axis=1).astype(np.int64)
    exact = ~rejected & np.all(ids[:, 1:] != ids[:, :-1], axis=1)
    return ids, exact


def draw_srswor(n_population: int, sample_size: int,
                rng: np.random.Generator) -> Sample:
    """Draw an SRSWOR sample of ``sample_size`` units from 0..N-1."""
    design = SurveyDesign(n_population, sample_size)
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


def equal_probability_variances(residuals: np.ndarray, pi: np.ndarray,
                                design: SurveyDesign, kept: np.ndarray | None = None,
                                q: int = 0) -> np.ndarray:
    """Design-based variance estimates N^2 (1-f) s^2 / n of stacked samples,
    and NaN for each sample that has none.

    ``residuals`` (..., n) are the sample's residuals, or its study values
    for Horvitz-Thompson; ``pi`` (..., n) its inclusion probabilities, and
    ``kept`` (same shape, boolean) the residuals that count, all by default.
    s^2 is the sample variance of the kept residuals and n their count; the
    finite-population correction stays at the design's sampling fraction f,
    also for a subsample. A sample has a design-based variance estimator
    only when (Särndal, Swensson & Wretman 1992, ch. 3 and 6):

    - its inclusion probabilities are all equal, as under SRSWOR;
    - at least 2 of its residuals count, so s^2 exists; and
    - outside a census (f < 1), more than ``q`` count, for residuals of a
      fit of ``q`` coefficients on the sample: n <= q units leave the fit
      no residual degrees of freedom, and its residuals are zero by
      construction. Coefficients fixed outside the sample take q = 0.
    """
    e = np.asarray(residuals, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kept is None:
            n = e.shape[-1]
            dev = e - np.sum(e, axis=-1, keepdims=True) / n
        else:
            n = np.sum(kept, axis=-1)
            mean = np.sum(e * kept, axis=-1, keepdims=True) / n[..., None]
            dev = (e - mean) * kept
        s2 = np.sum(dev * dev, axis=-1) / (n - 1)
        variances = design.n_population**2 * (1.0 - design.f) * s2 / n
    exists = np.all(pi == pi[..., :1], axis=-1) & (n >= 2) & ((n > q) | (design.f == 1))
    return np.where(exists, variances, np.nan)


@dataclass(frozen=True)
class ExactMoments:
    """Exact design moments of an estimator under full SRSWOR enumeration."""

    expectation: float
    variance: float
    expected_variance_estimate: float
    n_samples: int


def sample_count(n_population: int, sample_size: int) -> int:
    """C(N, n), or 0 for n > N, as ``math.comb`` gives it, by a running product
    of the nondecreasing counts C(N - k + i, i), k = min(n, N - n), which
    raises ``NumericalError`` as soon as one passes ``ENUMERATION_GUARD``."""
    k = min(sample_size, n_population - sample_size)
    count = 0 if k < 0 else 1
    for i in range(1, k + 1):
        count = count * (n_population - k + i) // i
        if count > ENUMERATION_GUARD:
            raise NumericalError(f"C({n_population},{sample_size}) exceeds the "
                                 f"enumeration guard of {ENUMERATION_GUARD}")
    return count


def exact_design_moments(y: np.ndarray, sample_size: int) -> ExactMoments:
    """Enumerate every SRSWOR sample and return the exact moments of the HT
    total and of its closed-form variance estimate.

    All C(N, n) samples carry probability 1 / C(N, n). They are taken in
    lexicographic order and estimated in stacks of at most
    ``ENUMERATION_CHUNK``; the enumeration refuses to run past
    ``ENUMERATION_GUARD`` samples.
    """
    y = np.asarray(y, dtype=np.float64)
    n_population = len(y)
    n_samples = sample_count(n_population, sample_size)
    design = SurveyDesign(n_population, sample_size)

    samples = combinations(range(n_population), sample_size)
    values = np.empty(n_samples)
    varests = np.empty(n_samples)
    for start in range(0, n_samples, ENUMERATION_CHUNK):
        size = min(ENUMERATION_CHUNK, n_samples - start)
        ids = np.fromiter(chain.from_iterable(islice(samples, size)), np.int64,
                          size * sample_size).reshape(size, sample_size)
        fit = ht_total_batch(y[ids], np.full(ids.shape, design.f), design)
        values[start:start + size] = fit.values
        varests[start:start + size] = fit.variances

    expectation = float(values.mean())
    variance = float(np.mean((values - expectation) ** 2))
    return ExactMoments(
        expectation=expectation,
        variance=variance,
        expected_variance_estimate=float(varests.mean()),
        n_samples=n_samples,
    )
