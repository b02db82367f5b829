"""Helpers shared by the test modules.

A test fits one sample the way ``greglink estimate`` does: through a batched
kernel or ``fit_unit_inputs`` on a stack of one sample, with no failure
tolerated. A sample's own linkage is built from the population links of its
units, as a link file that holds only those links would give it.
"""

import numpy as np

from greglink.design import draw_srswor, rng_stream
from greglink.estimators import fit_unit_inputs, greg_batch, with_intercept
from greglink.linkage import AuxDatabase, build_linkage

# six units, six records; record 0 carries no links, unit 5 is unmatched
EXAMPLE_LINKS = [(0, 1), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 5), (5, 5)]
EXAMPLE_X = np.array([10.0, 1.0, 2.0, 3.0, 4.0, 5.0])


def fit_at(inputs, y, sample, target="total", covered=None):
    """The estimate of ``inputs`` at ``sample`` with responses ``y``.

    ``covered`` holds the covered units of the linkage the inputs were built
    over; by default they are the population's, whose positions are the unit
    ids.
    """
    pos = sample.ids if covered is None else np.searchsorted(covered, sample.ids)
    return fit_unit_inputs(inputs, pos[None], y[None], sample.pi[None], sample.design,
                           target, strict=True).first(inputs.tag, target)


def greg_fit(x, total, y, sample, target="total"):
    """The regression estimate of ``y`` on an intercept and the covariate
    rows ``x`` (n, p) of ``sample``, calibrated on the population size and
    the covariates' population total ``total`` (p,)."""
    batch = greg_batch(with_intercept(x)[None], y[None], sample.pi[None],
                       np.concatenate([[sample.design.n_population], total]),
                       sample.design, target, strict=True)
    return batch.first("regression", target)


def sample_linkage(linkage, ids):
    """The sample-scope linkage of the units ``ids``, from their links in the
    population-scope ``linkage``, and the mask of those links: per-link values
    of ``linkage`` carry over as ``values[keep]``."""
    keep = np.isin(linkage.link_units, ids)
    sub = build_linkage(np.column_stack([linkage.link_units, linkage.link_records])[keep],
                        ids, linkage.n_records)
    return sub, keep


def perfect_linkage_setting(n_population=30, n=8, seed=9):
    """A one-one linkage of every unit to its own record, linear responses
    and a simple random sample."""
    rng = rng_stream(seed, 0)
    x = rng.uniform(size=n_population)
    y = 1 + 5 * x + rng.normal(0, 1.0, n_population)
    aux = AuxDatabase.from_values(x)
    linkage = build_linkage([(i, i) for i in range(n_population)],
                            n_population, aux)
    sample = draw_srswor(n_population, n, rng_stream(seed, 1))
    return x, y, aux, linkage, sample
