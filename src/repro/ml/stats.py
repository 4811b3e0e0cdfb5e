"""Distribution-shift statistics.

The adaptation layer's :class:`~repro.adaptation.drift.DriftMonitor` runs
two statistics per feature: :func:`population_stability_index` (PSI, the
banking-industry drift score over quantile bins of the reference
population) and :func:`ks_statistic` (the two-sample Kolmogorov-Smirnov
sup-distance between empirical CDFs).  Both are pure NumPy and
deterministic in their inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def quantile_bin_edges(reference: Sequence[float], bins: int = 10) -> np.ndarray:
    """Interior bin edges at the reference population's quantiles.

    Returns up to ``bins - 1`` strictly increasing edges; duplicates from a
    discrete or constant reference are collapsed, so the result may be
    shorter (a constant reference keeps a single edge at its value -- live
    samples at that constant score PSI 0, samples that moved off it land in
    the other bin and score high, which is the right reading of drift in a
    constant feature).

    Raises:
        ValueError: on an empty reference or ``bins < 2``.
    """
    array = np.asarray(list(reference), dtype=float)
    if array.size == 0:
        raise ValueError("quantile_bin_edges: empty reference")
    if bins < 2:
        raise ValueError("quantile_bin_edges: need at least 2 bins")
    quantiles = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    return np.unique(np.quantile(array, quantiles))


def _bin_proportions(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Fraction of ``values`` per bin, bins being the edge-separated cells.

    ``len(edges) + 1`` open-ended bins: ``(-inf, e0], (e0, e1], ...,
    (e_last, inf)``.  Open ends mean a live value outside the reference's
    range still lands in a bin (the outermost one) instead of vanishing.
    """
    positions = np.searchsorted(edges, values, side="left")
    counts = np.bincount(positions, minlength=edges.size + 1).astype(float)
    return counts / values.size


def population_stability_index(
    reference: Sequence[float],
    live: Sequence[float],
    bins: int = 10,
    epsilon: float = 1e-4,
) -> float:
    """PSI of a live sample against a reference population.

    Bins come from the reference's quantiles (so every bin holds roughly
    equal reference mass and the score is scale free); both samples are
    histogrammed into them and the index is
    ``sum((p_live - p_ref) * ln(p_live / p_ref))`` with ``epsilon``
    flooring empty cells.  The conventional reading: < 0.1 stable,
    0.1-0.25 moderate shift, > 0.25 significant shift.

    Always >= 0, and 0 exactly when the binned proportions coincide.

    Raises:
        ValueError: if either sample is empty.
    """
    live_array = np.asarray(list(live), dtype=float)
    if live_array.size == 0:
        raise ValueError("population_stability_index: empty live sample")
    edges = quantile_bin_edges(reference, bins=bins)
    reference_array = np.asarray(list(reference), dtype=float)
    expected = np.maximum(_bin_proportions(reference_array, edges), epsilon)
    actual = np.maximum(_bin_proportions(live_array, edges), epsilon)
    return float(np.sum((actual - expected) * np.log(actual / expected)))


def ks_statistic(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |ECDF_a - ECDF_b|.

    In [0, 1]; 0 when the samples are identical, 1 when their supports are
    disjoint.  No p-value is attached -- the drift monitor compares the raw
    statistic against a configured threshold, which keeps the check
    deterministic and dependency free.

    Raises:
        ValueError: if either sample is empty.
    """
    a = np.sort(np.asarray(list(sample_a), dtype=float))
    b = np.sort(np.asarray(list(sample_b), dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_statistic: empty sample")
    support = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, support, side="right") / a.size
    cdf_b = np.searchsorted(b, support, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
