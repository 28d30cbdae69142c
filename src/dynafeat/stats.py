"""Closed-form matching probabilities and the support threshold.

Model: a feature in patch A matches correctly with prior probability t;
a wrong match lands uniformly among the candidate pool, so it still falls
inside the paired patch with probability n / n_pool. Cross-checked (
bidirectional) probabilities are the product of the two independent
directions. Support counts between a group pair then follow a binomial
law, and a pair is trusted when its support count clears mu + k * sigma
of the uncorrelated case. ``binomial_moments`` gives those exact moments;
the deployed threshold is their approximation k * sqrt(n)
(``support_threshold``), since the uncorrelated mean is tiny and its
variance is dominated by n.

The per-feature independence baked into this model is an approximation:
mutual nearest-neighbor matching couples features, and real descriptor
noise is not uniform. The formulas are used as stated regardless; they
only have to separate correlated from uncorrelated group pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class BinomialMoments:
    mean: float
    stddev: float


def _check_ratio(count: float, pool: float) -> float:
    if count > pool:
        raise ValueError(f"patch count {count} exceeds candidate pool {pool}")
    if count < 0 or pool <= 0:
        raise ValueError("counts must be positive")
    return count / pool


def p_true(t: float, n: float, n_pool: float) -> float:
    """Probability a feature of a correlated patch pair lands its NN inside:
    a correct match, or a wrong one that still falls in the patch."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    ratio = _check_ratio(n, n_pool)
    return t + (1.0 - t) * ratio


def p_false(t: float, n: float, n_pool: float) -> float:
    """Probability a feature of an uncorrelated pair still lands in the patch."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    ratio = _check_ratio(n, n_pool)
    return (1.0 - t) * ratio


def p_true_crosscheck(t: float, n: float, n_pool: float,
                      m: float, m_pool: float) -> float:
    """Cross-checked probability for correlated patches.

    Product of the two independent directions:
    (t + (1-t) n/n_pool) * (t + (1-t) m/m_pool). With equal ratios this
    expands to t^2 + 2 t (1-t) r + (1-t)^2 r^2.
    """
    return p_true(t, n, n_pool) * p_true(t, m, m_pool)


def p_false_crosscheck(t: float, n: float, n_pool: float,
                       m: float, m_pool: float) -> float:
    """Cross-checked probability for uncorrelated patches:
    (1-t)^2 * (n/n_pool) * (m/m_pool)."""
    return p_false(t, n, n_pool) * p_false(t, m, m_pool)


def binomial_moments(trials: float, p: float) -> BinomialMoments:
    """Mean and standard deviation of a binomial support count."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return BinomialMoments(mean=trials * p, stddev=math.sqrt(trials * p * (1.0 - p)))


def support_threshold(n, k: float = 2.0):
    """Minimum support count for trusting a group pair: k * sqrt(n), for a
    group size n or elementwise for an integer array of sizes."""
    if np.any(np.asarray(n) < 1):
        raise ValueError("n must be >= 1")
    if k <= 0:
        raise ValueError("k must be positive")
    return k * np.sqrt(n)
