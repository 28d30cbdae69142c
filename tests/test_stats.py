"""Probability formulas, identities and the Monte-Carlo event model."""

import math

import numpy as np
import pytest

from dynafeat.stats import (binomial_moments, p_false, p_false_crosscheck, p_true,
                            p_true_crosscheck, support_threshold)


# ---------------------------------------------------------------------------
# Spot values
# ---------------------------------------------------------------------------

def test_p_true_values():
    assert p_true(1.0, 1, 100) == 1.0
    assert p_true(0.5, 40, 40) == 1.0
    assert p_true(0.5, 10, 100) == pytest.approx(0.55, abs=1e-15)


def test_p_false_values():
    assert p_false(1.0, 10, 100) == 0.0
    assert p_false(0.5, 40, 40) == 0.5
    assert p_false(0.5, 10, 100) == pytest.approx(0.05, abs=1e-15)


def test_p_true_crosscheck_values():
    assert p_true_crosscheck(0.5, 30, 30, 20, 20) == pytest.approx(1.0, abs=1e-15)
    assert p_true_crosscheck(1.0, 5, 50, 7, 70) == 1.0
    assert p_true_crosscheck(0.5, 10, 20, 15, 30) == pytest.approx(0.5625, abs=1e-15)


def test_p_false_crosscheck_values():
    assert p_false_crosscheck(1.0, 5, 50, 7, 70) == 0.0
    assert p_false_crosscheck(0.5, 30, 30, 20, 20) == 0.25
    assert p_false_crosscheck(0.5, 10, 20, 15, 30) == pytest.approx(0.0625, abs=1e-15)


def test_binomial_moments_values():
    assert binomial_moments(25, 0.0).mean == 0.0
    assert binomial_moments(25, 0.0).stddev == 0.0
    assert binomial_moments(25, 1.0).mean == 25.0
    assert binomial_moments(25, 1.0).stddev == 0.0
    mom = binomial_moments(25, 0.2)
    assert mom.mean == pytest.approx(5.0)
    assert mom.stddev == pytest.approx(2.0)


def test_support_threshold_values():
    assert support_threshold(25, 2.0) == 10.0
    assert support_threshold(5, 2.0) == pytest.approx(2.0 * math.sqrt(5.0))
    mom = binomial_moments(25, 0.0625)
    exact = mom.mean + 2.0 * mom.stddev
    expected = 25 * 0.0625 + 2.0 * math.sqrt(25 * 0.0625 * 0.9375)
    assert exact == pytest.approx(expected, abs=1e-12)
    assert exact == pytest.approx(3.9831, abs=1e-3)


def _gap(t, n, n_pool, m, m_pool):
    return (p_true_crosscheck(t, n, n_pool, m, m_pool)
            - p_false_crosscheck(t, n, n_pool, m, m_pool))


def test_separation_gap_values():
    assert _gap(0.5, 30, 30, 20, 20) == pytest.approx(0.75)
    assert _gap(1.0, 5, 50, 7, 70) == 1.0
    assert _gap(0.5, 10, 20, 15, 30) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_count_exceeding_pool_rejected():
    with pytest.raises(ValueError):
        p_true(0.5, 101, 100)
    with pytest.raises(ValueError):
        p_false(0.5, 101, 100)
    with pytest.raises(ValueError):
        p_true_crosscheck(0.5, 5, 10, 11, 10)


def test_parameter_validation():
    with pytest.raises(ValueError):
        p_true(-0.1, 5, 10)
    with pytest.raises(ValueError):
        support_threshold(25, 0.0)
    with pytest.raises(ValueError):
        binomial_moments(0, 0.5)


@pytest.mark.parametrize("call,match", [
    (lambda: p_true(0.5, -1, 10), "counts must be positive"),
    (lambda: p_true(0.5, 0, 0), "counts must be positive"),
    (lambda: p_false(1.5, 5, 10), "t must lie in"),
    (lambda: binomial_moments(10, 1.5), "p must lie in")],
    ids=["negative-count", "empty-pool", "p-false-t", "binomial-p"])
def test_stats_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------------------
# Identities and monotonicity
# ---------------------------------------------------------------------------

def test_p_true_dominates_p_false_sweep():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        t = float(rng.uniform(0, 1))
        n_pool = int(rng.integers(1, 200))
        n = int(rng.integers(1, n_pool + 1))
        hi = p_true(t, n, n_pool)
        lo = p_false(t, n, n_pool)
        assert hi >= lo - 1e-15
        if t > 1e-12:
            assert hi > lo
    # equality exactly at t = 0 where both reduce to n / n_pool
    assert p_true(0.0, 3, 7) == p_false(0.0, 3, 7)


def test_crosscheck_factorization_identity():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        t = float(rng.uniform(0, 1))
        n_pool = int(rng.integers(1, 500))
        n = int(rng.integers(1, n_pool + 1))
        m_pool = int(rng.integers(1, 500))
        m = int(rng.integers(1, m_pool + 1))
        assert abs(p_true_crosscheck(t, n, n_pool, m, m_pool)
                   - p_true(t, n, n_pool) * p_true(t, m, m_pool)) < 1e-12
        assert abs(p_false_crosscheck(t, n, n_pool, m, m_pool)
                   - p_false(t, n, n_pool) * p_false(t, m, m_pool)) < 1e-12


def test_support_threshold_array_equals_scalar():
    n = np.arange(1, 36)
    for k in (1.0, 2.0, 2.5):
        taus = support_threshold(n, k)
        assert taus.tolist() == [support_threshold(i, k) for i in range(1, 36)]
    for bad in (np.array([3, 0, 5]), np.array([-1])):
        with pytest.raises(ValueError):
            support_threshold(bad, 2.0)


def test_threshold_monotone_in_n_and_k():
    taus = [support_threshold(n, 2.0) for n in range(5, 36)]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    ks = [support_threshold(25, k) for k in (0.5, 1.0, 2.0, 3.0)]
    assert all(b > a for a, b in zip(ks, ks[1:]))


def test_gap_lower_bound_for_confident_matcher():
    for t in np.linspace(0.5, 1.0, 101):
        gap = _gap(float(t), 20, 20, 20, 20)
        assert gap >= 0.75 * t * t - 1e-12


# ---------------------------------------------------------------------------
# Monte-Carlo consistency with the generative event model
# ---------------------------------------------------------------------------

def _simulate_crosscheck(rng, trials, t, n, n_pool, m, m_pool, correlated):
    """Event model: a feature matches correctly with probability t; a wrong
    match lands uniformly among the candidate pool; directions independent."""
    fwd_correct = rng.random(trials) < t
    fwd_in_patch = rng.random(trials) < (n / n_pool)
    bwd_correct = rng.random(trials) < t
    bwd_in_patch = rng.random(trials) < (m / m_pool)
    if correlated:
        fwd = fwd_correct | (~fwd_correct & fwd_in_patch)
        bwd = bwd_correct | (~bwd_correct & bwd_in_patch)
    else:
        fwd = ~fwd_correct & fwd_in_patch
        bwd = ~bwd_correct & bwd_in_patch
    return float((fwd & bwd).mean())


@pytest.mark.parametrize("seed", [0, 1])
def test_monte_carlo_matches_closed_form(seed):
    rng = np.random.default_rng(seed)
    trials = 100000
    for _ in range(5):
        t = float(rng.uniform(0.1, 0.9))
        n_pool = int(rng.integers(5, 60))
        n = int(rng.integers(1, n_pool + 1))
        m_pool = int(rng.integers(5, 60))
        m = int(rng.integers(1, m_pool + 1))
        for correlated, p in ((True, p_true_crosscheck(t, n, n_pool, m, m_pool)),
                              (False, p_false_crosscheck(t, n, n_pool, m, m_pool))):
            est = _simulate_crosscheck(rng, trials, t, n, n_pool, m, m_pool, correlated)
            se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(est - p) <= 3 * se + 1e-9
