"""Tests for SORT / NORMALIZE (test-length computation and hard-fault selection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MAX_TEST_LENGTH,
    normalize,
    objective_from_confidence,
    required_test_length,
    sort_faults,
)
from repro.faults import Fault


def objective_value(probs, n_patterns):
    """The paper's objective ``J_N = Σ_f exp(-N p_f)`` (formulas (9)/(10))."""
    with np.errstate(under="ignore"):
        return float(np.exp(-float(n_patterns) * np.asarray(probs, dtype=float)).sum())


class TestSort:
    def test_orders_by_probability_and_removes_zeros(self):
        faults = [Fault(i, False) for i in range(4)]
        probs = [0.5, 0.0, 0.01, 0.2]
        sorted_faults, sorted_probs, redundant = sort_faults(faults, probs)
        assert list(sorted_probs) == [0.01, 0.2, 0.5]
        assert sorted_faults[0] == faults[2]
        assert list(redundant) == [faults[1]]

    def test_stable_for_equal_probabilities(self):
        faults = [Fault(i, False) for i in range(3)]
        sorted_faults, _, _ = sort_faults(faults, [0.5, 0.5, 0.5])
        assert list(sorted_faults) == faults

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sort_faults([Fault(0, False)], [0.1, 0.2])


class TestNormalize:
    def test_single_fault_closed_form(self):
        """For one fault, N must satisfy exp(-N p) <= -ln(c), i.e.
        N >= ln(1/Q)/p; normalize returns the smallest such integer."""
        p = 0.01
        confidence = 0.999
        result = normalize([p], confidence)
        threshold = objective_from_confidence(confidence)
        expected = int(np.ceil(np.log(1.0 / threshold) / p))
        assert abs(result.test_length - expected) <= 1
        assert result.objective <= threshold

    def test_threshold_requires_confidence_strictly_inside_the_unit_interval(self):
        assert objective_from_confidence(0.999) == pytest.approx(-np.log(0.999))
        for confidence in (0.0, 1.0):
            with pytest.raises(ValueError):
                objective_from_confidence(confidence)

    def test_result_is_minimal(self):
        probs = sorted([0.004, 0.01, 0.3, 0.6])
        result = normalize(probs, 0.99)
        threshold = objective_from_confidence(0.99)
        assert objective_value(probs, result.test_length) <= threshold
        assert objective_value(probs, result.test_length - 1) > threshold

    def test_harder_faults_need_longer_tests(self):
        easy = normalize([0.1, 0.2, 0.5], 0.999)
        hard = normalize([0.0001, 0.2, 0.5], 0.999)
        assert hard.test_length > easy.test_length

    def test_higher_confidence_needs_longer_tests(self):
        probs = [0.01, 0.05]
        assert normalize(probs, 0.9999).test_length > normalize(probs, 0.9).test_length

    def test_hard_fault_count_excludes_easy_faults(self):
        probs = sorted([1e-4] * 3 + [0.5] * 100)
        result = normalize(probs, 0.999)
        assert 1 <= result.n_hard_faults <= 10

    def test_cap_reached_for_impossible_faults(self):
        result = normalize([1e-16], 0.999)
        assert result.capped
        assert result.test_length == MAX_TEST_LENGTH

    def test_rejects_unsorted_probabilities(self):
        with pytest.raises(ValueError, match="sorted"):
            normalize([0.5, 0.1], 0.999)

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError, match="positive"):
            normalize([0.0, 0.5], 0.999)

    def test_empty_fault_list(self):
        result = normalize([], 0.999)
        assert result.test_length == 1
        assert result.n_hard_faults == 0

    @given(
        probs=st.lists(st.floats(1e-4, 0.9), min_size=1, max_size=30),
        confidence=st.sampled_from([0.9, 0.99, 0.999]),
    )
    @settings(max_examples=60)
    def test_returned_length_meets_threshold(self, probs, confidence):
        ordered = sorted(probs)
        result = normalize(ordered, confidence)
        threshold = objective_from_confidence(confidence)
        assert objective_value(ordered, result.test_length) <= threshold * (1 + 1e-5)
        assert 1 <= result.n_hard_faults <= len(ordered)


class TestRequiredTestLength:
    def test_drops_zero_probability_faults(self):
        result = required_test_length([0.0, 0.1, 0.5], 0.999)
        finite = required_test_length([0.1, 0.5], 0.999)
        assert result.test_length == finite.test_length

    def test_matches_paper_scale_for_comparator_style_probability(self):
        """A fault with detection probability 2^-24 (the S1 equality chain)
        needs on the order of 10^8 patterns — the magnitude of Table 1."""
        result = required_test_length([2.0**-24], 0.999)
        assert 10**7 < result.test_length < 10**9


def _reference_normalize(probs, confidence):
    """Frozen copy of the original NORMALIZE probe loop, which computed both
    truncation bounds ``l(z, N)`` and ``u(z, N)`` at every probe; returns
    ``(test_length, n_hard_faults, objective, capped)``."""
    probs = np.asarray(probs, dtype=float)
    threshold = objective_from_confidence(confidence)
    relevance = 1e-6

    def bounds(n_patterns):
        n_faults = probs.size
        cutoff = max(threshold, 1e-300) * relevance / n_faults
        limit = np.log(1.0 / cutoff) / max(n_patterns, 1.0)
        z = max(int(np.searchsorted(probs, limit, side="right")), 1)
        with np.errstate(under="ignore"):
            lower = float(np.exp(-n_patterns * probs[:z]).sum())
        if z >= n_faults:
            return lower, lower <= threshold
        with np.errstate(under="ignore"):
            tail = (n_faults - z) * float(np.exp(-n_patterns * probs[z]))
        upper = lower + tail
        if upper <= threshold:
            return upper, True
        return lower, False

    def below(n):
        value, decided = bounds(n)
        return value <= threshold if not decided else True

    low, high = 1, 1
    capped = False
    while not below(high):
        if high >= MAX_TEST_LENGTH:
            capped = True
            break
        low = high
        high = min(high * 4, MAX_TEST_LENGTH)
    if capped:
        n_final = MAX_TEST_LENGTH
    else:
        while low < high:
            mid = (low + high) // 2
            if below(mid):
                high = mid
            else:
                low = mid + 1
        n_final = high
    with np.errstate(under="ignore"):
        terms = np.exp(-float(n_final) * probs)
    cutoff = max(threshold, 1e-300) * relevance / probs.size
    n_hard = max(int(np.count_nonzero(terms > cutoff)), 1)
    return n_final, n_hard, float(terms.sum()), capped


class TestNormalizeMatchesReferenceProbeLoop:
    """``normalize`` decides each probe by ``l(z, N) <= Q`` alone; the old
    loop also consulted ``u(z, N)``.  The answers must be identical."""

    @given(
        exponents=st.lists(st.floats(0.0, 17.0), min_size=1, max_size=400),
        confidence=st.sampled_from([0.5, 0.9, 0.999, 0.999999]),
    )
    @settings(max_examples=200, deadline=None)
    def test_identical_results(self, exponents, confidence):
        probs = np.sort(10.0 ** -np.asarray(exponents))
        result = normalize(probs, confidence)
        assert (
            result.test_length,
            result.n_hard_faults,
            result.objective,
            result.capped,
        ) == _reference_normalize(probs, confidence)

    @given(
        n_easy=st.integers(0, 2000),
        hard=st.floats(1e-14, 1e-3),
        easy=st.floats(1e-3, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_with_a_long_easy_tail(self, n_easy, hard, easy):
        """Many equal easy faults make ``u(z, N)`` differ most from ``l``."""
        probs = np.sort(np.concatenate([[hard], np.full(n_easy, easy)]))
        result = normalize(probs, 0.999)
        assert (
            result.test_length,
            result.n_hard_faults,
            result.objective,
            result.capped,
        ) == _reference_normalize(probs, 0.999)

    @pytest.mark.parametrize("probs", [[1e-16], [1e-17, 0.5], [1e-300, 1e-20, 0.1]])
    def test_identical_when_capped(self, probs):
        result = normalize(probs, 0.999)
        assert result.capped and result.test_length == MAX_TEST_LENGTH
        assert (
            result.test_length,
            result.n_hard_faults,
            result.objective,
            result.capped,
        ) == _reference_normalize(probs, 0.999)
