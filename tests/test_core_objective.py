"""The confidence/objective relations of section 2.3, checked on NORMALIZE.

Formula (1) gives the exact confidence ``c_N = Π_f (1 - (1 - p_f)^N)``;
formulas (9)/(10) replace it by the objective ``J_N = Σ_f exp(-N p_f)`` with
``ln c_N ≈ -J_N``.  NORMALIZE returns the smallest ``N`` with ``J_N <= Q``,
``Q = -ln c``.  These tests check that the ``N`` it returns really buys the
requested confidence under formula (1), written inline here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import normalize, objective_from_confidence, required_test_length, sort_faults
from repro.faults import Fault


def exact_confidence(probs, n_patterns):
    """Formula (1): probability that ``n_patterns`` random patterns detect
    every fault, computed in log space."""
    probs = np.asarray(probs, dtype=float)
    if probs.size == 0:
        return 1.0
    with np.errstate(divide="ignore", under="ignore"):
        escape = np.exp(n_patterns * np.log1p(-probs))
        return float(np.exp(np.log1p(-escape).sum()))


class TestConfidence:
    def test_single_certain_fault(self):
        """A fault caught by every pattern: formula (1) is certain after one
        pattern, while J_N = exp(-N) needs N = ceil(ln(1/Q)), the
        conservative side of the approximation."""
        result = required_test_length([1.0], 0.999)
        threshold = objective_from_confidence(0.999)
        assert result.test_length == int(np.ceil(np.log(1.0 / threshold)))
        assert exact_confidence([1.0], 1) == 1.0

    def test_formula_1_simple_case(self):
        # One fault, p = 0.5: formula (1) gives 0.75 at N = 2; J_N <= -ln 0.75
        # needs N >= 2 ln(1/Q) = 2.49, so NORMALIZE answers 3 (c_3 = 0.875).
        result = normalize([0.5], 0.75)
        assert result.test_length == 3
        assert exact_confidence([0.5], 2) == pytest.approx(0.75)
        assert exact_confidence([0.5], result.test_length) == pytest.approx(0.875)

    def test_undetectable_fault_gives_zero_confidence(self):
        """Formula (1) is 0 at every N with an undetectable fault, so SORT sets
        such faults aside; with nothing left NORMALIZE needs one pattern."""
        assert exact_confidence([0.0, 0.9], 10**6) == 0.0
        faults = [Fault(0, False), Fault(1, True)]
        kept, _, redundant = sort_faults(faults, [0.0, 0.0])
        assert list(kept) == [] and list(redundant) == faults
        result = required_test_length([0.0, 0.0], 0.999)
        assert (result.test_length, result.n_hard_faults, result.objective) == (1, 0, 0.0)

    def test_empty_fault_list_gives_certainty(self):
        result = normalize([], 0.999)
        assert result.objective == 0.0
        assert np.exp(-result.objective) == 1.0
        assert result.threshold == objective_from_confidence(0.999)

    def test_confidence_increases_with_test_length(self):
        probs = [0.01, 0.05, 0.2]
        confidences = (0.9, 0.99, 0.999, 0.9999)
        lengths = [normalize(probs, c).test_length for c in confidences]
        assert lengths == sorted(lengths) and len(set(lengths)) == len(lengths)
        achieved = [exact_confidence(probs, n) for n in lengths]
        assert achieved == sorted(achieved)
        assert achieved[-1] > 0.9999

    def test_confidence_validation(self):
        for confidence in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                normalize([0.5], confidence)
            with pytest.raises(ValueError):
                required_test_length([0.5], confidence)


class TestObjective:
    def test_objective_terms_shape_and_value(self):
        probs = [0.01, 0.2]
        result = normalize(probs, 0.99)
        terms = np.exp(-result.test_length * np.asarray(probs))
        assert result.objective == pytest.approx(terms.sum(), rel=1e-12)
        assert result.objective <= result.threshold

    def test_objective_decreases_with_test_length(self):
        """J_N falls as N grows, so the smallest N with J_N <= Q is the
        boundary: one pattern less leaves the objective above Q."""
        probs = [0.001, 0.01]
        result = normalize(probs, 0.999)
        before = np.exp(-(result.test_length - 1) * np.asarray(probs)).sum()
        assert before > result.threshold >= result.objective

    @given(
        probs=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=20),
        confidence=st.sampled_from([0.9, 0.99, 0.999]),
    )
    @settings(max_examples=100, deadline=None)
    def test_objective_approximates_log_confidence(self, probs, confidence):
        """Formula (9): (1-p)^N <= exp(-Np), so 1 - c_N <= J_N <= Q at the
        returned N, and -ln c_N <= J_N / (1 - J_N) bounds how far formula (1)
        can fall short of the requested confidence."""
        ordered = sorted(probs)
        result = normalize(ordered, confidence)
        achieved = exact_confidence(ordered, result.test_length)
        assert 1.0 - achieved <= result.objective + 1e-12
        assert -np.log(achieved) <= result.objective / (1.0 - result.objective) + 1e-12
        assert achieved >= confidence ** (1.0 / (1.0 - result.threshold)) * (1.0 - 1e-5)

    def test_conversion_roundtrip(self):
        for confidence in (0.9, 0.99, 0.999):
            assert np.exp(-objective_from_confidence(confidence)) == pytest.approx(confidence)

    def test_large_n_underflows_gracefully(self):
        """A fault near 1e-12 drives N into the 10^12 range, where the easy
        faults' terms underflow to zero; NORMALIZE must not raise on that."""
        probs = [1e-12, 0.5, 0.9]
        with np.errstate(all="raise"):
            result = normalize(probs, 0.999)
        assert 10**12 < result.test_length < 10**14
        assert not result.capped
        assert result.n_hard_faults == 1
        assert result.objective == pytest.approx(np.exp(-result.test_length * 1e-12), rel=1e-12)
