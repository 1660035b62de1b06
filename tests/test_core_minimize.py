"""Tests for the per-coordinate Newton minimization (formula (15))."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coordinate_objective, minimize_coordinate, minimize_coordinates
from repro.core import minimize as minimize_module


def brute_force_minimum(p0, p1, n, bounds, resolution=4001):
    grid = np.linspace(bounds[0], bounds[1], resolution)
    values = [coordinate_objective(np.asarray(p0), np.asarray(p1), n, y) for y in grid]
    return float(grid[int(np.argmin(values))])


class TestMinimizeCoordinate:
    def test_single_fault_pushes_toward_better_cofactor(self):
        # p(y) = 0.01 + y*(0.2-0.01): larger y -> larger detection probability
        # -> smaller objective, so the minimum sits at the upper bound.
        result = minimize_coordinate([0.01], [0.2], 1000, bounds=(0.05, 0.95))
        assert result.y == pytest.approx(0.95, abs=1e-6)

    def test_single_fault_other_direction(self):
        result = minimize_coordinate([0.2], [0.01], 1000, bounds=(0.05, 0.95))
        assert result.y == pytest.approx(0.05, abs=1e-6)

    def test_balanced_pair_has_interior_minimum(self):
        """Two symmetric faults pulling in opposite directions: the unique
        minimum (strict convexity, Lemma 3) is the midpoint."""
        result = minimize_coordinate([0.01, 0.05], [0.05, 0.01], 500, bounds=(0.0, 1.0))
        assert result.y == pytest.approx(0.5, abs=1e-3)
        assert result.converged

    def test_insensitive_coordinate_keeps_initial_value(self):
        result = minimize_coordinate([0.1, 0.2], [0.1, 0.2], 1000, initial=0.37)
        assert result.y == pytest.approx(0.37)
        assert result.iterations == 0

    def test_empty_fault_set_returns_midpoint(self):
        result = minimize_coordinate([], [], 1000, bounds=(0.1, 0.9))
        assert result.y == pytest.approx(0.5)

    def test_respects_bounds(self):
        result = minimize_coordinate([0.001], [0.9], 10_000, bounds=(0.2, 0.8))
        assert 0.2 <= result.y <= 0.8

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            minimize_coordinate([0.1], [0.1, 0.2], 100)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            minimize_coordinate([0.1], [0.2], 100, bounds=(0.9, 0.1))

    def test_huge_n_does_not_break_numerics(self):
        """With N ~ 1e9 all raw terms underflow; the scaled derivatives must
        still drive the iteration to the right place."""
        result = minimize_coordinate([1e-8, 2e-3], [2e-3, 1e-8], 10**9, bounds=(0.05, 0.95))
        assert result.converged
        assert 0.05 <= result.y <= 0.95
        assert abs(result.y - 0.5) < 0.05

    @given(
        n_faults=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        n_patterns=st.sampled_from([100, 1_000, 50_000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_grid_search(self, n_faults, seed, n_patterns):
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(0.0, 0.05, n_faults)
        p1 = rng.uniform(0.0, 0.05, n_faults)
        bounds = (0.05, 0.95)
        result = minimize_coordinate(p0, p1, n_patterns, bounds=bounds)
        reference = brute_force_minimum(p0, p1, n_patterns, bounds)
        value_newton = coordinate_objective(p0, p1, n_patterns, result.y)
        value_grid = coordinate_objective(p0, p1, n_patterns, reference)
        # The Newton result must be at least as good as a fine grid search
        # (up to grid resolution).
        assert value_newton <= value_grid * (1 + 1e-6) + 1e-12

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_objective_is_convex_along_coordinate(self, seed):
        """Sampled second-difference check of Lemma 3 (strict convexity)."""
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(0.0, 0.1, 5)
        p1 = rng.uniform(0.0, 0.1, 5)
        n = 200
        ys = np.linspace(0.0, 1.0, 21)
        values = np.array([coordinate_objective(p0, p1, n, y) for y in ys])
        second_differences = values[:-2] - 2 * values[1:-1] + values[2:]
        assert np.all(second_differences >= -1e-9)


def _rows_reference(p0, p1, n_patterns, bounds, initial):
    return np.array(
        [
            minimize_coordinate(
                p0[i],
                p1[i],
                n_patterns,
                bounds=bounds,
                initial=None if initial is None else initial[i],
            ).y
            for i in range(p0.shape[0])
        ]
    )


class TestMinimizeCoordinates:
    """The lane-masked MINIMIZE must follow the scalar reference exactly."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 12),
        n_faults=st.integers(1, 300),
        log_n=st.floats(1.0, 15.0),
        integral_n=st.booleans(),
        scale=st.sampled_from([1e-9, 1e-5, 1e-3, 0.05, 1.0]),
        zero_rows=st.integers(0, 3),
        pinned_cols=st.floats(0.0, 1.0),
        initial_kind=st.sampled_from(["none", "inside", "outside"]),
        bounds=st.sampled_from([(0.05, 0.95), (0.01, 0.99), (0.0, 1.0), (0.3, 0.4)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_scalar_reference_bit_for_bit(
        self,
        seed,
        n_rows,
        n_faults,
        log_n,
        integral_n,
        scale,
        zero_rows,
        pinned_cols,
        initial_kind,
        bounds,
    ):
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(0.0, scale, (n_rows, n_faults)) * rng.random((n_rows, 1))
        p1 = rng.uniform(0.0, scale, (n_rows, n_faults)) * rng.random((n_rows, 1))
        # Rows with zero delta keep their start; columns with zero delta are
        # faults the input does not influence.
        p1[: min(zero_rows, n_rows)] = p0[: min(zero_rows, n_rows)]
        same = rng.random(n_faults) < pinned_cols
        p1[:, same] = p0[:, same]
        n_patterns = 10.0**log_n
        if integral_n:
            n_patterns = int(n_patterns)
        if initial_kind == "none":
            initial = None
        elif initial_kind == "inside":
            initial = rng.uniform(bounds[0], bounds[1], n_rows)
        else:
            initial = rng.uniform(-0.5, 1.5, n_rows)
        fast = minimize_coordinates(p0, p1, n_patterns, bounds=bounds, initial=initial)
        reference = _rows_reference(p0, p1, n_patterns, bounds, initial)
        assert fast.tobytes() == reference.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        max_iterations=st.integers(1, 8),
        tolerance=st.sampled_from([1e-12, 1e-6, 1e-3, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_iteration_cap_and_tolerance_follow_the_scalar_path(
        self, seed, max_iterations, tolerance
    ):
        """The module constants drive the lanes' stopping tests exactly as
        the reference's ``tolerance`` and ``max_iterations`` arguments."""
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(0.0, 0.02, (8, 30))
        p1 = rng.uniform(0.0, 0.02, (8, 30))
        initial = rng.uniform(0.05, 0.95, 8)
        bounds = (0.05, 0.95)
        with mock.patch.multiple(
            minimize_module, TOLERANCE=tolerance, MAX_ITERATIONS=max_iterations
        ):
            fast = minimize_coordinates(p0, p1, 2_000, bounds=bounds, initial=initial)
        reference = np.array(
            [
                minimize_coordinate(
                    p0[i],
                    p1[i],
                    2_000,
                    bounds=bounds,
                    initial=initial[i],
                    tolerance=tolerance,
                    max_iterations=max_iterations,
                ).y
                for i in range(8)
            ]
        )
        assert fast.tobytes() == reference.tobytes()

    @given(seed=st.integers(0, 2**16), n_rows=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_one_fault_rows_sit_at_a_bound(self, seed, n_rows):
        """With a single fault J is monotone, so every row's minimum is a
        bound (or the start, for an insensitive row)."""
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(0.0, 0.1, (n_rows, 1))
        p1 = rng.uniform(0.0, 0.1, (n_rows, 1))
        p1[::3] = p0[::3]
        initial = rng.uniform(0.1, 0.9, n_rows)
        bounds = (0.05, 0.95)
        fast = minimize_coordinates(p0, p1, 5_000, bounds=bounds, initial=initial)
        reference = _rows_reference(p0, p1, 5_000, bounds, initial)
        assert fast.tobytes() == reference.tobytes()
        moved = p0[:, 0] != p1[:, 0]
        assert np.all(np.isin(fast[moved], bounds))
        assert np.array_equal(fast[~moved], initial[~moved])

    def test_minima_at_either_bound_and_inside(self):
        p0 = np.array([[0.01, 0.01], [0.2, 0.2], [0.01, 0.05]])
        p1 = np.array([[0.2, 0.2], [0.01, 0.01], [0.05, 0.01]])
        fast = minimize_coordinates(p0, p1, 1000, bounds=(0.05, 0.95))
        assert fast[0] == 0.95 and fast[1] == 0.05
        assert 0.05 < fast[2] < 0.95
        reference = _rows_reference(p0, p1, 1000, (0.05, 0.95), None)
        assert fast.tobytes() == reference.tobytes()

    def test_underflow_regime(self):
        """At N = 1e15 every raw term underflows; the rescaled lanes still
        match the scalar path."""
        rng = np.random.default_rng(3)
        p0 = rng.uniform(0.0, 1e-6, (6, 40))
        p1 = rng.uniform(0.0, 1e-6, (6, 40))
        for n_patterns in (10, 10**9, 10**15):
            fast = minimize_coordinates(p0, p1, n_patterns, bounds=(0.05, 0.95))
            reference = _rows_reference(p0, p1, n_patterns, (0.05, 0.95), None)
            assert fast.tobytes() == reference.tobytes()

    def test_empty_fault_set_gives_midpoints(self):
        fast = minimize_coordinates(np.zeros((3, 0)), np.zeros((3, 0)), 100, (0.1, 0.9))
        assert np.array_equal(fast, np.full(3, 0.5))

    def test_no_rows(self):
        assert minimize_coordinates(np.zeros((0, 4)), np.zeros((0, 4)), 100).size == 0

    def test_shape_and_bounds_validation(self):
        with pytest.raises(ValueError):
            minimize_coordinates(np.zeros((2, 3)), np.zeros((2, 4)), 100)
        with pytest.raises(ValueError):
            minimize_coordinates(np.zeros(3), np.zeros(3), 100)
        with pytest.raises(ValueError):
            minimize_coordinates(np.zeros((1, 1)), np.ones((1, 1)), 100, bounds=(0.9, 0.1))
