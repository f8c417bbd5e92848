"""Executable checks of the paper's Appendix A analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.equilibrium import (best_response, droptail_gradient,
                                    droptail_loss, game_utility,
                                    is_concave_in_own_rate,
                                    symmetric_equilibrium)


class TestDroptailModel:
    def test_no_loss_under_capacity(self):
        assert droptail_loss(50.0, 100.0) == 0.0

    def test_loss_formula_over_capacity(self):
        assert droptail_loss(200.0, 100.0) == pytest.approx(0.5)

    def test_gradient_formula(self):
        assert droptail_gradient(150.0, 100.0) == pytest.approx(0.5)
        assert droptail_gradient(50.0, 100.0) == 0.0

    def test_gradient_requires_capacity(self):
        with pytest.raises(ValueError):
            droptail_gradient(1.0, 0.0)


class TestGameUtility:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            game_utility([-1.0, 2.0], 0, 10.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(10.0, 100.0), st.floats(0.0, 150.0))
    def test_concave_in_own_rate(self, capacity, others):
        """Lemma A.2 part 1, numerically."""
        assert is_concave_in_own_rate(capacity, others)


class TestEquilibrium:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 32), st.floats(12.0, 96.0))
    def test_symmetric_equilibrium_exists_and_saturates(self, n, capacity):
        """Lemma A.1/A.3: the fair equilibrium has n*x* >= C, and it is
        a best-response fixed point."""
        x_star = symmetric_equilibrium(n, capacity)
        assert n * x_star >= capacity * 0.99
        response = best_response(np.full(n, x_star), 0, capacity)
        assert abs(response - x_star) <= 1e-6 * capacity

    def test_equilibrium_is_best_response_fixed_point(self):
        """The fixed point saturates the link exactly up to n = 16 and
        overshoots it only mildly at n = 32."""
        capacity = 48.0
        for n in (1, 2, 8, 16, 32):
            x_star = symmetric_equilibrium(n, capacity)
            response = best_response(np.full(n, x_star), 0, capacity)
            assert response == pytest.approx(x_star, rel=1e-6), n
            ratio = n * x_star / capacity
            if n <= 16:
                assert ratio == pytest.approx(1.0, abs=1e-6), n
            else:
                assert 1.0 < ratio < 1.1

    def test_no_profitable_unilateral_deviation(self):
        """Theorem 4.1's inequality at the symmetric equilibrium."""
        n, capacity = 3, 60.0
        x_star = symmetric_equilibrium(n, capacity)
        rates = np.full(n, x_star)
        u_eq = game_utility(rates, 0, capacity)
        for deviation in (0.5, 0.8, 1.2, 2.0):
            trial = rates.copy()
            trial[0] = x_star * deviation
            assert game_utility(trial, 0, capacity) <= u_eq + 1e-6

    def test_under_capacity_wants_to_increase(self):
        """Lemma A.4 case (i): with S < C, increasing raises utility."""
        rates = np.array([10.0, 10.0])
        capacity = 48.0
        low = game_utility(rates, 0, capacity)
        rates[0] = 15.0
        assert game_utility(rates, 0, capacity) > low
