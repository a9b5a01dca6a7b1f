"""Unit tests for repro.privacy.budget."""

import math

import pytest

from repro.exceptions import InvalidPrivacyBudgetError
from repro.privacy.budget import PrivacyBudget, validate_epsilon
from repro.privacy.mechanisms import binary_rr_probability


class TestValidateEpsilon:
    def test_accepts_positive_float(self):
        assert validate_epsilon(1.1) == pytest.approx(1.1)

    def test_accepts_integer(self):
        assert validate_epsilon(2) == 2.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 100.0])
    def test_rejects_invalid_numbers(self, bad):
        with pytest.raises(InvalidPrivacyBudgetError):
            validate_epsilon(bad)

    def test_rejects_non_numeric(self):
        with pytest.raises(InvalidPrivacyBudgetError):
            validate_epsilon("not-a-number")

    def test_rejects_none(self):
        with pytest.raises(InvalidPrivacyBudgetError):
            validate_epsilon(None)


class TestPrivacyBudget:
    def test_exp_epsilon(self):
        budget = PrivacyBudget(math.log(3.0))
        assert budget.exp_epsilon == pytest.approx(3.0)

    def test_rr_keep_probability_default_paper_setting(self):
        # The paper's default e^eps = 3 gives a keep probability of 3/4.
        budget = PrivacyBudget.from_exp_epsilon(3.0)
        assert binary_rr_probability(budget.epsilon) == pytest.approx(0.75)

    def test_from_exp_epsilon_roundtrip(self):
        budget = PrivacyBudget.from_exp_epsilon(math.exp(0.7))
        assert budget.epsilon == pytest.approx(0.7)

    def test_from_exp_epsilon_rejects_at_most_one(self):
        with pytest.raises(InvalidPrivacyBudgetError):
            PrivacyBudget.from_exp_epsilon(1.0)

    def test_split_divides_budget(self):
        budget = PrivacyBudget(1.2)
        assert budget.split(4).epsilon == pytest.approx(0.3)

    def test_split_rejects_non_positive_parts(self):
        with pytest.raises(InvalidPrivacyBudgetError):
            PrivacyBudget(1.0).split(0)

    def test_compose_sums_budgets(self):
        parts = [PrivacyBudget(0.25)] * 4
        assert PrivacyBudget.compose(parts).epsilon == pytest.approx(1.0)

    def test_compose_rejects_empty(self):
        with pytest.raises(InvalidPrivacyBudgetError):
            PrivacyBudget.compose([])

    def test_split_then_compose_is_identity(self):
        budget = PrivacyBudget(0.9)
        parts = [budget.split(3)] * 3
        assert PrivacyBudget.compose(parts).epsilon == pytest.approx(0.9)

    def test_invalid_epsilon_raises_at_construction(self):
        with pytest.raises(InvalidPrivacyBudgetError):
            PrivacyBudget(-0.1)

    def test_budget_is_immutable(self):
        budget = PrivacyBudget(1.0)
        with pytest.raises(AttributeError):
            budget.epsilon = 2.0
