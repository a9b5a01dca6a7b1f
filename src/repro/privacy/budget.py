"""Privacy budget handling.

Under pure local differential privacy a single parameter ``epsilon`` governs
how much any single report may reveal about the user's true value: for every
pair of inputs ``z``, ``z'`` and every output ``O`` of the randomizer ``F``,

    Pr[F(z) = O] <= exp(epsilon) * Pr[F(z') = O].

The paper evaluates ``epsilon`` in ``[0.2, 1.4]`` with a default of
``epsilon = ln(3) ~= 1.1`` ("e^eps = 3").  This module provides a small value
object, :class:`PrivacyBudget`, which validates the parameter once and
exposes the derived quantities (``exp(eps)``) that the oracles need, plus a
``split``/``compose`` API used by the budget-splitting ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import InvalidPrivacyBudgetError

__all__ = ["PrivacyBudget", "exp_epsilon", "validate_epsilon"]


def validate_epsilon(epsilon: float) -> float:
    """Validate an ``epsilon`` value and return it as a ``float``.

    Parameters
    ----------
    epsilon:
        The privacy parameter.  Must be a strictly positive finite real
        number.  Values above ``50`` are rejected as almost certainly a bug
        (``exp(50)`` overflows the useful range of the estimators and no
        deployment uses such weak privacy).

    Raises
    ------
    InvalidPrivacyBudgetError
        If the value is not a positive finite number within ``(0, 50]``.
    """
    try:
        value = float(epsilon)
    except (TypeError, ValueError) as exc:
        raise InvalidPrivacyBudgetError(
            f"epsilon must be a real number, got {epsilon!r}"
        ) from exc
    if math.isnan(value) or math.isinf(value):
        raise InvalidPrivacyBudgetError(f"epsilon must be finite, got {value!r}")
    if value <= 0.0:
        raise InvalidPrivacyBudgetError(f"epsilon must be positive, got {value!r}")
    if value > 50.0:
        raise InvalidPrivacyBudgetError(
            f"epsilon={value!r} is implausibly large (no privacy); refusing"
        )
    return value


def exp_epsilon(epsilon: float) -> float:
    """Validate ``epsilon`` and return ``exp(epsilon)``.

    The likelihood-ratio bound of the LDP guarantee.  All probability
    arithmetic on ``epsilon`` is confined to :mod:`repro.privacy`
    (lint rule LDP-R002); modules that need ``e^eps`` — variance bounds,
    oracle perturbation probabilities — call this helper (or
    :attr:`PrivacyBudget.exp_epsilon`) instead of ``math.exp`` so that
    every epsilon crossing into arithmetic has been validated exactly once.
    """
    return math.exp(validate_epsilon(epsilon))


@dataclass(frozen=True)
class PrivacyBudget:
    """An immutable ``epsilon``-LDP privacy budget.

    Attributes
    ----------
    epsilon:
        The privacy parameter, validated at construction time.
    """

    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", validate_epsilon(self.epsilon))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def exp_epsilon(self) -> float:
        """``exp(epsilon)``, the likelihood-ratio bound of the guarantee."""
        return math.exp(self.epsilon)

    # ------------------------------------------------------------------
    # Composition helpers (used by the budget-splitting ablation)
    # ------------------------------------------------------------------
    def split(self, parts: int) -> "PrivacyBudget":
        """Return the budget each of ``parts`` sequential mechanisms may use
        so that their (sequential) composition still satisfies ``epsilon``.

        The paper contrasts *sampling* a tree level (each user spends the
        whole budget on one level) with *splitting* the budget across all
        ``h`` levels; splitting inflates the error from ``O(h)`` to
        ``O(h^2)`` and is implemented only for the ablation benchmark.
        """
        if not isinstance(parts, int) or parts < 1:
            raise InvalidPrivacyBudgetError(
                f"number of parts must be a positive integer, got {parts!r}"
            )
        return PrivacyBudget(self.epsilon / parts)

    @staticmethod
    def compose(budgets: "list[PrivacyBudget]") -> "PrivacyBudget":
        """Sequential composition: the total budget is the sum of parts."""
        if not budgets:
            raise InvalidPrivacyBudgetError("cannot compose an empty list of budgets")
        return PrivacyBudget(sum(b.epsilon for b in budgets))

    @classmethod
    def from_exp_epsilon(cls, exp_epsilon: float) -> "PrivacyBudget":
        """Construct from ``e^eps`` (the paper often quotes ``e^eps = 3``)."""
        if exp_epsilon <= 1.0:
            raise InvalidPrivacyBudgetError(
                f"exp(epsilon) must exceed 1, got {exp_epsilon!r}"
            )
        return cls(math.log(exp_epsilon))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrivacyBudget(epsilon={self.epsilon:.4g})"
