"""Shared exception types and the environment-tunable size guard."""

from __future__ import annotations

import os


class DimensionMismatchError(ValueError):
    """Inputs of different dimensions were combined."""


class ParseError(ValueError):
    """An input file does not match its declared format."""


class SizeGuardError(RuntimeError):
    """A brute-force operation would exceed its cost budget."""


SIZE_GUARD_ENV = "SC_SIZE_GUARD"
DEFAULT_BUDGET = 20_000_000


def check_size_guard(estimated_cost: int, budget: int | None = None) -> None:
    """Raise SizeGuardError when ``estimated_cost`` exceeds the budget.

    The budget is ``budget``, or DEFAULT_BUDGET when that is None. A positive
    integer in the SC_SIZE_GUARD environment variable overrides every guard;
    an empty value counts as unset, and any other value raises ValueError.
    """
    raw = os.environ.get(SIZE_GUARD_ENV)
    if raw:
        try:
            budget = int(raw)
        except ValueError:
            budget = 0  # refused below, as a non-positive value is
        if budget < 1:
            raise ValueError(
                f"{SIZE_GUARD_ENV} must be a positive integer, got {raw!r}"
            )
    elif budget is None:
        budget = DEFAULT_BUDGET
    if estimated_cost > budget:
        raise SizeGuardError(
            f"estimated cost {estimated_cost} exceeds budget {budget}; "
            f"set {SIZE_GUARD_ENV} to raise the limit"
        )
