"""Shared exception types.

Budget errors signal that a requested computation exceeds a configured
resource cap (sieve capacity, scan period, search nodes, group order).
The CLI maps them to exit status 2.
"""


class BudgetError(RuntimeError):
    """A computation was refused or cut short by a resource cap."""


class SieveCapacityError(BudgetError):
    """Requested primes beyond the configured sieve capacity."""


class PeriodBudgetError(BudgetError):
    """A residue scan period exceeds the configured budget."""


class SearchBudgetError(BudgetError):
    """A backtracking search exceeded its node budget."""
