"""Shared exception types.

InputError refuses a caller input: malformed text, an argument out of
range, or an input failing the hypothesis of its check.  It subclasses
ValueError, which stays plain only for a broken invariant of coverlab's
own objects or shipped data (a subgroup of another group object, a mask
count mismatch, the catalog's counts and fingerprints): a fault of the
program.  BudgetError refuses a computation over a resource cap (sieve
capacity, scan period, search nodes, group order); its message names
the cap.  The CLI exits 2 on either and 3, with a traceback, on any
other exception.
"""


class InputError(ValueError):
    """A caller input was refused."""


class BudgetError(RuntimeError):
    """A computation was refused or cut short by a resource cap."""
