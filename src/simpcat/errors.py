"""Shared error types and refusal sentinels.

Argument errors raise; bounded procedures that run out of budget or hit
an undecidable instance return a sentinel instead of guessing.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class FuelExhausted:
    """A fuel-bounded procedure stopped without an answer.

    Carries the reason and whatever partial data the procedure built;
    never a wrong finite answer.
    """

    def __init__(self, reason, partial=None):
        self.reason = reason
        self.partial = partial


class NotDecidable:
    """An exact decision procedure was asked outside its decidable class."""

    def __init__(self, reason):
        self.reason = reason
