"""Result container shared by the arithmetic and zero-sum evaluators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

METHODS = ("arith", "zero_sum")


@dataclass(frozen=True)
class LiResult:
    """A computed Li coefficient with its truncation-error estimate.

    `error_bound` is the route's estimate, not a certified bound (see the
    README's "Bound caveats"), and may be +inf when the formula is outside
    its validity regime; `conditional` marks values that presuppose the
    Riemann hypothesis (the zero-sum method).
    """

    n: int
    value: float
    method: str
    error_bound: float
    params: Any
    chi_id: tuple[int, int]
    conditional: bool = False
    complex_character: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")

    @property
    def positive(self) -> bool:
        return self.value >= 0
