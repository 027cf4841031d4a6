"""Working-precision configuration for all big-float evaluation.

Every high-precision operation takes a :class:`PrecisionConfig`: the binary
working precision, to which the evaluating routine adds its guard bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

# Guard bits added on top of working_bits inside kernels so that the final
# rounded result meets the 2^(-working_bits + GUARD_BITS) remainder contract.
GUARD_BITS = 10

# Default working precision of PrecisionConfig (L / xi, chi.value, Gauss sums).
DEFAULT_BITS = 96


@dataclass(frozen=True)
class PrecisionConfig:
    working_bits: int = DEFAULT_BITS

    def __post_init__(self):
        if self.working_bits < 64:
            raise ValueError(f"working_bits must be >= 64, got {self.working_bits}")

    def workprec(self, extra: int = GUARD_BITS):
        """Context manager setting mpmath precision to working_bits + extra."""
        return mpmath.workprec(self.working_bits + extra)


def arith_precision(n: int, q: int, M: int) -> PrecisionConfig:
    """Precision for the big-float kernel-sum reference
    `prime_power_kernel_sum`: 64 + 2n + log2(qM) bits, enough for the
    Laguerre values, which grow with n, and the sum over k <= M.
    """
    return PrecisionConfig(working_bits=64 + 2 * n + math.ceil(math.log2(max(2, q * M))))
