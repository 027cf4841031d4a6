"""Working-precision configuration for all big-float evaluation.

Every high-precision operation takes a :class:`PrecisionConfig`, the binary
working precision to which it adds guard bits: `DEFAULT_PRECISION` (96 bits),
or for `prime_power_kernel_sum` the `arith_precision` of its n, q and M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

# Guard bits added on top of working_bits inside kernels so that the final
# rounded result meets the 2^(-working_bits + GUARD_BITS) remainder contract.
GUARD_BITS = 10


@dataclass(frozen=True)
class PrecisionConfig:
    working_bits: int = 96

    def __post_init__(self):
        if self.working_bits < 64:
            raise ValueError(f"working_bits must be >= 64, got {self.working_bits}")

    def workprec(self, extra: int = GUARD_BITS):
        """Context manager setting mpmath precision to working_bits + extra."""
        return mpmath.workprec(self.working_bits + extra)


# Frozen, so one instance is every big-float routine's default argument.
DEFAULT_PRECISION = PrecisionConfig()


def arith_precision(n: int, q: int, M: int) -> PrecisionConfig:
    """Precision for the big-float kernel-sum reference
    `prime_power_kernel_sum`: 64 + 2n + log2(qM) bits, enough for the
    Laguerre values, which grow with n, and the sum over k <= M.
    """
    return PrecisionConfig(working_bits=64 + 2 * n + math.ceil(math.log2(max(2, q * M))))
