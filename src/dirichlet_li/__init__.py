"""Li coefficients of primitive Dirichlet L-functions.

Two independent evaluation routes for lambda_chi(n): the unconditional
arithmetic prime-power formula with its published truncation estimate, and
the conditional (RH) Chebyshev sum over critical-line zeros with the
closed-form tail estimate.  Includes a character-group implementation,
high-precision L / xi evaluation, a vectorized critical-line zero finder,
zero-file I/O, and reproduction of published reference tables.
"""

from .arith import (TruncationParams, choose_M, error_bound_EM,
                    gamma_factor_terms, li_arith, li_arith_sweep,
                    prime_power_kernel_sum)
from .characters import (DirichletCharacter, GaussSumValue, character_by_label,
                         enumerate_characters, gauss_sum,
                         real_primitive_character)
from .errors import DirichletLiError
from .lfunc import (ZeroList, ZeroRecord, find_zeros, find_zeros_merged,
                    find_zeros_upper, hardy_z, height_for_count, l_value,
                    n_formula, read_zeros, write_zeros, xi_value)
from .precision import PrecisionConfig
from .results import LiResult
from .zerosum import (PartialSumParams, asymptotic_model, choose_T0,
                      li_zero_sum, li_zero_sum_sweep, partial_rh_report,
                      tail_bound, zero_sum_prefix, zero_sum_values)

__version__ = "0.1.0"

__all__ = [
    "DirichletCharacter", "GaussSumValue", "LiResult", "PartialSumParams",
    "PrecisionConfig", "TruncationParams", "ZeroList", "ZeroRecord",
    "DirichletLiError", "asymptotic_model", "character_by_label", "choose_M",
    "choose_T0", "enumerate_characters", "error_bound_EM", "find_zeros",
    "find_zeros_merged", "find_zeros_upper", "gamma_factor_terms", "gauss_sum",
    "hardy_z", "height_for_count", "l_value", "li_arith", "li_arith_sweep",
    "li_zero_sum", "li_zero_sum_sweep", "n_formula",
    "partial_rh_report", "prime_power_kernel_sum", "read_zeros",
    "real_primitive_character", "tail_bound", "write_zeros", "xi_value",
    "zero_sum_prefix", "zero_sum_values", "__version__",
]
