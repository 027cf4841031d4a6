"""Input checks across the package: each public entry point refuses an
argument outside its domain with the documented exception."""

import pytest

from dirichlet_li.arith import kernel_sums, prime_power_kernel_sum
from dirichlet_li.characters import (character_by_label, enumerate_characters,
                                     real_primitive_character)
from dirichlet_li.errors import NotPrimitive, OutOfDomain, PrincipalCharacter
from dirichlet_li.fastzeros import FastLEvaluator
from dirichlet_li.lfunc import find_zeros_upper, xi_value
from dirichlet_li.precision import PrecisionConfig
from dirichlet_li.results import METHODS, LiResult
from dirichlet_li.specfun import (bernoulli, chebyshev_T, hurwitz_zeta_minus_pole,
                                  laguerre_L1)
from dirichlet_li.zerosum import PartialSumParams, asymptotic_model, choose_T0


def chi3():
    return real_primitive_character(3)


def principal():
    return character_by_label(5, 0)


def imprimitive():
    return next(c for c in enumerate_characters(9)
                if not c.is_principal and not c.is_primitive)


def result(**kw):
    return LiResult(**{"n": 1, "value": 0.1, "method": "arith", "error_bound": 0.0,
                       "params": None, "chi_id": (3, 1)} | kw)


@pytest.mark.parametrize("call, exc", [
    pytest.param(lambda: prime_power_kernel_sum(0, chi3(), 10), ValueError,
                 id="prime_power_kernel_sum-n0"),
    pytest.param(lambda: kernel_sums([1, 2], chi3(), [10]), ValueError,
                 id="kernel_sums-one-M-for-two-n"),
    pytest.param(lambda: kernel_sums([0], chi3(), [10]), ValueError, id="kernel_sums-n0"),
    pytest.param(lambda: FastLEvaluator(principal()), PrincipalCharacter,
                 id="FastLEvaluator-principal"),
    pytest.param(lambda: xi_value(0.5, principal()), PrincipalCharacter,
                 id="xi_value-principal"),
    pytest.param(lambda: xi_value(0.5, imprimitive()), NotPrimitive,
                 id="xi_value-imprimitive"),
    pytest.param(lambda: find_zeros_upper(chi3(), 0.5), ValueError,
                 id="find_zeros_upper-below-1"),
    pytest.param(lambda: PrecisionConfig(63), ValueError, id="PrecisionConfig-63"),
    pytest.param(lambda: result(method="bogus"), ValueError, id="LiResult-method"),
    pytest.param(lambda: result(error_bound=-1.0), ValueError, id="LiResult-negative-bound"),
    pytest.param(lambda: bernoulli(-1), ValueError, id="bernoulli-minus1"),
    pytest.param(lambda: chebyshev_T(-1, 0.5), ValueError, id="chebyshev_T-minus1"),
    pytest.param(lambda: laguerre_L1(-1, 1.0), ValueError, id="laguerre_L1-minus1"),
    pytest.param(lambda: hurwitz_zeta_minus_pole(0), OutOfDomain,
                 id="hurwitz_zeta_minus_pole-0"),
    pytest.param(lambda: PartialSumParams(N=0, T=1), ValueError, id="PartialSumParams-N0"),
    pytest.param(lambda: PartialSumParams(N=1, T=0), ValueError, id="PartialSumParams-T0"),
    pytest.param(lambda: choose_T0(0, 1), ValueError, id="choose_T0-n0"),
    pytest.param(lambda: asymptotic_model(0, 3), ValueError, id="asymptotic_model-n0"),
    pytest.param(lambda: character_by_label(5, 1).real_value(2), ValueError,
                 id="real_value-complex"),
])
def test_input_check_raises(call, exc):
    with pytest.raises(exc):
        call()


def test_li_result_has_two_methods():
    # the integral form is not a separate method: it equals the zero sum
    assert METHODS == ("arith", "zero_sum")
    with pytest.raises(ValueError, match="unknown method 'integral'"):
        result(method="integral")
