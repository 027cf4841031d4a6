"""The big-float layer's one default precision and its root-of-unity cache."""

import mpmath
import pytest

from dirichlet_li import characters
from dirichlet_li.characters import character_by_label, gauss_sum
from dirichlet_li.lfunc import hardy_z, l_value, xi_value
from dirichlet_li.precision import PrecisionConfig
from dirichlet_li.specfun import (chebyshev_T, hurwitz_zeta, hurwitz_zeta_minus_pole,
                                  lambert_w_m1, laguerre_L1, log_gamma)


@pytest.mark.parametrize("q, label", [(5, 1), (7, 1), (60, 14)])
def test_value_cache_is_keyed_by_precision(q, label):
    # the default-precision roots are cached first, so a cache that ignored
    # the precision would hand back their 106-bit values at 200 bits
    chi = character_by_label(q, label)
    prec = PrecisionConfig(200)
    for k in range(q):
        e = chi.exponents[k]
        if e is None:
            continue
        chi.value(k)
        with mpmath.workprec(250):
            exact = mpmath.expjpi(mpmath.mpf(2 * e) / chi.order)
            assert abs(chi.value(k, prec) - exact) <= mpmath.mpf(2) ** -195, (q, label, k)


ROUTINES = {
    "value": lambda **p: character_by_label(5, 1).value(2, **p),
    "gauss_sum": lambda **p: gauss_sum(character_by_label(5, 1), **p),
    "l_value": lambda **p: l_value(mpmath.mpc(0.5, 3), character_by_label(5, 1), **p),
    "xi_value": lambda **p: xi_value(mpmath.mpc(0.5, 3), character_by_label(5, 1), **p),
    "hardy_z": lambda **p: hardy_z(5, character_by_label(5, 2), **p),
    "hurwitz_zeta": lambda **p: hurwitz_zeta(mpmath.mpc(2, 1), 0.3, **p),
    "hurwitz_zeta_minus_pole": lambda **p: hurwitz_zeta_minus_pole(0.3, **p),
    "lambert_w_m1": lambda **p: lambert_w_m1(-0.2, **p),
    "chebyshev_T": lambda **p: chebyshev_T(5, 0.3, **p),
    "laguerre_L1": lambda **p: laguerre_L1(4, 1.5, **p),
    "log_gamma": lambda **p: log_gamma(mpmath.mpc(2, 3), **p),
}


@pytest.mark.parametrize("name", ROUTINES)
def test_default_precision_is_precision_config(name):
    routine = ROUTINES[name]
    by_default = routine()
    characters._root_of_unity.cache_clear()
    assert routine(prec=PrecisionConfig()) == by_default
