"""Shared fixtures: session-scoped zero lists, cached on disk under
tests/.cache/finder-<FINDER_VERSION> so the expensive scans run once per
checkout and a list is reused only by the finder version that made it (the
directories of other versions go whenever this version writes a list); and
the big-float oracle of the arithmetic route's Gamma-factor terms."""

from __future__ import annotations

import math
import shutil
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest

from dirichlet_li.characters import character_by_label, real_primitive_character
from dirichlet_li.fastzeros import FINDER_VERSION
from dirichlet_li.lfunc import (find_zeros, find_zeros_upper, height_for_count,
                                read_zeros, write_zeros)

CACHE_DIR = Path(__file__).parent / ".cache" / f"finder-{FINDER_VERSION}"


@lru_cache(maxsize=None)
def binomial_term_oracle(n, q, a):
    """n c + tau_chi(n), c = (log(q/pi) - gamma)/2, from the paper's alternating
    binomial sum of zeta(j), at 2n + 100 bits to absorb its ~2n bits of
    cancellation."""
    with mpmath.workprec(2 * n + 100):
        half = mpmath.mpf(1) / 2
        tau = mpmath.fsum(math.comb(n, j) * (-1) ** j * (half ** j if a else 1 - half ** j)
                          * mpmath.zeta(j) for j in range(2, n + 1))
        if a == 0:
            tau -= n * mpmath.log(2)  # (n/2) * 2 log 2
        return float(n * (mpmath.log(mpmath.mpf(q) / mpmath.pi) - mpmath.euler) / 2 + tau)


def _cached_zero_list(chi, count: int):
    path = CACHE_DIR / f"zeros_{chi.modulus}_{chi.label}.txt"
    if path.exists():
        zl = read_zeros(path, chi_id=(chi.modulus, chi.label))
        if len(zl) >= count:
            return zl
    # pad the target height a little so the list certainly holds `count`
    T = height_for_count(chi.modulus, count + 30)
    zl = find_zeros(chi, T) if chi.is_real else find_zeros_upper(chi, T)
    assert len(zl) >= count, (len(zl), count)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    for stale in CACHE_DIR.parent.glob("finder-*"):  # lists of other finder versions
        if stale != CACHE_DIR:
            shutil.rmtree(stale, ignore_errors=True)
    write_zeros(path, zl)
    # the 12-digit ordinates of the file, as a warm session reads them
    return read_zeros(path, chi_id=(chi.modulus, chi.label))


@pytest.fixture(scope="session")
def zeros_q3():
    """>= 10^4 ordinates of the quadratic character mod 3."""
    return _cached_zero_list(real_primitive_character(3), 10 ** 4)


@pytest.fixture(scope="session")
def zeros_q5_quad():
    """>= 10^4 ordinates of the quadratic character mod 5."""
    return _cached_zero_list(real_primitive_character(5), 10 ** 4)


@pytest.fixture(scope="session")
def zeros_q5_complex():
    """>= 10^4 upper-half-plane ordinates of the order-4 character 5.1."""
    return _cached_zero_list(character_by_label(5, 1), 10 ** 4)


@pytest.fixture(scope="session")
def zeros_q20():
    """>= 10^4 ordinates of the quadratic character of conductor 20."""
    return _cached_zero_list(character_by_label(20, 6), 10 ** 4)


@pytest.fixture(scope="session")
def zeros_q60():
    """>= 10^4 ordinates of the quadratic character of conductor 60."""
    return _cached_zero_list(character_by_label(60, 14), 10 ** 4)
