"""Segmented sieve of prime powers against a brute-force list."""

import math
from functools import lru_cache

import numpy as np
import pytest

from dirichlet_li import primes
from dirichlet_li.primes import prime_power_segments, prime_powers


@lru_cache(maxsize=None)
def brute_prime_powers(limit):
    """(k, log p) for every prime power k = p^m <= limit, by trial division."""
    ks, logs = [], []
    for k in range(2, limit + 1):
        p = next(d for d in range(2, k + 1) if k % d == 0)
        m = k
        while m % p == 0:
            m //= p
        if m == 1:
            ks.append(k)
            logs.append(math.log(p))
    return np.array(ks, dtype=np.int64), np.array(logs)


LIMITS = (2, 3, 4, 8, 9, 10 ** 3, 10 ** 4 + 7)


@pytest.mark.parametrize("segment", [7, 64, primes.SEGMENT])
@pytest.mark.parametrize("limit", LIMITS)
def test_segments_concatenate_to_brute_force(monkeypatch, segment, limit):
    # tiny blocks put prime squares and higher powers across block edges
    monkeypatch.setattr(primes, "SEGMENT", segment)
    blocks = list(prime_power_segments(limit))
    ks = np.concatenate([k for k, _ in blocks])
    logs = np.concatenate([lp for _, lp in blocks])
    ref_k, ref_log = brute_prime_powers(limit)
    assert np.array_equal(ks, ref_k)
    assert np.allclose(logs, ref_log, rtol=1e-15, atol=0)
    # strictly ascending within each block and from one block to the next
    assert np.all(np.diff(ks) > 0)
    for (a, _), (b, _) in zip(blocks, blocks[1:]):
        if a.size and b.size:
            assert a[-1] < b[0]
    k2, lp2 = prime_powers(limit)
    assert np.array_equal(k2, ks) and np.array_equal(lp2, logs)


def test_no_prime_powers_below_two():
    assert list(prime_power_segments(1)) == []
    ks, logs = prime_powers(1)
    assert ks.size == 0 and logs.size == 0
