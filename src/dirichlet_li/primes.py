"""Prime sieve, prime powers with von Mangoldt weights, primality testing.

Prime powers come from an odd-only, wheel-presieved segmented sieve that
flags the odd powers p^m, m >= 2, in place and inserts the powers of 2.  It
takes its base primes from its own run to sqrt(limit)."""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator

import numpy as np

# the first 13 primes: deterministic below 3,317,044,064,679,887,385,961,981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3,317,044,064,679,887,385,961,981."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Integers per block of the segmented sieve.  A block holds one bool per odd
# integer in it plus the base primes up to sqrt(limit), whatever the limit.
SEGMENT = 1 << 21

# The wheel pre-sieve: _WHEEL[i] says whether the odd number 2i + 1 is prime
# to 3, 5, 7, 11 and 13; the pattern repeats every 15,015 odd numbers.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = np.gcd(2 * np.arange(15015) + 1, 15015) == 1


def prime_power_segments(limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Segmented sieve of Eratosthenes (Bays-Hudson): all prime powers
    k = p^m <= limit with Lambda(k) = log p, as (k, log_p) int64/float64
    arrays in ascending blocks of SEGMENT integers.

    A block flags its odd numbers only.  It starts as a slice, at its
    phase, of the wheel pattern tiled once per call, clear of the multiples
    of 3, 5, 7, 11 and 13 (Pritchard), and then loses the odd multiples of
    the other base primes up to sqrt(limit), which this sieve lists first.
    The odd powers p^m, m >= 2, listed once per call, are flagged again
    after the strikes, so they come out in order and only their log k is
    replaced by log p; the powers of 2 are inserted into the blocks that
    hold one.
    """
    if limit < 2:
        return
    # the primes are the k <= sqrt(limit) of weight log k itself: a proper
    # power p^m has log k - log p >= log 2
    ks, logs = prime_powers(math.isqrt(limit))
    base = ks[np.log(ks) - logs < 0.5]
    pk, pbase = [2], [2]
    for p in base.tolist():
        v = p * p
        while v <= limit:
            pk.append(v)
            pbase.append(p)
            v *= p
    order = np.argsort(pk)
    pk = np.array(pk, dtype=np.int64)[order]
    plog = np.log(np.array(pbase, dtype=np.float64))[order]
    two = pk % 2 == 0  # the powers of 2, inserted; the odd powers are flagged
    tk, tlog, pk, plog = pk[two], plog[two], pk[~two], plog[~two]
    tk_list, pk_list = tk.tolist(), pk.tolist()
    beyond = base[base > 13]  # the base primes beyond the wheel
    squares = beyond * beyond
    square_list = squares.tolist()
    # the wheel tiled once, long enough that every block is one slice of it
    tiled = np.resize(_WHEEL, _WHEEL.size + (min(SEGMENT, limit) + 1) // 2)
    a = t = 0  # the first odd power and the first power of 2 not yet placed
    for lo in range(2, limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)  # this block is [lo, hi)
        first = lo | 1  # flags[i] is the odd number first + 2i
        phase = first // 2 % _WHEEL.size
        flags = tiled[phase:phase + (hi - first + 1) // 2].copy()
        if lo <= 13:  # the wheel primes themselves
            flags[[(w - first) // 2 for w in _WHEEL_PRIMES if lo <= w < hi]] = True
        p = beyond[:bisect_left(square_list, hi)]
        # the index of the first odd multiple of p that is at least p^2: the
        # odd number first + 2i is one when 2i = -(first + p) mod p
        start = np.maximum((squares[:p.size] - first) >> 1, -((first + p) >> 1) % p)
        hit = start < flags.size
        for s, step in zip(start[hit].tolist(), p[hit].tolist()):
            flags[s:: step] = False
        b = bisect_left(pk_list, hi, a)
        if b > a:
            flags[(pk[a:b] - first) // 2] = True
        ks = flags.nonzero()[0].astype(np.int64, copy=False)
        ks *= 2
        ks += first
        logs = np.log(ks)
        if b > a:
            logs[np.searchsorted(ks, pk[a:b])] = plog[a:b]
            a = b
        u = bisect_left(tk_list, hi, t)
        if u > t:
            at = np.searchsorted(ks, tk[t:u])
            ks = np.insert(ks, at, tk[t:u])
            logs = np.insert(logs, at, tlog[t:u])
            t = u
        yield ks, logs


def prime_powers(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """All prime powers k = p^m <= limit with weights Lambda(k) = log p.

    Returns (k, log_p) sorted ascending in k: the blocks of
    `prime_power_segments` joined.
    """
    blocks = list(prime_power_segments(limit))
    if not blocks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return (np.concatenate([k for k, _ in blocks]),
            np.concatenate([lp for _, lp in blocks]))
