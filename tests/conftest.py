from functools import lru_cache

import pytest
import sympy

from hybridntt.modmath import build_context, find_ntt_prime


def sweep_configs():
    """Every legal (n, n_part, p) in the audit sweep."""
    out = []
    for k in range(8, 17):
        n = 2**k
        for n_part in (64, 256):
            for p in (2, 4, 8, 16):
                if 2 * p <= n_part <= n <= n_part * n_part:
                    out.append((n, n_part, p))
    return out


@lru_cache(maxsize=None)
def largest_ntt_prime(n):
    """Largest prime q < 2**62 with q = 1 mod 2n, found with sympy."""
    q = ((1 << 62) - 1) // (2 * n) * (2 * n) + 1
    while not sympy.isprime(q):
        q -= 2 * n
    return q


class ContextCache:
    """Memoize prime discovery and table construction across tests."""

    def __init__(self):
        self._ctx = {}
        self._primes = {}

    def prime(self, n, floor=3):
        key = (n, floor)
        if key not in self._primes:
            self._primes[key] = find_ntt_prime(n, floor)
        return self._primes[key]

    def get(self, n, floor=3, q=None):
        if q is None:
            q = self.prime(n, floor)
        key = (n, q)
        if key not in self._ctx:
            self._ctx[key] = build_context(q, n)
        return self._ctx[key]


@pytest.fixture(scope="session")
def ctx_cache():
    return ContextCache()
