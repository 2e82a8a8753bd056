"""Property tests over the legal geometry envelope.

Geometry is drawn as n_part = 2**2..2**6, p = 2..n_part/2 and
n = n_part..n_part**2 (never below 4), which reaches engine shapes and
small lengths the acceptance sweep never visits.  Each example uses either
the smallest NTT-friendly prime or the largest one below 2**62.
"""

from functools import lru_cache

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridntt.dataflow import EngineConfig, run_transform
from hybridntt.modmath import build_context, find_ntt_prime
from hybridntt.reference import forward_values, inverse_values, random_polynomial

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def largest_ntt_prime(n):
    """Largest prime q < 2**62 with q = 1 mod 2n, found with sympy."""
    q = ((1 << 62) - 1) // (2 * n) * (2 * n) + 1
    while not sympy.isprime(q):
        q -= 2 * n
    return q


@lru_cache(maxsize=None)
def context(n, size):
    q = find_ntt_prime(n, 2) if size == "small" else largest_ntt_prime(n)
    return build_context(q, n)


@st.composite
def geometries(draw):
    s_part = draw(st.integers(2, 6))
    s = draw(st.integers(s_part, 2 * s_part))
    p_log = draw(st.integers(1, s_part - 1))
    return 1 << s, 1 << s_part, 1 << p_log


@PROPERTY_SETTINGS
@given(geometries(), st.sampled_from(["small", "large"]), st.integers(0, 2**64 - 1))
def test_engine_matches_forward_values(geometry, size, seed):
    n, n_part, p = geometry
    ctx = context(n, size)
    poly = random_polynomial(ctx, seed)
    got, _ = run_transform(poly, EngineConfig(n, n_part, p), ctx)
    assert got.coeffs == forward_values(poly.coeffs, ctx)


@PROPERTY_SETTINGS
@given(st.integers(2, 12), st.sampled_from(["small", "large"]), st.integers(0, 2**64 - 1))
def test_inverse_undoes_forward(log_n, size, seed):
    ctx = context(1 << log_n, size)
    a = random_polynomial(ctx, seed).coeffs
    assert inverse_values(forward_values(a, ctx), ctx) == a
