"""Property tests over the legal geometry envelope.

Geometry is drawn as n_part = 2**2..2**6, p = 2..n_part/2 and
n = n_part..n_part**2 (never below 4), which reaches engine shapes and
small lengths the acceptance sweep never visits.  Each example uses either
the smallest NTT-friendly prime or the largest one below 2**62.  The HPLY
reader is fuzzed with arbitrary bytes.
"""

import os
import struct
import tempfile
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from hybridntt.dataflow import EngineConfig, run_transform
from hybridntt.modmath import build_context, find_ntt_prime
from hybridntt.reference import (
    HPLY_MAGIC,
    Polynomial,
    forward_values,
    inverse_values,
    random_polynomial,
    read_polynomial,
)

from conftest import largest_ntt_prime

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


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
    config = EngineConfig(n, n_part, p)
    got, _ = run_transform(poly, config, ctx)
    assert got.coeffs == forward_values(poly.coeffs, ctx)
    # tracing only records around the stages; it must not change a value
    traced, _ = run_transform(poly, config, ctx, trace=True)
    assert traced.coeffs == got.coeffs


@PROPERTY_SETTINGS
@given(st.integers(2, 12), st.sampled_from(["small", "large"]), st.integers(0, 2**64 - 1))
def test_inverse_undoes_forward(log_n, size, seed):
    ctx = context(1 << log_n, size)
    a = random_polynomial(ctx, seed).coeffs
    assert inverse_values(forward_values(a, ctx), ctx) == a


@st.composite
def hply_bytes(draw):
    """A valid HPLY file of small words (some not canonical), then spliced.

    A few bytes at a drawn position are dropped and replaced by arbitrary
    ones, which damages the header, truncates the body or appends to it.
    """
    n = draw(st.sampled_from([4, 8, 16]))
    q = draw(st.sampled_from([17, 97, 7681]))
    words = draw(st.lists(st.integers(0, 2 * q), min_size=n, max_size=n))
    data = struct.pack(f"<4sIQQ{n}Q", HPLY_MAGIC, 1, n, q, *words)
    cut = draw(st.integers(0, len(data)))
    drop = draw(st.integers(0, 8))
    return data[:cut] + draw(st.binary(max_size=8)) + data[cut + drop :]


@PROPERTY_SETTINGS
@given(st.one_of(st.binary(max_size=64), hply_bytes()))
def test_read_polynomial_fuzz(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.hply")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            poly = read_polynomial(path)
        except ValueError:
            return
    assert isinstance(poly, Polynomial)
