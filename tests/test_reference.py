import struct

import pytest

from hybridntt.modmath import NotNttFriendly, build_context, find_ntt_prime, find_primitive_2n_root
from hybridntt.reference import (
    ContextMismatch,
    Polynomial,
    naive_negacyclic_mul,
    pointwise_mul,
    random_polynomial,
    read_polynomial,
    reference_forward_ntt,
    reference_inverse_ntt,
    splitmix64,
    write_polynomial,
)


@pytest.fixture(scope="module")
def ctx17():
    return build_context(17, 4)


def brute_negacyclic(a, b, n, q):
    """Test-local schoolbook oracle, written independently of the module."""
    c = [0] * n
    for i in range(n):
        for j in range(n):
            k = (i + j) % n
            term = a[i] * b[j]
            if i + j >= n:
                term = -term
            c[k] = (c[k] + term) % q
    return c


def test_naive_identity(ctx17):
    one = Polynomial([1, 0, 0, 0], ctx17)
    b = Polynomial([3, 5, 7, 11], ctx17)
    assert naive_negacyclic_mul(one, b) == b


def test_naive_hand_examples(ctx17):
    x = Polynomial([0, 1, 0, 0], ctx17)
    assert naive_negacyclic_mul(x, x).coeffs == [0, 0, 1, 0]
    x2 = Polynomial([0, 0, 1, 0], ctx17)
    assert naive_negacyclic_mul(x2, x2).coeffs == [16, 0, 0, 0]


def test_naive_matches_test_oracle_small_q():
    ctx = build_context(97, 16)
    stream = splitmix64(5)
    for _ in range(20):
        a = [next(stream) % 97 for _ in range(16)]
        b = [next(stream) % 97 for _ in range(16)]
        got = naive_negacyclic_mul(Polynomial(a, ctx), Polynomial(b, ctx))
        assert got.coeffs == brute_negacyclic(a, b, 16, 97)


def test_naive_matches_test_oracle_large_q(ctx_cache):
    # forces the big-int code path (n * (q-1)**2 overflows int64)
    q = ctx_cache.prime(16, 1 << 59)
    ctx = ctx_cache.get(16, q=q)
    stream = splitmix64(6)
    for _ in range(5):
        a = [next(stream) % q for _ in range(16)]
        b = [next(stream) % q for _ in range(16)]
        got = naive_negacyclic_mul(Polynomial(a, ctx), Polynomial(b, ctx))
        assert got.coeffs == brute_negacyclic(a, b, 16, q)


def test_context_mismatch(ctx17):
    other = build_context(97, 4)
    with pytest.raises(ContextMismatch):
        naive_negacyclic_mul(Polynomial([0] * 4, ctx17), Polynomial([0] * 4, other))
    with pytest.raises(ContextMismatch):
        pointwise_mul(Polynomial([0] * 4, ctx17), Polynomial([0] * 4, other))


def test_polynomial_validation(ctx17):
    with pytest.raises(ValueError):
        Polynomial([0, 1, 2], ctx17)
    with pytest.raises(ValueError):
        Polynomial([0, 1, 2, 17], ctx17)


def test_forward_hand_vector(ctx17):
    x = Polynomial([0, 1, 0, 0], ctx17)
    assert reference_forward_ntt(x).coeffs == [9, 8, 15, 2]


def test_forward_zero_and_impulse(ctx_cache):
    for n in (4, 16, 64):
        ctx = ctx_cache.get(n)
        zero = Polynomial([0] * n, ctx)
        assert reference_forward_ntt(zero).coeffs == [0] * n
        impulse = Polynomial([1] + [0] * (n - 1), ctx)
        assert reference_forward_ntt(impulse).coeffs == [1] * n
        ones = Polynomial([1] * n, ctx)
        assert reference_inverse_ntt(ones).coeffs == [1] + [0] * (n - 1)


def test_roundtrip(ctx_cache):
    for n in (4, 16, 256, 1024):
        ctx = ctx_cache.get(n)
        for seed in range(5):
            a = random_polynomial(ctx, seed)
            assert reference_inverse_ntt(reference_forward_ntt(a)) == a


def test_convolution_theorem_small(ctx_cache):
    for n in (4, 8, 16, 64, 256):
        ctx = ctx_cache.get(n)
        for seed in range(5):
            a = random_polynomial(ctx, 2 * seed)
            b = random_polynomial(ctx, 2 * seed + 1)
            via_ntt = reference_inverse_ntt(
                pointwise_mul(reference_forward_ntt(a), reference_forward_ntt(b))
            )
            assert via_ntt == naive_negacyclic_mul(a, b)


def test_linearity(ctx_cache):
    ctx = ctx_cache.get(64)
    q = ctx.q
    stream = splitmix64(11)
    for _ in range(5):
        a = random_polynomial(ctx, next(stream))
        b = random_polynomial(ctx, next(stream))
        alpha = next(stream) % q
        beta = next(stream) % q
        combo = Polynomial(
            [(alpha * x + beta * y) % q for x, y in zip(a.coeffs, b.coeffs)], ctx
        )
        fa = reference_forward_ntt(a).coeffs
        fb = reference_forward_ntt(b).coeffs
        expected = [(alpha * x + beta * y) % q for x, y in zip(fa, fb)]
        assert reference_forward_ntt(combo).coeffs == expected


def test_pointwise_examples(ctx_cache):
    ctx = ctx_cache.get(16)
    q = ctx.q
    a = random_polynomial(ctx, 3)
    ones = Polynomial([1] * 16, ctx)
    zeros = Polynomial([0] * 16, ctx)
    assert pointwise_mul(a, ones) == a
    assert pointwise_mul(a, zeros) == zeros
    b = random_polynomial(ctx, 4)
    got = pointwise_mul(a, b)
    assert got.coeffs == [x * y % q for x, y in zip(a.coeffs, b.coeffs)]


def test_splitmix64_reference_vector():
    stream = splitmix64(0)
    assert next(stream) == 0xE220A8397B1DCDAF
    # determinism
    s1 = splitmix64(42)
    s2 = splitmix64(42)
    assert [next(s1) for _ in range(10)] == [next(s2) for _ in range(10)]


def test_hply_roundtrip(tmp_path, ctx_cache):
    ctx = ctx_cache.get(16)
    a = random_polynomial(ctx, 9)
    path = tmp_path / "a.hply"
    write_polynomial(str(path), a)
    back = read_polynomial(str(path))
    assert back == a
    reused = read_polynomial(str(path), ctx)
    assert reused == a


def test_hply_errors(tmp_path, ctx_cache):
    ctx = ctx_cache.get(16)
    a = random_polynomial(ctx, 9)
    path = tmp_path / "a.hply"
    write_polynomial(str(path), a)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad.hply"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError):
        read_polynomial(str(bad_magic))
    truncated = tmp_path / "short.hply"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        read_polynomial(str(truncated))
    other = build_context(193, 16)  # same n, different modulus
    with pytest.raises(ContextMismatch):
        read_polynomial(str(path), other)


def _hply_bytes(tmp_path, ctx_cache):
    path = tmp_path / "a.hply"
    write_polynomial(str(path), random_polynomial(ctx_cache.get(16), 9))
    return path.read_bytes()


def test_hply_short_header_is_value_error(tmp_path, ctx_cache):
    raw = _hply_bytes(tmp_path, ctx_cache)
    short = tmp_path / "short-header.hply"
    short.write_bytes(raw[:23])
    with pytest.raises(ValueError, match="header"):
        read_polynomial(str(short))


def test_hply_huge_declared_n_rejected_before_reading(tmp_path, ctx_cache):
    raw = _hply_bytes(tmp_path, ctx_cache)
    huge = tmp_path / "huge.hply"
    huge.write_bytes(raw[:8] + struct.pack("<Q", 1 << 40) + raw[16:])
    with pytest.raises(ValueError, match="truncated HPLY body"):
        read_polynomial(str(huge))


def test_hply_trailing_bytes_rejected(tmp_path, ctx_cache):
    raw = _hply_bytes(tmp_path, ctx_cache)
    trailing = tmp_path / "trailing.hply"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        read_polynomial(str(trailing))


def test_primitive_root_check_is_an_exception():
    # 9 = 1 mod 8 but is not prime: g**((q-1)/2n) is no primitive 8th root
    with pytest.raises(NotNttFriendly):
        find_primitive_2n_root(9, 4)
