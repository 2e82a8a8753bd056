import csv

import pytest
import sympy

from hybridntt.modmath import (
    ModulusContext,
    NoPrimeFound,
    NotNttFriendly,
    PrimeModulus,
    add_mod,
    bit_reverse,
    build_context,
    factorize,
    find_ntt_prime,
    find_primitive_2n_root,
    is_prime,
    mul_mod_shoup,
    precompute_shoup,
    sub_mod,
    write_twiddle_csv,
)
from hybridntt.reference import splitmix64


def test_add_sub_examples():
    assert add_mod(0, 0, 17) == 0
    assert sub_mod(3, 5, 17) == 15
    q = (1 << 61) - 1
    assert add_mod(q - 1, 1, q) == 0


def test_precompute_shoup_examples():
    q = (1 << 61) - 1
    assert precompute_shoup(0, q).shoup == 0
    assert precompute_shoup(1, q).shoup == 8  # floor(2**64 / (2**61 - 1))
    with pytest.raises(ValueError):
        precompute_shoup(1, 1 << 62)
    with pytest.raises(ValueError):
        precompute_shoup(q, q)


def test_shoup_identity_and_zero():
    q = 576460752308273153
    one = precompute_shoup(1, q)
    zero = precompute_shoup(0, q)
    for x in (0, 1, 12345678901234567, q - 1):
        assert mul_mod_shoup(x, one, q) == x
        assert mul_mod_shoup(x, zero, q) == 0


@pytest.mark.parametrize("q", [17, 97, 257, 1021])
def test_shoup_exhaustive_small_prime(q):
    pairs = [precompute_shoup(w, q) for w in range(q)]
    for w in range(q):
        pair = pairs[w]
        for x in range(q):
            assert mul_mod_shoup(x, pair, q) == x * w % q


def test_shoup_randomized_large_moduli():
    # (2**61 - 1 is prime; the other is the 2**59-floor transform prime)
    moduli = [(1 << 61) - 1, 576460752308273153]
    stream = splitmix64(0xC0FFEE)
    cases = 1_000_000
    per_q = cases // len(moduli)
    for q in moduli:
        for _ in range(per_q):
            w = next(stream) % q
            x = next(stream) % q
            pair = precompute_shoup(w, q)
            assert mul_mod_shoup(x, pair, q) == x * w % q


def test_primality_against_sympy():
    stream = splitmix64(99)
    for _ in range(300):
        n = next(stream) % (1 << 62)
        assert is_prime(n) == sympy.isprime(n)


def test_factorize_roundtrip():
    stream = splitmix64(7)
    for _ in range(50):
        n = next(stream) % (1 << 48) + 2
        factors = factorize(n)
        prod = 1
        for p, e in factors.items():
            assert sympy.isprime(p)
            prod *= p**e
        assert prod == n


def test_primitive_root_examples():
    assert find_primitive_2n_root(257, 128) == 3
    psi = find_primitive_2n_root(17, 4)
    assert pow(psi, 4, 17) == 16
    with pytest.raises(NotNttFriendly):
        find_primitive_2n_root(13, 4)


@pytest.mark.parametrize("n,q", [(4, 17), (8, 97), (64, 12289), (1024, 12289)])
def test_primitive_root_order(n, q):
    psi = find_primitive_2n_root(q, n)
    assert pow(psi, n, q) == q - 1
    assert pow(psi, 2 * n, q) == 1
    # exact order 2n: psi**d != 1 for every proper divisor d of 2n
    for d in sympy.divisors(2 * n)[:-1]:
        assert pow(psi, d, q) != 1


def test_prime_modulus_invariants():
    with pytest.raises(NotNttFriendly):
        PrimeModulus(17, 3)  # not a power of two
    with pytest.raises(NotNttFriendly):
        PrimeModulus(13, 4)  # 13 != 1 mod 8
    with pytest.raises(NotNttFriendly):
        PrimeModulus(15, 4)  # composite
    m = PrimeModulus(17, 4)
    assert m.two_n_order == 8


def test_build_context_small():
    ctx = build_context(17, 4)
    assert ctx.psi == 9
    assert ctx.fwd_values.tolist() == [1, 13, 9, 15]
    assert ctx.inv_values.tolist() == [1, 4, 2, 8]
    assert ctx.fwd_shoups.tolist() == [(w << 64) // 17 for w in ctx.fwd_values.tolist()]
    assert ctx.inv_shoups.tolist() == [(w << 64) // 17 for w in ctx.inv_values.tolist()]
    assert ctx.n_inv.value * 4 % 17 == 1


@pytest.mark.parametrize("n,q", [(4, 17), (16, 97), (256, 7681)])
def test_table_symmetry(n, q):
    # re-indexed to natural power order, fwd and inv entries are inverses
    ctx = build_context(q, n)
    bits = n.bit_length() - 1
    fwd_nat = [int(ctx.fwd_values[bit_reverse(j, bits)]) for j in range(n)]
    inv_nat = [int(ctx.inv_values[bit_reverse(j, bits)]) for j in range(n)]
    for j in range(n):
        assert fwd_nat[j] * inv_nat[j] % q == 1


@pytest.mark.parametrize("n", [4, 64, 1 << 16])
def test_tables_in_bit_reversed_power_order(n):
    # the vectorised permutation against the scalar bit_reverse oracle
    q = find_ntt_prime(n, 1 << 59)
    ctx = build_context(q, n)
    bits = n.bit_length() - 1
    psi_inv = pow(ctx.psi, -1, q)
    fwd = [pow(ctx.psi, bit_reverse(k, bits), q) for k in range(n)]
    inv = [pow(psi_inv, bit_reverse(k, bits), q) for k in range(n)]
    assert ctx.fwd_values.tolist() == fwd
    assert ctx.inv_values.tolist() == inv
    assert ctx.fwd_shoups.tolist() == [(w << 64) // q for w in fwd]
    assert ctx.inv_shoups.tolist() == [(w << 64) // q for w in inv]


def test_build_context_word_size_prime(ctx_cache):
    q = ctx_cache.prime(256, 1 << 59)
    assert q > 1 << 59
    assert q % 512 == 1
    assert sympy.isprime(q)
    ctx = ctx_cache.get(256, q=q)
    assert isinstance(ctx, ModulusContext)
    assert len(ctx.fwd_values) == 256


def test_find_ntt_prime_examples():
    assert find_ntt_prime(4, 2) == 17
    assert find_ntt_prime(128, 2) == 257
    q = find_ntt_prime(1 << 16, 1 << 59)
    assert q % (1 << 17) == 1
    assert sympy.isprime(q)
    with pytest.raises(NoPrimeFound):
        find_ntt_prime(4, 1 << 62)
    with pytest.raises(ValueError):
        find_ntt_prime(12, 2)


def test_twiddle_csv_dump(tmp_path):
    ctx = build_context(17, 4)
    path = tmp_path / "twiddles.csv"
    write_twiddle_csv(ctx, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "value", "shoup", "inv_value", "inv_shoup"]
    assert len(rows) == 5
    assert [r[1] for r in rows[1:]] == ["1", "13", "9", "15"]
    assert int(rows[1][2]) == (1 << 64) // 17
