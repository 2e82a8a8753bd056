"""Exact modular arithmetic over NTT-friendly word-size primes.

Everything here works on canonical residues in [0, q).  The fast path for
coefficient-by-constant products is Shoup's trick: for a fixed multiplicand
w < q, precompute w' = floor(w * 2**64 / q); then (x * w) mod q costs one
high multiply, one low multiply-subtract and at most one conditional
subtraction.  The single-correction form is valid for q < 2**62, which is
the modulus ceiling enforced throughout this package.

mul_mod_shoup is the scalar form.  mulhi and shoup_butterfly are the same
arithmetic over numpy uint64 arrays, written once for the engine; every
step wraps modulo 2**64, which is exact because each true intermediate
fits.  Scalar callers must take int() or .tolist() of array entries first:
a np.uint64 times a Python int wraps silently as well.
"""

from dataclasses import dataclass, field

import numpy as np

MAX_MODULUS_BITS = 62
_SHOUP_SHIFT = 64
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)

# deterministic Miller-Rabin witness set for all n < 3.3e24 (covers 2**62)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class NotNttFriendly(ValueError):
    """Raised when q does not admit a primitive 2n-th root of unity."""


class NoPrimeFound(ValueError):
    """Raised when the prime search space below 2**62 is exhausted."""


def is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def bit_reverse(x: int, bits: int) -> int:
    """Reverse the low `bits` bits of x."""
    r = 0
    for _ in range(bits):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 2**62."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    from math import gcd

    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        x = seed
        y = seed
        c = seed | 1
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict:
    """Prime factorization as {prime: exponent}; trial division + rho."""
    factors: dict = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


@dataclass(frozen=True)
class PrimeModulus:
    """A prime q supporting negacyclic transforms of length n.

    Requires q prime, q ≡ 1 (mod 2n), q < 2**62, and n a power of two >= 4.
    """

    q: int
    n: int

    def __post_init__(self):
        if not is_power_of_two(self.n) or self.n < 4:
            raise NotNttFriendly(f"n={self.n} must be a power of two >= 4")
        if self.q.bit_length() > MAX_MODULUS_BITS:
            raise NotNttFriendly(f"q={self.q} exceeds the 2**62 modulus bound")
        if (self.q - 1) % (2 * self.n) != 0:
            raise NotNttFriendly(f"q={self.q} is not 1 mod {2 * self.n}")
        if not is_prime(self.q):
            raise NotNttFriendly(f"q={self.q} is not prime")

    @property
    def two_n_order(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class ShoupPair:
    """A residue together with its precomputed floor(value * 2**64 / q)."""

    value: int
    shoup: int


def add_mod(x: int, y: int, q: int) -> int:
    s = x + y
    return s - q if s >= q else s


def sub_mod(x: int, y: int, q: int) -> int:
    d = x - y
    return d + q if d < 0 else d


def precompute_shoup(w: int, q: int) -> ShoupPair:
    """Pair w with floor(w * 2**64 / q) for fast fixed-multiplicand products."""
    if q.bit_length() > MAX_MODULUS_BITS:
        raise ValueError(f"q={q} exceeds the 2**62 Shoup correctness bound")
    if not 0 <= w < q:
        raise ValueError(f"w={w} out of range for q={q}")
    return ShoupPair(w, (w << _SHOUP_SHIFT) // q)


def mul_mod_shoup(x: int, w: ShoupPair, q: int) -> int:
    """(x * w.value) mod q with one high multiply and one correction.

    hi approximates floor(x*w/q) from below with error < 2, so the raw
    difference lies in [0, 2q) and a single conditional subtraction
    canonicalizes it (q < 2**62).
    """
    hi = (x * w.shoup) >> _SHOUP_SHIFT
    r = x * w.value - hi * q
    return r - q if r >= q else r


def mulhi(a, b, scratch=None):
    """floor(a * b / 2**64) elementwise over uint64 arrays; b broadcasts against a.

    numpy has no 64x64 -> 128-bit product, so the high word is assembled
    from the four 32-bit limb products.  scratch, a uint64 array of shape
    (5,) + a.shape, avoids temporaries; the result is written to scratch[1].
    """
    if scratch is None:
        scratch = np.empty((5,) + a.shape, np.uint64)
    a_lo, hi, ll, hl, tmp = scratch
    b_lo = b & _LO32
    b_hi = b >> _U32
    np.bitwise_and(a, _LO32, out=a_lo)
    np.right_shift(a, _U32, out=hi)
    np.multiply(a_lo, b_lo, out=ll)
    ll >>= _U32  # only its carry into the middle word matters
    np.multiply(hi, b_lo, out=hl)  # a_hi * b_lo
    hi *= b_hi  # a_hi * b_hi
    a_lo *= b_hi  # a_lo * b_hi
    for cross in (a_lo, hl):  # the middle word stays below 3 * 2**32
        np.bitwise_and(cross, _LO32, out=tmp)
        ll += tmp
        cross >>= _U32
        hi += cross
    ll >>= _U32
    hi += ll
    return hi


def shoup_butterfly(x, y, w, w_shoup, q: int, scratch=None) -> None:
    """In place (x, y) <- (x + w*y, x - w*y) mod q over uint64 arrays.

    The array form of mul_mod_shoup followed by add_mod/sub_mod: w and its
    Shoup companion w_shoup broadcast against y.  Each conditional
    subtraction is an unsigned minimum, min(r, r - q), since r - q wraps
    past r exactly when r < q.  scratch is as for mulhi.
    """
    if scratch is None:
        scratch = np.empty((5,) + y.shape, np.uint64)
    q = np.uint64(q)
    hi = mulhi(y, w_shoup, scratch)
    v, tmp = scratch[0], scratch[2]
    np.multiply(y, w, out=v)
    hi *= q
    v -= hi  # y*w - hi*q, in [0, 2q)
    np.subtract(v, q, out=tmp)
    np.minimum(v, tmp, out=v)
    np.subtract(x, v, out=y)
    np.add(y, q, out=tmp)
    np.minimum(y, tmp, out=y)
    x += v
    np.subtract(x, q, out=tmp)
    np.minimum(x, tmp, out=x)


def find_smallest_generator(q: int) -> int:
    """Smallest generator of the multiplicative group of Z_q (q prime)."""
    order = q - 1
    prime_factors = list(factorize(order))
    g = 2
    while True:
        if all(pow(g, order // r, q) != 1 for r in prime_factors):
            return g
        g += 1


def find_primitive_2n_root(q: int, n: int) -> int:
    """Deterministic primitive 2n-th root of unity psi modulo q.

    psi is derived from the smallest generator g as g**((q-1)/2n), which is
    reproducible across runs.  Guarantees psi**n = q-1 and psi**(2n) = 1.
    """
    if (q - 1) % (2 * n) != 0:
        raise NotNttFriendly(f"q={q} is not 1 mod {2 * n}")
    g = find_smallest_generator(q)
    psi = pow(g, (q - 1) // (2 * n), q)
    if pow(psi, n, q) != q - 1:
        raise NotNttFriendly(f"no primitive {2 * n}-th root of unity mod q={q}; q must be prime")
    return psi


@dataclass(eq=False)
class ModulusContext:
    """Immutable bundle of modulus, root, and twiddle tables.

    fwd_values[k] holds psi**bitrev(k) (bit-reversed power order) and
    fwd_shoups[k] its Shoup companion; inv_values/inv_shoups hold the
    matching powers of psi**-1.  The four tables are uint64 arrays.  Safe
    to share across threads once built.
    """

    modulus: PrimeModulus
    psi: int
    n_inv: ShoupPair
    fwd_values: np.ndarray = field(repr=False)
    fwd_shoups: np.ndarray = field(repr=False)
    inv_values: np.ndarray = field(repr=False)
    inv_shoups: np.ndarray = field(repr=False)

    @property
    def q(self) -> int:
        return self.modulus.q

    @property
    def n(self) -> int:
        return self.modulus.n


def build_context(q: int, n: int) -> ModulusContext:
    """Build the full twiddle context for an n-point transform modulo q."""
    modulus = PrimeModulus(q, n)
    psi = find_primitive_2n_root(q, n)
    psi_inv = pow(psi, -1, q)

    fwd_pow = [1] * n
    inv_pow = [1] * n
    for i in range(1, n):
        fwd_pow[i] = fwd_pow[i - 1] * psi % q
        inv_pow[i] = inv_pow[i - 1] * psi_inv % q

    bits = n.bit_length() - 1
    k = np.arange(n)
    rev = np.zeros(n, np.int64)
    for b in range(bits):
        rev |= ((k >> b) & 1) << (bits - 1 - b)

    def table(values):
        out = np.array(values, np.uint64)[rev]
        out.flags.writeable = False  # shared by every transform over this context
        return out

    return ModulusContext(
        modulus=modulus,
        psi=psi,
        n_inv=precompute_shoup(pow(n, -1, q), q),
        fwd_values=table(fwd_pow),
        fwd_shoups=table([(w << _SHOUP_SHIFT) // q for w in fwd_pow]),
        inv_values=table(inv_pow),
        inv_shoups=table([(w << _SHOUP_SHIFT) // q for w in inv_pow]),
    )


def find_ntt_prime(n: int, floor: int) -> int:
    """Smallest prime p >= floor with p ≡ 1 (mod 2n) and p < 2**62."""
    if not is_power_of_two(n):
        raise ValueError(f"n={n} must be a power of two")
    if floor >= 1 << MAX_MODULUS_BITS:
        raise NoPrimeFound(f"floor={floor} already at the 2**62 bound")
    step = 2 * n
    candidate = ((max(floor, 2) - 2 + step) // step) * step + 1
    if candidate < floor:
        candidate += step
    limit = 1 << MAX_MODULUS_BITS
    while candidate < limit:
        if is_prime(candidate):
            return candidate
        candidate += step
    raise NoPrimeFound(f"no prime ≡ 1 mod {step} in [{floor}, 2**62)")


def write_twiddle_csv(ctx: ModulusContext, path: str) -> None:
    """Dump the twiddle tables as CSV rows (index, value, shoup, inv_value, inv_shoup)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value", "shoup", "inv_value", "inv_shoup"])
        tables = (ctx.fwd_values, ctx.fwd_shoups, ctx.inv_values, ctx.inv_shoups)
        writer.writerows(zip(range(ctx.n), *(t.tolist() for t in tables)))
