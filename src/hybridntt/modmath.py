"""Exact modular arithmetic over NTT-friendly word-size primes.

Everything here works on canonical residues in [0, q).  The fast path for
coefficient-by-constant products is Shoup's trick: for a fixed multiplicand
w < q, precompute w' = floor(w * 2**64 / q); then (x * w) mod q costs one
high multiply, one low multiply-subtract and at most one conditional
subtraction.  The single-correction form is valid for q < 2**62, which is
the modulus ceiling enforced throughout this package.
"""

from dataclasses import dataclass, field

MAX_MODULUS_BITS = 62
_SHOUP_SHIFT = 64

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


@dataclass
class ModulusContext:
    """Immutable bundle of modulus, root, and twiddle tables.

    fwd_values[k] holds psi**bitrev(k) (bit-reversed power order) and
    fwd_shoups[k] its Shoup companion; inv_values/inv_shoups hold the
    matching powers of psi**-1.  Safe to share across threads once built.
    """

    modulus: PrimeModulus
    psi: int
    n_inv: ShoupPair
    fwd_values: list = field(repr=False)
    fwd_shoups: list = field(repr=False)
    inv_values: list = field(repr=False)
    inv_shoups: list = field(repr=False)

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

    bits = n.bit_length() - 1
    fwd_pow = [1] * n
    inv_pow = [1] * n
    for i in range(1, n):
        fwd_pow[i] = fwd_pow[i - 1] * psi % q
        inv_pow[i] = inv_pow[i - 1] * psi_inv % q

    rev = [bit_reverse(k, bits) for k in range(n)]
    fwd = [fwd_pow[r] for r in rev]
    inv = [inv_pow[r] for r in rev]
    return ModulusContext(
        modulus=modulus,
        psi=psi,
        n_inv=precompute_shoup(pow(n, -1, q), q),
        fwd_values=fwd,
        fwd_shoups=[(w << _SHOUP_SHIFT) // q for w in fwd],
        inv_values=inv,
        inv_shoups=[(w << _SHOUP_SHIFT) // q for w in inv],
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
        writer.writerows(
            zip(range(ctx.n), ctx.fwd_values, ctx.fwd_shoups, ctx.inv_values, ctx.inv_shoups)
        )
