"""Golden models for the negacyclic polynomial pipeline.

Two independent routes to the same product live here: a schoolbook
quadratic negacyclic multiplication, and the n log n forward/inverse
transform pair.  Every other execution path in the package is checked
against these, bit for bit.

Order convention: the forward transform takes coefficients in natural
order and leaves the evaluation vector in bit-reversed order; the inverse
consumes bit-reversed input and restores natural order.  Pointwise
products are order-agnostic as long as both operands share the convention,
so no explicit permutation pass is ever needed.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .modmath import ModulusContext, build_context

HPLY_MAGIC = b"HPLY"
HPLY_VERSION = 1

_MASK64 = (1 << 64) - 1


class ContextMismatch(ValueError):
    """Operands built over different moduli or lengths."""


@dataclass(eq=False)
class Polynomial:
    """Length-n coefficient vector over the context's modulus."""

    coeffs: list
    ctx: ModulusContext

    def __post_init__(self):
        n = self.ctx.n
        q = self.ctx.q
        if len(self.coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(self.coeffs)}")
        if min(self.coeffs) < 0 or max(self.coeffs) >= q:
            raise ValueError("coefficients must be canonical residues in [0, q)")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ctx.q == other.ctx.q
            and self.ctx.n == other.ctx.n
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Polynomial(n={self.ctx.n}, q={self.ctx.q})"


def _require_same_context(a: Polynomial, b: Polynomial):
    if a.ctx.q != b.ctx.q or a.ctx.n != b.ctx.n:
        raise ContextMismatch(
            f"(n={a.ctx.n}, q={a.ctx.q}) vs (n={b.ctx.n}, q={b.ctx.q})"
        )


def naive_negacyclic_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Schoolbook product modulo X**n + 1.

    c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+n} a_i b_j (mod q); the wrap
    past degree n re-enters with negated sign.  Quadratic on purpose: this
    is the independent oracle the transforms are measured against.  When
    n * (q-1)**2 fits in int64 the convolution runs through numpy's exact
    integer convolve; otherwise plain big-int loops take over.
    """
    _require_same_context(a, b)
    n = a.ctx.n
    q = a.ctx.q
    if n * (q - 1) * (q - 1) < (1 << 63):
        full = np.convolve(
            np.asarray(a.coeffs, dtype=np.int64), np.asarray(b.coeffs, dtype=np.int64)
        )
        low = full[:n]
        low[: n - 1] -= full[n:]
        out = [int(c) % q for c in low]
        return Polynomial(out, a.ctx)
    out = [0] * n
    ac = a.coeffs
    bc = b.coeffs
    for i in range(n):
        ai = ac[i]
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            if k < n:
                out[k] += ai * bc[j]
            else:
                out[k - n] -= ai * bc[j]
    return Polynomial([c % q for c in out], a.ctx)


def forward_values(values: list, ctx: ModulusContext) -> list:
    """Iterative decimation-in-time forward pass on a raw residue list.

    log n stages of (x1 + w*x2, x1 - w*x2) butterflies with the
    bit-reversed twiddle table; output lands in bit-reversed order.
    Scalar on purpose: it is the engine's independent oracle, and at small
    n per-call array overhead would outweigh the loop.
    """
    a = list(values)
    n = ctx.n
    q = ctx.q
    wv = ctx.fwd_values.tolist()
    ws = ctx.fwd_shoups.tolist()
    t = n
    m = 1
    while m < n:
        t >>= 1
        for i in range(m):
            j1 = 2 * i * t
            w = wv[m + i]
            s = ws[m + i]
            for j in range(j1, j1 + t):
                x = a[j]
                y = a[j + t]
                hi = (y * s) >> 64
                v = y * w - hi * q
                if v >= q:
                    v -= q
                xp = x + v
                if xp >= q:
                    xp -= q
                xm = x - v
                if xm < 0:
                    xm += q
                a[j] = xp
                a[j + t] = xm
        m <<= 1
    return a


def inverse_values(values: list, ctx: ModulusContext) -> list:
    """Decimation-in-frequency inverse pass; undoes forward_values exactly."""
    a = list(values)
    n = ctx.n
    q = ctx.q
    wv = ctx.inv_values.tolist()
    ws = ctx.inv_shoups.tolist()
    t = 1
    m = n
    while m > 1:
        j1 = 0
        h = m >> 1
        for i in range(h):
            j2 = j1 + t
            w = wv[h + i]
            s = ws[h + i]
            for j in range(j1, j2):
                x = a[j]
                y = a[j + t]
                xp = x + y
                if xp >= q:
                    xp -= q
                d = x - y
                if d < 0:
                    d += q
                hi = (d * s) >> 64
                v = d * w - hi * q
                if v >= q:
                    v -= q
                a[j] = xp
                a[j + t] = v
            j1 += 2 * t
        t <<= 1
        m = h
    ninv = ctx.n_inv.value
    ninv_s = ctx.n_inv.shoup
    for j in range(n):
        x = a[j]
        hi = (x * ninv_s) >> 64
        v = x * ninv - hi * q
        a[j] = v - q if v >= q else v
    return a


def reference_forward_ntt(a: Polynomial) -> Polynomial:
    """Forward transform of a natural-order polynomial (bit-reversed output)."""
    return Polynomial(forward_values(a.coeffs, a.ctx), a.ctx)


def reference_inverse_ntt(a_hat: Polynomial) -> Polynomial:
    """Inverse transform of a bit-reversed evaluation vector."""
    return Polynomial(inverse_values(a_hat.coeffs, a_hat.ctx), a_hat.ctx)


def pointwise_mul(a_hat: Polynomial, b_hat: Polynomial) -> Polynomial:
    """Element-wise modular product of two evaluation vectors.

    Data-by-data products have no fixed multiplicand, so there is no Shoup
    companion to exploit; a plain wide multiply-reduce is exact.
    """
    _require_same_context(a_hat, b_hat)
    q = a_hat.ctx.q
    out = [x * y % q for x, y in zip(a_hat.coeffs, b_hat.coeffs)]
    return Polynomial(out, a_hat.ctx)


def splitmix64(seed: int):
    """Infinite stream of 64-bit words from the splitmix64 generator.

    state += 0x9E3779B97F4A7C15; z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
    z = (z ^ z>>27) * 0x94D049BB133111EB; output z ^ z>>31.  Chosen because it
    is trivially reproducible in any language from a single u64 seed.
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def random_polynomial(ctx: ModulusContext, seed: int) -> Polynomial:
    """Seeded uniform-ish polynomial (64-bit draws reduced mod q)."""
    stream = splitmix64(seed)
    q = ctx.q
    return Polynomial([next(stream) % q for _ in range(ctx.n)], ctx)


def write_polynomial(path: str, poly: Polynomial) -> None:
    """HPLY binary dump: magic, version u32, n u64, q u64, then LE u64 words."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQQ", HPLY_MAGIC, HPLY_VERSION, poly.ctx.n, poly.ctx.q))
        fh.write(struct.pack(f"<{poly.ctx.n}Q", *poly.coeffs))


def read_polynomial(path: str, ctx: ModulusContext | None = None) -> Polynomial:
    """Read an HPLY file; builds a context from the stored (n, q) if none given."""
    header_size = struct.calcsize("<4sIQQ")
    with open(path, "rb") as fh:
        body_size = os.fstat(fh.fileno()).st_size - header_size
        if body_size < 0:
            raise ValueError(f"truncated HPLY header: expected {header_size} bytes")
        magic, version, n, q = struct.unpack("<4sIQQ", fh.read(header_size))
        if magic != HPLY_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {HPLY_MAGIC!r}")
        if version != HPLY_VERSION:
            raise ValueError(f"unsupported HPLY version {version}")
        if body_size < 8 * n:
            raise ValueError(f"truncated HPLY body: expected {8 * n} bytes")
        if body_size > 8 * n:
            raise ValueError(f"{body_size - 8 * n} trailing bytes after the HPLY body")
        coeffs = list(struct.unpack(f"<{n}Q", fh.read(8 * n)))
    if ctx is None:
        ctx = build_context(q, n)
    elif ctx.n != n or ctx.q != q:
        raise ContextMismatch(f"file is (n={n}, q={q}), context is (n={ctx.n}, q={ctx.q})")
    return Polynomial(coeffs, ctx)
