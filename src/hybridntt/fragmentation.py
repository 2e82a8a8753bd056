"""The engine's pass plan, its conflict-free banked buffer mapping, and
the machine checks of that mapping.

pass_plan is the one derivation of which elements each array pass moves,
in which order, and how each array stage is configured, as arrays over all
passes of an iteration half; the engine, the access schedule and the
twiddle grid all read it.

The on-chip buffer is split into 2p banks of n/(2p) words.  Element i
lands at

    bank   = (i XOR floor(i / n_part)) mod 2p
    offset = floor(i / (2p))

The XOR term separates the strided accesses of the first iteration half
from the sequential accesses of the second, so that every 2p-wide parallel
round hits 2p distinct banks while the global stream 0..n-1 stays burst
contiguous per bank.  verify_conflict_free and verify_burst certify both
properties by brute force rather than trusting the derivation.
"""

from dataclasses import dataclass, field

import numpy as np

from .modmath import is_power_of_two

READ = "read"
WRITE = "write"
BUTTERFLY = "butterfly"
SWAP = "swap"
NO_TWIDDLE = -1  # fills a twiddle slot of a swap stage, which consumes no table entry


class BadConfig(ValueError):
    """Geometry outside the supported envelope, message names the constraint."""


def validate_geometry(n: int, n_part: int, p: int) -> None:
    if not is_power_of_two(n):
        raise BadConfig(f"n={n} must be a power of two")
    if not is_power_of_two(n_part):
        raise BadConfig(f"n_part={n_part} must be a power of two")
    if not is_power_of_two(p):
        raise BadConfig(f"p={p} must be a power of two")
    if p < 2:
        raise BadConfig(f"p={p} must be at least 2")
    if 2 * p > n_part:
        raise BadConfig(f"2p={2 * p} exceeds n_part={n_part}")
    if n_part > n:
        raise BadConfig(f"n_part={n_part} exceeds n={n}")
    if n > n_part * n_part:
        raise BadConfig(
            f"n={n} exceeds n_part**2={n_part * n_part}; "
            "the two-half iteration scheme covers at most 2*log2(n_part) stages"
        )


@dataclass(frozen=True)
class HalfModes:
    swap_stages: int
    butterfly_stages: int

    @property
    def notation(self) -> str:
        return f"S×{self.swap_stages},B×{self.butterfly_stages}"


@dataclass(frozen=True)
class ModeSchedule:
    """Per-half lane configuration plus the pass count."""

    iterations: int
    first_half: HalfModes
    second_half: HalfModes


def mode_schedule(n: int, n_part: int) -> ModeSchedule:
    """Derive the swap/butterfly split for both iteration halves.

    The first half always runs all stages in arithmetic mode.  In the
    second half only the last s - s_part * floor((s-1)/s_part) stages do,
    the remaining leading stages pass data through in swap mode.  A
    single-pass transform (n == n_part) reports one iteration.
    """
    validate_geometry(n, n_part, 2)  # p=2 is the weakest legal parallelism
    s = n.bit_length() - 1
    s_part = n_part.bit_length() - 1
    second_bf = s - s_part * ((s - 1) // s_part)
    iterations = 2 * n // n_part if n > n_part else 1
    return ModeSchedule(
        iterations=iterations,
        first_half=HalfModes(0, s_part),
        second_half=HalfModes(s_part - second_bf, second_bf),
    )


@dataclass(frozen=True, eq=False)
class PlanStage:
    """One array stage, shared by every pass of a half.

    An arithmetic butterfly with low element j uses twiddle table entry
    wbase + (j >> shift), wbase being the pass's own.  rounds[r] holds the
    low elements of the r-th p-wide compute round, in issue order.
    """

    stage: int
    mode: str
    shift: int
    rounds: np.ndarray  # (n_part / (2p), p)


@dataclass(frozen=True, eq=False)
class HalfPlan:
    """The passes of one iteration half; row k is pass `iteration + k`.

    indices[k, u] is the global index at local position u of pass k, and
    every pass's elements arrive in the local-position order `arrival`.
    wbase[k, s] is pass k's twiddle base at array stage s.
    """

    iteration: int
    indices: np.ndarray  # (passes, n_part)
    arrival: np.ndarray  # (n_part,)
    wbase: np.ndarray  # (passes, s_part)
    stages: tuple  # PlanStage per array stage

    def twiddle_index(self, st: PlanStage, lows):
        """(passes, len(lows)): table entry of st's butterfly with low element lows[i]."""
        return self.wbase[:, st.stage, None] + (lows >> st.shift)


def pass_plan(n: int, n_part: int, p: int) -> tuple:
    """The engine's passes as one HalfPlan per iteration half, in order.

    First-half pass k owns the stride-m coset {u*m + k} (m = n/n_part) and
    runs every stage in arithmetic mode.  Its elements arrive with the block
    coordinate of u fastest, so that each 2p-chunk spans either 2p distinct
    blocks or all blocks at 2p/m distinct within-block positions, which is
    what keeps banks disjoint.  Second-half pass h owns the contiguous block
    [h*n_part, (h+1)*n_part) in order; its leading stages are in swap mode
    and array stage s of the rest covers global stage s + log2(m).  A
    single-pass transform (m == 1) is one first-half pass.
    """
    validate_geometry(n, n_part, p)
    swap_stages = mode_schedule(n, n_part).second_half.swap_stages
    s_part = n_part.bit_length() - 1
    log_m = n.bit_length() - n_part.bit_length()
    m = 1 << log_m
    i = np.arange(n)  # both halves' index matrices are views of it
    u = i[:n_part]
    s = np.arange(s_part)

    def stages(swaps):  # stage t pairs positions stride n_part >> (t+1) apart
        return tuple(
            PlanStage(t, SWAP if t < swaps else BUTTERFLY, s_part - t,
                      u[(u & (n_part >> (t + 1))) == 0].reshape(-1, p))
            for t in range(s_part)
        )

    first = HalfPlan(
        0,
        i.reshape(n_part, m).T,
        u.reshape(m, n_part // m).T.ravel(),  # m <= n_part as n <= n_part**2
        np.broadcast_to(1 << s, (m, s_part)),
        stages(0),
    )
    if m == 1:
        return (first,)
    h = np.arange(m)[:, None]
    wbase = np.where(s < swap_stages, 0, (1 << (s + log_m)) + (h << s))
    return first, HalfPlan(m, i.reshape(m, n_part), u, wbase, stages(swap_stages))


def round_touches(bank, offset, indices, arrival, width: int):
    """(passes, rounds, width, 3): the (bank, offset, index) triples of each round.

    bank, offset and indices are (passes, n_part) in local-position order;
    rounds take the elements in arrival order.
    """
    return np.stack((bank, offset, indices), axis=-1)[:, arrival].reshape(len(indices), -1, width, 3)


@dataclass
class BankLayout:
    """The 2p x n/(2p) element arrangement produced by the XOR mapping.

    bank_of and offset_of take an int or an integer ndarray of indices.
    """

    n: int
    n_part: int
    p: int
    banks: int
    depth: int
    arrangement: np.ndarray = field(repr=False)  # arrangement[bank, offset] -> global index

    def bank_of(self, i):
        return (i ^ (i // self.n_part)) % self.banks

    def offset_of(self, i):
        return i // self.banks

    def place(self, i: int) -> tuple:
        return self.bank_of(i), self.offset_of(i)


def map_layout(n: int, n_part: int, p: int) -> BankLayout:
    """Build and sanity-check the banked arrangement for (n, n_part, p)."""
    validate_geometry(n, n_part, p)
    banks = 2 * p
    depth = n // banks
    layout = BankLayout(n, n_part, p, banks, depth, np.full((banks, depth), -1, np.int64))
    i = np.arange(n)
    layout.arrangement[layout.bank_of(i), layout.offset_of(i)] = i
    empty = np.argwhere(layout.arrangement < 0)
    if len(empty):  # n slots for n elements: a hole means two elements collided
        b, off = empty[0].tolist()
        raise BadConfig(f"collision: bank {b} offset {off} left empty")
    return layout


@dataclass
class AccessRound:
    """One 2p-wide parallel buffer access."""

    iteration: int
    round: int
    direction: str  # READ or WRITE
    touches: list  # (bank, offset, global_index) triples


def access_schedule(layout: BankLayout, config, schedule) -> list:
    """Enumerate every read and write round of every iteration.

    Writes mirror reads: each iteration writes back exactly the elements it
    consumed, through the same bank pattern.
    """
    if (layout.n, layout.n_part, layout.p) != (config.n, config.n_part, config.p):
        raise BadConfig("layout and config geometry disagree")
    rounds = []
    total_iterations = 0
    for half in pass_plan(layout.n, layout.n_part, layout.p):
        idx = half.indices
        where = layout.bank_of(idx), layout.offset_of(idx)
        columns = [c.tolist() for c in np.moveaxis(round_touches(*where, idx, half.arrival, 2 * layout.p), -1, 0)]
        for k, rows in enumerate(zip(*columns)):
            per_round = [list(zip(*rnd)) for rnd in zip(*rows)]
            for direction in (READ, WRITE):
                for r, rnd in enumerate(per_round):
                    rounds.append(AccessRound(half.iteration + k, r, direction, list(rnd)))
        total_iterations += len(idx)
    if total_iterations != schedule.iterations:
        raise BadConfig(
            f"schedule expects {schedule.iterations} iterations, enumerated {total_iterations}"
        )
    return rounds


@dataclass
class ConflictReport:
    rounds_checked: int
    conflicts: list  # dicts naming the offending round
    max_distinct_offsets: int  # word-line locality metric, reported not asserted

    @property
    def clean(self) -> bool:
        return not self.conflicts

    def to_dict(self) -> dict:
        return {
            "rounds_checked": self.rounds_checked,
            "conflicts": self.conflicts,
            "conflict_free": self.clean,
            "max_distinct_offsets": self.max_distinct_offsets,
        }


def verify_conflict_free(rounds: list) -> ConflictReport:
    """Flag every round whose touches do not cover pairwise-distinct banks."""
    conflicts = []
    max_offsets = 0
    for rnd in rounds:
        banks = [t[0] for t in rnd.touches]
        offsets = {t[1] for t in rnd.touches}
        if len(offsets) > max_offsets:
            max_offsets = len(offsets)
        if len(set(banks)) != len(banks):
            seen = {}
            for b in banks:
                seen[b] = seen.get(b, 0) + 1
            conflicts.append(
                {
                    "iteration": rnd.iteration,
                    "round": rnd.round,
                    "direction": rnd.direction,
                    "duplicated_banks": sorted(b for b, c in seen.items() if c > 1),
                }
            )
    return ConflictReport(len(rounds), conflicts, max_offsets)


@dataclass
class BurstReport:
    burst_clean: bool
    violations: list

    def to_dict(self) -> dict:
        return {"burst_clean": self.burst_clean, "violations": self.violations}


def verify_burst(layout: BankLayout) -> BurstReport:
    """Stream 0..n-1 and confirm each bank sees offsets 0,1,2,... gap free.

    This is the property that lets a sequential HBM burst be scattered into
    the banks (and gathered back out) without reordering buffers.
    """
    next_offset = [0] * layout.banks
    violations = []
    for i in range(layout.n):
        b, off = layout.place(i)
        if off != next_offset[b]:
            violations.append({"index": i, "bank": b, "offset": off, "expected": next_offset[b]})
        next_offset[b] = off + 1
    for b, nxt in enumerate(next_offset):
        if nxt != layout.depth:
            violations.append({"bank": b, "filled": nxt, "depth": layout.depth})
    return BurstReport(not violations, violations)
