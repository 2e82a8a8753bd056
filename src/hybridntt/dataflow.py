"""Functional simulation of the hybrid-dataflow transform engine.

The engine computes an n-point negacyclic forward transform by streaming
2p elements per round through a small array of log2(n_part) stages, each
stage holding p/2 compute units with two butterfly lanes.  A transform
with n > n_part runs as 2n/n_part passes of the n_part-point array:

* first half (n/n_part passes): pass k owns the stride-(n/n_part) coset
  {u * n/n_part + k}; the array stages map one-to-one onto global stages
  0..log2(n_part)-1, every lane in arithmetic mode;
* second half: pass h owns the contiguous block [h*n_part, (h+1)*n_part);
  only the trailing stages carry arithmetic (the global stages not yet
  covered), the leading stages are configured to swap mode and forward
  their pairs untouched.

The passes come from fragmentation.pass_plan, which the access schedule
and the twiddle grid read as well.  Data lives in the banked buffer from
the fragmentation mapping between halves; only the initial load and final
store touch external memory.
Functional order respects data dependencies but models no clock skew;
cycle accounting lives in perfmodel.

The passes of one half touch disjoint elements, so the simulator runs them
side by side, as the hardware pipelines them.  Each half is gathered from
the banks through the XOR mapping into one (passes, n_part) uint64 array
and scattered back after its stages.  Traced or not, every arithmetic
stage is one modmath.shoup_butterfly over that whole array.  A traced run
keeps what the half did as arrays, a HalfTrace: its bank rounds, a copy of
the half around each stage and the twiddle entries the kernel used.  No
per-lane object exists unless SimTrace.iter_records is asked for one; the
JSONL writer and audit_trace read the arrays.  The golden model
reference.forward_values stays scalar: it is faster than array code at
the small n where it dominates, and it keeps the equivalence check
independent of the engine's kernel.

Bit-exactness against reference.forward_values is the binding contract
and is what the test suite enforces across the configuration sweep.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fragmentation import (
    BUTTERFLY,
    NO_TWIDDLE,
    READ,
    SWAP,
    WRITE,
    BadConfig,
    ModeSchedule,
    PlanStage,
    map_layout,
    mode_schedule,
    pass_plan,
    round_touches,
    validate_geometry,
)
from .modmath import ShoupPair, add_mod, mul_mod_shoup, shoup_butterfly, sub_mod
from .reference import ContextMismatch, Polynomial


@dataclass(frozen=True)
class EngineConfig:
    """Geometry and platform parameters of one engine instance."""

    n: int
    n_part: int
    p: int
    freq_mhz: float = 300.0
    hbm_gbps: float = 460.0

    def __post_init__(self):
        validate_geometry(self.n, self.n_part, self.p)
        if not all(math.isfinite(v) and v > 0 for v in (self.freq_mhz, self.hbm_gbps)):
            raise BadConfig("freq_mhz and hbm_gbps must be finite and positive")

    @property
    def s(self) -> int:
        return self.n.bit_length() - 1

    @property
    def s_part(self) -> int:
        return self.n_part.bit_length() - 1

    @property
    def iterations(self) -> int:
        return mode_schedule(self.n, self.n_part).iterations

    @property
    def rounds_per_iteration(self) -> int:
        return self.n_part // (2 * self.p)


@dataclass(frozen=True)
class StageInfo:
    stage: int
    stride: int
    dependent: bool

    @property
    def kind(self) -> str:
        return "dependent" if self.dependent else "independent"


def classify_stages(config: EngineConfig) -> list:
    """Stride and dependence class per array stage.

    Stage s pairs elements stride n_part/2**(s+1) apart; once the stride
    drops below p the paired streams cross between lanes, making the stage
    dependent.  Exactly log2(p) trailing stages are dependent.
    """
    out = []
    for s in range(config.s_part):
        stride = config.n_part >> (s + 1)
        out.append(StageInfo(stage=s, stride=stride, dependent=stride < config.p))
    return out


def butterfly(x1: int, x2: int, w: ShoupPair, mode: str, q: int) -> tuple:
    """One lane operation: arithmetic butterfly or swap-mode pass-through."""
    if mode == SWAP:
        return x1, x2
    t = mul_mod_shoup(x2, w, q)
    return add_mod(x1, t, q), sub_mod(x1, t, q)


class RoundRecord(NamedTuple):
    iteration: int
    round: int
    direction: str
    touches: tuple  # ((bank, offset, global_index), ...)


class BuRecord(NamedTuple):
    """One lane operation, its pairs held as flat fields."""

    iteration: int
    round: int
    stage: int
    nttu: int
    bu: int
    mode: str
    lane1: int  # within-round stream positions of the two inputs
    lane2: int
    input1: int
    input2: int
    twiddle_index: int | None
    output1: int
    output2: int

    @property
    def lanes(self) -> tuple:
        return self.lane1, self.lane2

    @property
    def inputs(self) -> tuple:
        return self.input1, self.input2

    @property
    def outputs(self) -> tuple:
        return self.output1, self.output2


DIRECTIONS = (READ, WRITE)  # every pass reads its rounds, then writes them back


def unit_slots(lane_columns, p: int):
    """(passes, lanes) in issue order -> (passes, p/2 units, lanes*2/p).

    Unit u runs lanes 2u and 2u+1 of every round, round by round.
    """
    count = len(lane_columns)
    return lane_columns.reshape(count, -1, p // 2, 2).swapaxes(1, 2).reshape(count, p // 2, -1)


def slot_list(row) -> list:
    """One unit's twiddle slot as a list; a swap slot, filled with NO_TWIDDLE, is empty."""
    return [] if row[0] == NO_TWIDDLE else row.tolist()


@dataclass(frozen=True, eq=False)
class HalfTrace:
    """What the engine did in one iteration half, as arrays.

    Row k is pass `iteration + k` of the half's HalfPlan.  touches[k, r]
    holds the (bank, offset, index) triples of pass k's r-th buffer round in
    arrival order; its read and its write round move the same elements, so
    a round's position is its key.  values[s] is the half before array
    stage s and values[-1] the half after the last; twiddles[s] holds the
    table entry the kernel used for each butterfly block of stage s, and has
    no columns for a swap stage.
    """

    touches: np.ndarray  # (passes, rounds, 2p, 3) int64
    values: tuple  # (passes, n_part) uint64 per stage boundary
    twiddles: tuple  # (passes, blocks) int64 per stage

    def lanes(self, st: PlanStage) -> tuple:
        """st's lanes in issue order: lane1, lane2, input1, input2, twiddle, output1, output2.

        lane1 and lane2 are (lanes,): the ranks of a lane's two elements
        among the 2p elements of its round.  The rest are (passes, lanes);
        twiddle is None when the stage has no twiddle columns.
        """
        p = st.rounds.shape[1]
        pairs = np.hstack([st.rounds, st.rounds + (self.values[0].shape[1] >> (st.stage + 1))])
        rank = np.argsort(np.argsort(pairs, axis=1), axis=1)
        lows, highs = pairs[:, :p].ravel(), pairs[:, p:].ravel()
        before, after = self.values[st.stage], self.values[st.stage + 1]
        tw = self.twiddles[st.stage]
        return (rank[:, :p].ravel(), rank[:, p:].ravel(), before[:, lows], before[:, highs],
                tw[:, lows >> st.shift] if tw.shape[1] else None, after[:, lows], after[:, highs])


@dataclass
class SimTrace:
    """One traced run: the passes the engine ran and a HalfTrace per half."""

    config: EngineConfig
    plan: tuple  # HalfPlan per iteration half
    halves: tuple  # HalfTrace per iteration half

    @property
    def rounds_executed(self) -> int:
        return sum(2 * h.touches.shape[0] * h.touches.shape[1] for h in self.halves)

    @property
    def elements_read(self) -> int:
        return sum(math.prod(h.touches.shape[:3]) for h in self.halves)

    elements_written = elements_read  # a half writes back every element it read

    def iter_records(self):
        """The run as RoundRecords and BuRecords, in trace-file order.

        Per pass: its read rounds, its lanes stage by stage, its write
        rounds.  This is for inspection and tests; the JSONL writer and
        the audit read the arrays.
        """
        p = self.config.p
        for plan, half in zip(self.plan, self.halves):
            stages = []
            for st in plan.stages:
                *columns, tw, y1, y2 = half.lanes(st)
                tw = [[None] * y1.shape[1]] * len(y1) if tw is None else tw.tolist()
                stages.append((st, *(c.tolist() for c in (*columns, y1, y2)), tw))
            for k, touches in enumerate(half.touches.tolist()):
                it = plan.iteration + k
                rounds = [tuple(map(tuple, t)) for t in touches]
                reads, writes = ([RoundRecord(it, r, d, t) for r, t in enumerate(rounds)] for d in DIRECTIONS)
                yield from reads
                for st, lane1, lane2, x1, x2, y1, y2, tw in stages:
                    for j, (l1, l2) in enumerate(zip(lane1, lane2)):
                        yield BuRecord(it, j // p, st.stage, j % p >> 1, j % p, st.mode, l1, l2,
                                       x1[k][j], x2[k][j], tw[k][j], y1[k][j], y2[k][j])
                yield from writes


def _run_stages(ctx, local, half, values=None, twiddles=None):
    """Every arithmetic stage over all passes of a half at once.

    local[k] is pass k's n_part elements.  A stage with stride t splits
    each row into blocks of 2t; a block's t butterflies pair its two
    halves and share one twiddle, the table entry of the block's low end.
    A traced run passes two lists: `values` receives a copy of the half
    before each stage and after the last one, `twiddles` each stage's
    (passes, blocks) table entries, with no columns for a swap stage.
    """
    count, n_part = local.shape
    scratch = np.empty((5, count * n_part // 2), np.uint64)
    for st in half.stages:
        if values is not None:
            values.append(local.copy())
        wi = np.empty((count, 0), np.int64)  # a swap stage forwards its pairs untouched
        if st.mode == BUTTERFLY:
            span = n_part >> st.stage
            blocks = local.reshape(count, n_part // span, 2, span // 2)
            wi = half.twiddle_index(st, np.arange(0, n_part, span))
            x, y = blocks[:, :, 0], blocks[:, :, 1]
            w, ws = ctx.fwd_values[wi, None], ctx.fwd_shoups[wi, None]
            shoup_butterfly(x, y, w, ws, ctx.q, scratch.reshape((5,) + y.shape))
        if twiddles is not None:
            twiddles.append(wi)
    if values is not None:
        values.append(local.copy())


def run_transform(poly: Polynomial, config: EngineConfig, ctx, trace: bool = False):
    """Run the full engine on a polynomial; returns (result, trace or None).

    The result equals reference_forward_ntt(poly) exactly; the optional
    trace carries every buffer round and every lane operation for auditing.
    """
    if ctx.n != config.n or poly.ctx.n != config.n or poly.ctx.q != ctx.q:
        raise ContextMismatch(
            f"poly (n={poly.ctx.n}, q={poly.ctx.q}) vs config n={config.n}, ctx q={ctx.q}"
        )
    lay = map_layout(config.n, config.n_part, config.p)
    banks = np.array(poly.coeffs, np.uint64)[lay.arrangement]  # sequential burst into the banks
    plan = pass_plan(config.n, config.n_part, config.p)
    halves = []
    for half in plan:
        # the passes of a half touch disjoint elements: one (passes, n_part) array
        where = lay.bank_of(half.indices), lay.offset_of(half.indices)
        local = banks[where]
        values, twiddles = ([], []) if trace else (None, None)
        _run_stages(ctx, local, half, values, twiddles)
        if trace:
            touches = round_touches(*where, half.indices, half.arrival, 2 * config.p)
            halves.append(HalfTrace(touches, tuple(values), tuple(twiddles)))
        banks[where] = local
    out = np.empty(config.n, np.uint64)
    out[lay.arrangement] = banks
    return Polynomial(out.tolist(), ctx), SimTrace(config, plan, tuple(halves)) if trace else None


@dataclass
class AuditReport:
    """Cross-module consistency findings over one trace."""

    rounds_seen: int
    round_width_errors: list
    swap_arith_errors: list
    twiddle_mismatches: list
    bank_pattern_mismatches: list

    @property
    def ok(self) -> bool:
        return not (
            self.round_width_errors
            or self.swap_arith_errors
            or self.twiddle_mismatches
            or self.bank_pattern_mismatches
        )

    def to_dict(self) -> dict:
        return {
            "rounds_seen": self.rounds_seen,
            "round_width_errors": self.round_width_errors,
            "swap_arith_errors": self.swap_arith_errors,
            "twiddle_mismatches": self.twiddle_mismatches,
            "bank_pattern_mismatches": self.bank_pattern_mismatches,
            "ok": self.ok,
        }


@lru_cache(maxsize=4)
def _schedule_touches(n: int, n_part: int, p: int) -> np.ndarray:
    """Every scheduled round as one int64 array, (iterations, rounds, 2p, 3).

    Entry [i, r] holds the (bank, offset, index) triples of iteration i's
    r-th round, read and written alike, sorted by index.  It depends on the
    geometry alone, so repeated audits share one copy.
    """
    lay = map_layout(n, n_part, p)
    return _by_index(np.concatenate([
        round_touches(lay.bank_of(half.indices), lay.offset_of(half.indices), half.indices, half.arrival, 2 * p)
        for half in pass_plan(n, n_part, p)
    ]))


def _by_index(touches):
    """Each round's (bank, offset, index) triples sorted by index."""
    order = np.argsort(touches[..., 2], axis=-1)
    return np.take_along_axis(touches, order[..., None], axis=-2)


def _round_keys(iterations, mask) -> list:
    """The read and write keys of the (passes, rounds) positions set in mask, pass by pass."""
    k, d, r = np.nonzero(np.broadcast_to(mask[:, None], (len(mask), 2, mask.shape[1])))
    return [
        {"iteration": it, "round": rnd, "direction": DIRECTIONS[dd]}
        for it, dd, rnd in zip(iterations[k].tolist(), d.tolist(), r.tolist())
    ]


def audit_trace(trace: SimTrace, config: EngineConfig, schedule: ModeSchedule, assignment) -> AuditReport:
    """Check a trace against the declared access and twiddle contracts.

    (a) every buffer round moves exactly 2p elements; (b) swap-mode lanes
    perform no multiplications and no value changes; (c) per-slot twiddle
    consumption equals the arranged assignment; (d) per-round bank sets
    match the access schedule, which names every round the trace must hold
    exactly once.  A round's key is its position in its half's arrays:
    scheduled positions the trace lacks are reported with "recorded": 0,
    positions the schedule does not name as bank mismatches.  The checks
    compare each half's arrays at once, a round's elements sorted by index.
    Rounds of the wrong width are reported under (a) only.
    """
    p, rounds = config.p, config.rounds_per_iteration
    expected = _schedule_touches(config.n, config.n_part, p)
    width_errors, swap_errors, twiddle_mismatches, bank_mismatches, missing = [], [], [], [], []
    for h, plan in enumerate(pass_plan(config.n, config.n_part, p)):
        planned = len(plan.indices)
        if h >= len(trace.halves):
            missing += _round_keys(plan.iteration + np.arange(planned), np.ones((planned, rounds), bool))
            continue
        half = trace.halves[h]
        count, got, width = half.touches.shape[:3]
        its = plan.iteration + np.arange(max(count, planned))
        c, r = min(count, planned), min(got, rounds)
        lacking = np.ones((planned, rounds), bool)
        lacking[:c, :r] = False
        missing += _round_keys(its, lacking)
        if width != 2 * p:
            width_errors += [{**key, "touches": width} for key in _round_keys(its, np.ones((count, got), bool))]
        else:
            wrong = np.ones((count, got), bool)  # positions beyond the schedule stay wrong
            wrong[:c, :r] = (_by_index(half.touches[:c, :r]) != expected[its[:c], :r]).any(axis=(-2, -1))
            bank_mismatches += _round_keys(its, wrong)

        its = its[:c]
        assigned = assignment.indices[its]  # (passes, s_part, units, slot length)
        consumed = np.full_like(assigned, NO_TWIDDLE)
        changed = np.zeros((c, len(plan.stages), config.n_part // 2), bool)  # swap lanes only
        for st in plan.stages:
            _, _, x1, x2, tw, y1, y2 = half.lanes(st)
            if st.mode == SWAP:
                changed[:, st.stage] = ((x1 != y1) | (x2 != y2) | (tw is not None))[:c]
            elif tw is not None:
                consumed[:, st.stage] = unit_slots(tw[:c], p)
        k, s, j = np.nonzero(changed)
        swap_errors += [{"iteration": it, "stage": st, "bu": bu}
                        for it, st, bu in zip(its[k].tolist(), s.tolist(), (j % p).tolist())]
        for k, s, u in zip(*np.nonzero((consumed != assigned).any(axis=-1))):
            twiddle_mismatches.append({"slot": (int(its[k]), int(s), int(u)),
                                       "assigned": slot_list(assigned[k, s, u]),
                                       "consumed": slot_list(consumed[k, s, u])})

    expected_rounds = schedule.iterations * rounds * 2
    if trace.rounds_executed != expected_rounds:
        width_errors.append({"rounds_executed": trace.rounds_executed, "expected": expected_rounds})
    return AuditReport(
        rounds_seen=trace.rounds_executed,
        round_width_errors=width_errors,
        swap_arith_errors=swap_errors,
        twiddle_mismatches=twiddle_mismatches,
        bank_pattern_mismatches=bank_mismatches + [{**key, "recorded": 0} for key in missing],
    )
