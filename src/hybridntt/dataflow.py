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
stage is one modmath.shoup_butterfly over that whole array; a traced run
also copies the array around each stage and builds its lane records from
those copies.  Trace records are flat NamedTuples built in bulk, one
map(BuRecord._make, zip(...)) per pass and stage, so a lane record is a
single object for the cyclic garbage collector.  The golden model
reference.forward_values stays scalar: it is faster than array code at
the small n where it dominates, and it keeps the equivalence check
independent of the engine's kernel.

Bit-exactness against reference.forward_values is the binding contract
and is what the test suite enforces across the configuration sweep.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .fragmentation import (
    BUTTERFLY,
    READ,
    SWAP,
    WRITE,
    BadConfig,
    ModeSchedule,
    access_schedule,
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
    """One lane operation, its pairs held as flat fields.

    A trace holds one record per lane, so each record is one tracked
    object rather than four (the record and three pair tuples).
    """

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


@dataclass
class SimTrace:
    config: EngineConfig
    rounds: list = field(default_factory=list)
    bus: list = field(default_factory=list)
    rounds_executed: int = 0
    elements_read: int = 0
    elements_written: int = 0


class _Engine:
    """Single-owner simulator instance; one transform per run() call."""

    def __init__(self, config: EngineConfig, ctx, trace: bool):
        if ctx.n != config.n:
            raise ContextMismatch(f"context n={ctx.n}, config n={config.n}")
        self.config = config
        self.ctx = ctx
        self.layout = map_layout(config.n, config.n_part, config.p)
        self.trace = SimTrace(config) if trace else None

    # stage execution -----------------------------------------------------

    def _run_stages(self, local, half, snapshots=None):
        """Every arithmetic stage over all passes of a half at once.

        local[k] is pass k's n_part elements.  A stage with stride t splits
        each row into blocks of 2t; a block's t butterflies pair its two
        halves and share one twiddle, the table entry of the block's low end.
        A traced run passes `snapshots`, which receives a copy of the half
        before each stage and after the last one.
        """
        ctx = self.ctx
        count, n_part = local.shape
        scratch = np.empty((5, count * n_part // 2), np.uint64)
        for st in half.stages:
            if snapshots is not None:
                snapshots.append(local.copy())
            if st.mode != BUTTERFLY:
                continue  # swap mode forwards its pairs untouched
            span = n_part >> st.stage
            blocks = local.reshape(count, n_part // span, 2, span // 2)
            wi = half.twiddle_index(st, np.arange(0, n_part, span))
            x, y = blocks[:, :, 0], blocks[:, :, 1]
            w, ws = ctx.fwd_values[wi, None], ctx.fwd_shoups[wi, None]
            shoup_butterfly(x, y, w, ws, ctx.q, scratch.reshape((5,) + y.shape))
        if snapshots is not None:
            snapshots.append(local.copy())

    def _record_half(self, half, where, snapshots):
        """Append the half's records, pass by pass: reads, lanes, writes.

        The rounds come from the bank and offset arrays the gather used,
        the lane records from the snapshots around each stage.  A lane's
        position is its rank among the 2p elements of its round.  A pass's
        lane records of one stage are zipped from per-lane columns, with
        itertools.repeat for the fields that stay constant.
        """
        tr = self.trace
        p = self.config.p
        count, n_part = half.indices.shape
        touches = round_touches(*where, half.indices, half.arrival, 2 * p)
        per_round = n_part // (2 * p)
        rounds = [r for r in range(per_round) for _ in range(p)]
        bus = list(range(p)) * per_round
        nttus = [b >> 1 for b in bus]
        stages = []
        for st, before, after in zip(half.stages, snapshots, snapshots[1:]):
            lows = st.rounds
            highs = lows + (n_part >> (st.stage + 1))
            rank = np.argsort(np.argsort(np.hstack([lows, highs]), axis=1), axis=1)
            lanes = rank[:, :p].ravel().tolist(), rank[:, p:].ravel().tolist()
            lows, highs = lows.ravel(), highs.ravel()
            twiddles = (half.twiddle_index(st, lows).tolist() if st.mode == BUTTERFLY
                        else [[None] * len(lows)] * count)
            values = [a[:, j].tolist() for a in (before, after) for j in (lows, highs)]
            stages.append((st, lanes, twiddles, values))
        for k, pass_rounds in enumerate(touches):
            it = half.iteration + k
            pass_rounds = list(map(tuple, pass_rounds))
            tr.rounds.extend(RoundRecord(it, r, READ, t) for r, t in enumerate(pass_rounds))
            for st, (lane1, lane2), twiddles, (x1, x2, y1, y2) in stages:
                tr.bus.extend(map(BuRecord._make, zip(
                    repeat(it), rounds, repeat(st.stage), nttus, bus, repeat(st.mode),
                    lane1, lane2, x1[k], x2[k], twiddles[k], y1[k], y2[k],
                )))
            tr.rounds.extend(RoundRecord(it, r, WRITE, t) for r, t in enumerate(pass_rounds))
        tr.rounds_executed += 2 * sum(map(len, touches))
        tr.elements_read += count * n_part
        tr.elements_written += count * n_part

    def run(self, coeffs):
        cfg = self.config
        lay = self.layout
        banks = np.array(coeffs, np.uint64)[lay.arrangement]  # sequential burst into the banks
        for half in pass_plan(cfg.n, cfg.n_part, cfg.p):
            # the passes of a half touch disjoint elements: one (passes, n_part) array
            where = lay.bank_of(half.indices), lay.offset_of(half.indices)
            local = banks[where]
            snapshots = None if self.trace is None else []
            self._run_stages(local, half, snapshots)
            if snapshots is not None:
                self._record_half(half, where, snapshots)
            banks[where] = local
        out = np.empty(cfg.n, np.uint64)
        out[lay.arrangement] = banks
        return out.tolist()


def run_transform(poly: Polynomial, config: EngineConfig, ctx, trace: bool = False):
    """Run the full engine on a polynomial; returns (result, trace or None).

    The result equals reference_forward_ntt(poly) exactly; the optional
    trace carries every buffer round and every lane operation for auditing.
    """
    if ctx.n != config.n or poly.ctx.n != config.n or poly.ctx.q != ctx.q:
        raise ContextMismatch(
            f"poly (n={poly.ctx.n}, q={poly.ctx.q}) vs config n={config.n}, ctx q={ctx.q}"
        )
    engine = _Engine(config, ctx, trace)
    out = engine.run(poly.coeffs)
    return Polynomial(out, ctx), engine.trace


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


_ROUND_KEY = ("iteration", "round", "direction")


@lru_cache(maxsize=4)
def _schedule_touches(n: int, n_part: int, p: int) -> tuple:
    """The access schedule as ({(iteration, round, direction): row}, touches[row]).

    It depends on the geometry alone, so repeated audits share one copy,
    kept as one int64 array of (bank, offset, index) triples.
    """
    config = EngineConfig(n, n_part, p)
    rounds = access_schedule(map_layout(n, n_part, p), config, mode_schedule(n, n_part))
    rows = {(r.iteration, r.round, r.direction): k for k, r in enumerate(rounds)}
    return rows, np.array([r.touches for r in rounds], np.int64)


def audit_trace(trace: SimTrace, config: EngineConfig, schedule: ModeSchedule, assignment) -> AuditReport:
    """Check a trace against the declared access and twiddle contracts.

    (a) every buffer round moves exactly 2p elements; (b) swap-mode lanes
    perform no multiplications and no value changes; (c) per-slot twiddle
    consumption equals the arranged assignment; (d) per-round bank sets
    match the standalone access schedule enumeration, which names every
    round the trace must hold exactly once.
    """
    width = 2 * config.p
    width_errors = []
    for rec in trace.rounds:
        if len(rec.touches) != width:
            width_errors.append(
                {
                    "iteration": rec.iteration,
                    "round": rec.round,
                    "direction": rec.direction,
                    "touches": len(rec.touches),
                }
            )
    expected_rounds = schedule.iterations * config.rounds_per_iteration * 2
    if trace.rounds_executed != expected_rounds:
        width_errors.append(
            {"rounds_executed": trace.rounds_executed, "expected": expected_rounds}
        )

    swap_errors = []
    consumed = {}
    for rec in trace.bus:
        if rec.mode == SWAP:
            if rec.twiddle_index is not None or rec.outputs != rec.inputs:
                swap_errors.append(
                    {"iteration": rec.iteration, "stage": rec.stage, "bu": rec.bu}
                )
        else:
            consumed.setdefault((rec.iteration, rec.stage, rec.nttu), []).append(
                rec.twiddle_index
            )

    twiddle_mismatches = []
    for slot, assigned in assignment.grid.items():
        got = consumed.pop(slot, [])
        if got != list(assigned):
            twiddle_mismatches.append({"slot": slot, "assigned": list(assigned), "consumed": got})
    for slot, got in consumed.items():
        twiddle_mismatches.append({"slot": slot, "assigned": None, "consumed": got})

    rows, touches = _schedule_touches(config.n, config.n_part, config.p)
    bank_mismatches = []
    recorded = Counter()
    for rec in trace.rounds:
        key = (rec.iteration, rec.round, rec.direction)
        recorded[key] += 1
        row = rows.get(key)
        if row is None or frozenset(rec.touches) != frozenset(map(tuple, touches[row].tolist())):
            bank_mismatches.append(dict(zip(_ROUND_KEY, key)))
    for key in rows:  # each scheduled round exactly once
        if recorded[key] != 1:
            bank_mismatches.append({**dict(zip(_ROUND_KEY, key)), "recorded": recorded[key]})

    return AuditReport(
        rounds_seen=trace.rounds_executed,
        round_width_errors=width_errors,
        swap_arith_errors=swap_errors,
        twiddle_mismatches=twiddle_mismatches,
        bank_pattern_mismatches=bank_mismatches,
    )
