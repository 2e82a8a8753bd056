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
and scattered back after its stages.  Untraced, every arithmetic stage is
one modmath.shoup_butterfly over that whole array.  Traced, the stages
stay scalar, one butterfly() per lane, because every lane operation yields
a record.  The golden model reference.forward_values stays scalar too: it
is faster than array code at the small n where it dominates, and it keeps
the equivalence check independent of the engine's kernel.

Bit-exactness against reference.forward_values is the binding contract
and is what the test suite enforces across the configuration sweep.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

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
        if self.freq_mhz <= 0 or self.hbm_gbps <= 0:
            raise BadConfig("freq_mhz and hbm_gbps must be positive")

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


@dataclass
class RoundRecord:
    iteration: int
    round: int
    direction: str
    touches: list  # (bank, offset, global_index)


@dataclass
class BuRecord:
    iteration: int
    round: int
    stage: int
    nttu: int
    bu: int
    mode: str
    lanes: tuple  # within-round stream positions of the two inputs
    inputs: tuple
    twiddle_index: int | None
    outputs: tuple


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

    def _record_rounds(self, ps, direction):
        tr = self.trace
        lay = self.layout
        width = 2 * self.config.p
        for c in range(0, len(ps.indices), width):
            chunk = ps.indices[c : c + width]
            touches = [(lay.bank_of(i), i // lay.banks, i) for i in chunk]
            tr.rounds.append(RoundRecord(ps.iteration, c // width, direction, touches))
            tr.rounds_executed += 1
            if direction == READ:
                tr.elements_read += len(chunk)
            else:
                tr.elements_written += len(chunk)

    # stage execution -----------------------------------------------------

    def _run_stages(self, local, stages, wbase):
        """Every arithmetic stage over all passes of a half at once.

        local[k] is pass k's n_part elements.  A stage with stride t splits
        each row into blocks of 2t; a block's t butterflies pair its two
        halves and share one twiddle, entry wbase[k, stage] + (low >> shift).
        """
        ctx = self.ctx
        count, n_part = local.shape
        scratch = np.empty((5, count * n_part // 2), np.uint64)
        for st in stages:
            if st.mode != BUTTERFLY:
                continue  # swap mode forwards its pairs untouched
            span = n_part >> st.stage
            blocks = local.reshape(count, n_part // span, 2, span // 2)
            wi = wbase[:, st.stage, None] + (np.arange(0, n_part, span) >> st.shift)
            x, y = blocks[:, :, 0], blocks[:, :, 1]
            w, ws = ctx.fwd_values[wi, None], ctx.fwd_shoups[wi, None]
            shoup_butterfly(x, y, w, ws, ctx.q, scratch.reshape((5,) + y.shape))

    def _run_stage_traced(self, local, iteration, st):
        """Stage execution with one record per lane operation.

        All butterflies of a block share one table entry, so indexing by
        the low element j gives the same twiddle as indexing by block start.
        butterfly() takes a ShoupPair, so one is built per block.
        """
        q = self.ctx.q
        s = st.stage
        stride = self.config.n_part >> (s + 1)
        w = wi = None
        for rnd, lows in enumerate(st.rounds):
            members = sorted(lows + [j + stride for j in lows])
            lane = {j: pos for pos, j in enumerate(members)}
            for b, j in enumerate(lows):
                x1 = local[j]
                x2 = local[j + stride]
                y1, y2 = x1, x2
                if st.mode == BUTTERFLY:
                    k = st.wbase + (j >> st.shift)
                    if k != wi:
                        wi = k
                        w = ShoupPair(int(self.ctx.fwd_values[k]), int(self.ctx.fwd_shoups[k]))
                    y1, y2 = butterfly(x1, x2, w, BUTTERFLY, q)
                    local[j] = y1
                    local[j + stride] = y2
                self.trace.bus.append(
                    BuRecord(
                        iteration=iteration,
                        round=rnd,
                        stage=s,
                        nttu=b >> 1,
                        bu=b,
                        mode=st.mode,
                        lanes=(lane[j], lane[j + stride]),
                        inputs=(x1, x2),
                        twiddle_index=wi,
                        outputs=(y1, y2),
                    )
                )

    def _run_half(self, banks, passes, count):
        """Gather, stage pipeline and scatter of `count` independent passes.

        The passes of one iteration half touch disjoint elements, so they run
        side by side as one (count, n_part) array: row k holds pass k's
        elements at their local positions, gathered from and scattered back
        to the banks through the XOR mapping.  The passes share stage modes
        and shifts and differ only in wbase.  A traced run executes each
        pass's stages with scalar arithmetic, one record per lane.
        """
        cfg = self.config
        lay = self.layout
        index = np.empty((count, cfg.n_part), np.int64)
        wbase = np.empty((count, cfg.s_part), np.int64)
        traced = []
        for k, ps in enumerate(passes):
            index[k, ps.positions] = ps.indices
            wbase[k] = [st.wbase for st in ps.stages]
            if self.trace is not None:
                traced.append(ps)
        where = lay.bank_of(index), lay.offset_of(index)
        local = banks[where]
        if self.trace is None:
            self._run_stages(local, ps.stages, wbase)
        else:
            rows = local.tolist()
            for row, ps in zip(rows, traced):
                self._record_rounds(ps, READ)
                for st in ps.stages:
                    self._run_stage_traced(row, ps.iteration, st)
                self._record_rounds(ps, WRITE)
            local = np.array(rows, np.uint64)
        banks[where] = local

    def run(self, coeffs):
        cfg = self.config
        arrangement = self.layout.arrangement
        banks = np.array(coeffs, np.uint64)[arrangement]  # sequential burst into the banks
        plan = pass_plan(cfg.n, cfg.n_part, cfg.p)
        first_half = cfg.n // cfg.n_part
        for count in (first_half, cfg.iterations - first_half):
            if count:
                self._run_half(banks, islice(plan, count), count)
        out = np.empty(cfg.n, np.uint64)
        out[arrangement] = banks
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
    match the standalone access schedule enumeration.
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
    for rec in trace.rounds:
        row = rows.get((rec.iteration, rec.round, rec.direction))
        if row is None or frozenset(rec.touches) != frozenset(map(tuple, touches[row].tolist())):
            bank_mismatches.append(
                {"iteration": rec.iteration, "round": rec.round, "direction": rec.direction}
            )

    return AuditReport(
        rounds_seen=trace.rounds_executed,
        round_width_errors=width_errors,
        swap_arith_errors=swap_errors,
        twiddle_mismatches=twiddle_mismatches,
        bank_pattern_mismatches=bank_mismatches,
    )
