"""Per-slot twiddle factor assignment with replication accounting.

Every (iteration, stage, unit) slot of the engine receives its own private
list of twiddle table indices, ordered exactly as its two butterfly lanes
consume them round by round.  Swap-mode slots carry empty lists.  Because
each unit reads only its own copy, no two units contend for a table port;
the price is replication, which replication_report quantifies.

The table indices refer to the bit-reversed forward table of the full
n-point context.  A single n_part-point array pass touches exactly
n_part - 1 distinct entries (indices 1..n_part-1): the same working set in
every first-half pass.  Second-half passes walk the remaining entries.
The indices are read off fragmentation.pass_plan, the plan the engine runs.
"""

from dataclasses import dataclass

from .dataflow import EngineConfig, ModeSchedule
from .fragmentation import BUTTERFLY, BadConfig, pass_plan
from .modmath import ModulusContext


@dataclass
class TwiddleAssignment:
    """grid[(iteration, stage, unit)] -> table indices in consumption order."""

    config: EngineConfig
    grid: dict

    def slot(self, iteration: int, stage: int, unit: int) -> list:
        return self.grid[(iteration, stage, unit)]


@dataclass
class ReplicationStats:
    copies: int  # sum of per-slot unique factor counts
    distinct: int  # distinct factors one array pass needs (first-half union)
    ratio: float  # copies / distinct
    store_copies: int  # per-(stage, unit) union across iterations, closer to table RAM
    transform_distinct: int  # distinct factors across the whole transform


def arrange_twiddles(
    config: EngineConfig, schedule: ModeSchedule, ctx: ModulusContext
) -> TwiddleAssignment:
    """Build the full (iteration, stage, unit) -> indices grid."""
    if ctx.n != config.n:
        raise BadConfig(f"context n={ctx.n} does not match config n={config.n}")
    if schedule.iterations != config.iterations:
        raise BadConfig("schedule does not match config")

    units = config.p // 2
    grid: dict = {}
    for ps in pass_plan(config.n, config.n_part, config.p):
        for st in ps.stages:
            lists = [[] for _ in range(units)]
            if st.mode == BUTTERFLY:
                for lows in st.rounds:
                    for b, j in enumerate(lows):
                        lists[b >> 1].append(st.wbase + (j >> st.shift))
            for u, idxs in enumerate(lists):
                grid[(ps.iteration, st.stage, u)] = idxs
    return TwiddleAssignment(config, grid)


def distinct_engine_factors(assignment: TwiddleAssignment) -> set:
    """Union of table indices one n_part-point array pass consumes.

    Taken over the first-half slots, whose working set is the same in every
    pass; expected cardinality is n_part - 1.
    """
    m = assignment.config.n // assignment.config.n_part
    first_half = m if m > 1 else 1
    out: set = set()
    for (it, _s, _u), idxs in assignment.grid.items():
        if it < first_half:
            out.update(idxs)
    return out


def replication_report(assignment: TwiddleAssignment) -> ReplicationStats:
    """Count stored copies, the per-pass distinct set, and their ratio."""
    copies = 0
    store: dict = {}
    transform: set = set()
    for (it, s, u), idxs in assignment.grid.items():
        uniq = set(idxs)
        copies += len(uniq)
        store.setdefault((s, u), set()).update(uniq)
        transform.update(uniq)
    distinct = len(distinct_engine_factors(assignment))
    store_copies = sum(len(v) for v in store.values())
    ratio = copies / distinct if distinct else 0.0
    return ReplicationStats(
        copies=copies,
        distinct=distinct,
        ratio=ratio,
        store_copies=store_copies,
        transform_distinct=len(transform),
    )
