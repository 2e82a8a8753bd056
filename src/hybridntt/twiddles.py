"""Per-slot twiddle factor assignment with replication accounting.

Every (iteration, stage, unit) slot of the engine receives its own private
list of twiddle table indices, ordered exactly as its two butterfly lanes
consume them round by round; all slots form one array, in which swap-mode
slots hold NO_TWIDDLE and read as empty lists.  Because
each unit reads only its own copy, no two units contend for a table port;
the price is replication, which replication_report quantifies.

The table indices refer to the bit-reversed forward table of the full
n-point context.  A single n_part-point array pass touches exactly
n_part - 1 distinct entries (indices 1..n_part-1): the same working set in
every first-half pass.  Second-half passes walk the remaining entries.
The indices are read off fragmentation.pass_plan, the plan the engine runs.
"""

from dataclasses import dataclass

import numpy as np

from .dataflow import EngineConfig, ModeSchedule, slot_list, unit_slots
from .fragmentation import BUTTERFLY, NO_TWIDDLE, BadConfig, pass_plan
from .modmath import ModulusContext


@dataclass
class TwiddleAssignment:
    """indices[iteration, stage, unit] -> table indices in consumption order.

    A swap-mode slot consumes nothing; its row holds NO_TWIDDLE.
    """

    config: EngineConfig
    indices: np.ndarray  # (iterations, s_part, p/2, n_part/p) int64

    def slot(self, iteration: int, stage: int, unit: int) -> list:
        return slot_list(self.indices[iteration, stage, unit])

    @property
    def grid(self) -> dict:
        """{(iteration, stage, unit): slot list}, keys in pass-major order."""
        return {key: self.slot(*key) for key in np.ndindex(self.indices.shape[:3])}


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

    shape = (config.iterations, config.s_part, config.p // 2, config.n_part // config.p)
    indices = np.full(shape, NO_TWIDDLE, np.int64)
    for half in pass_plan(config.n, config.n_part, config.p):
        passes = slice(half.iteration, half.iteration + len(half.indices))
        for st in half.stages:
            if st.mode == BUTTERFLY:
                indices[passes, st.stage] = unit_slots(half.twiddle_index(st, st.rounds.ravel()), config.p)
    return TwiddleAssignment(config, indices)


def distinct_engine_factors(assignment: TwiddleAssignment) -> set:
    """Union of table indices one n_part-point array pass consumes.

    Taken over the first-half slots, whose working set is the same in every
    pass and holds no swap slot; expected cardinality is n_part - 1.
    """
    m = assignment.config.n // assignment.config.n_part  # first-half passes
    return set(np.unique(assignment.indices[:m]).tolist())


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
