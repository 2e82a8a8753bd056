"""Analytical performance model: intensity, cycles, throughput, bandwidth.

Work is counted in butterfly operations, (n/2)*log2(n) per transform, and
traffic in bytes of `bytes_per_element` words.  Three architecture styles
are compared:

* stage-based: every butterfly round-trips its operands through memory.
  Per butterfly that is 2 reads + 2 writes + w twiddle fetches, so the
  intensity 1/((4+w)*b) is independent of n.
* pipeline-based: p chained stages reuse data on the wire; one element
  pass costs (2+w)*b bytes and serves p/2 butterflies, so intensity grows
  linearly with p (and p is bounded by log2 n for a single pass).
* hybrid: the whole polynomial is resident on chip between the two
  iteration halves, so external traffic per transform is one load plus one
  store, 2*n*b bytes, with twiddle traffic amortized (tables are loaded
  once per parameter set and reused).  Intensity is log2(n)/(4*b) at the
  external-memory level; the on-chip buffer level is also reported since
  the buffer sees each element four times.

The hybrid compute ceiling comes from the cycle model rather than a raw
unit count: every pass occupies the datapath for n_part/(2p) rounds even
when leading stages are in swap mode, so an n-point transform takes
iterations * n_part/(2p) = n/p steady-state cycles (n/(2p) for the
single-pass case).  Fill/drain of the stage pipeline adds a declared
overhead term F, by default s_part stages times a fixed per-unit depth;
the ceiling is quoted at F = 0.
"""

import csv
import math
from dataclasses import dataclass
from enum import Enum

from .dataflow import EngineConfig
from .fragmentation import BadConfig

# assumed register depth of one fully pipelined compute unit; only the
# degraded (F > 0) estimate depends on it
UNIT_PIPELINE_DEPTH = 12

COMPUTE = "compute"
MEMORY = "memory"


class ArchKind(Enum):
    STAGE_BASED = "stage"
    PIPELINE_BASED = "pipeline"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class RooflineParams:
    bytes_per_element: int = 8
    twiddles_per_butterfly: float = 1.0
    hbm_gbps: float = 460.0
    freq_mhz: float = 300.0
    twiddle_amortized_bytes: float = 0.0  # external twiddle bytes charged per transform

    def __post_init__(self):
        sizes = (self.bytes_per_element, self.hbm_gbps, self.freq_mhz)
        costs = (self.twiddles_per_butterfly, self.twiddle_amortized_bytes)
        if not all(map(math.isfinite, sizes + costs)):
            raise BadConfig("roofline parameters must be finite")
        if min(sizes) <= 0:
            raise BadConfig("bytes_per_element, hbm_gbps and freq_mhz must be positive")
        if min(costs) < 0:
            raise BadConfig("twiddle_amortized_bytes and twiddles_per_butterfly must be >= 0")


def butterflies_per_transform(n: int) -> int:
    return (n // 2) * (n.bit_length() - 1)


def intensity(kind: ArchKind, n: int, p: int, params: RooflineParams) -> float:
    """Butterfly operations per byte of external traffic."""
    b = params.bytes_per_element
    w = params.twiddles_per_butterfly
    if kind is ArchKind.STAGE_BASED:
        return 1.0 / ((4.0 + w) * b)
    if kind is ArchKind.PIPELINE_BASED:
        return (p / 2.0) / ((2.0 + w) * b)
    work = butterflies_per_transform(n)
    traffic = 2.0 * n * b + params.twiddle_amortized_bytes
    return work / traffic


def uram_intensity(config: EngineConfig, params: RooflineParams) -> float:
    """Hybrid intensity at the on-chip buffer, which sees 2 accesses per pass."""
    b = params.bytes_per_element
    passes = config.iterations
    traffic = 2.0 * passes * config.n_part * b
    return butterflies_per_transform(config.n) / traffic


def default_fill_drain(config: EngineConfig) -> int:
    return config.s_part * UNIT_PIPELINE_DEPTH


def cycle_estimate(config: EngineConfig, fill_drain: int | None = None) -> int:
    """Steady-state rounds plus the declared fill/drain overhead."""
    steady = config.iterations * config.rounds_per_iteration
    f = default_fill_drain(config) if fill_drain is None else fill_drain
    return steady + f


def peak_throughput(config: EngineConfig, fill_drain: int = 0) -> float:
    """Transforms per second; fill_drain=0 gives the model ceiling."""
    return config.freq_mhz * 1e6 / cycle_estimate(config, fill_drain)


@dataclass
class BandwidthDemand:
    gbps: float
    memory_bound: bool


def bandwidth_demand(config: EngineConfig, achieved_ops: float, params: RooflineParams | None = None) -> BandwidthDemand:
    """External traffic implied by a given transform rate.

    demand = achieved_ops * (2*n*b + amortized twiddle bytes); flagged
    memory bound when it exceeds the configured link bandwidth.
    """
    if not math.isfinite(achieved_ops) or achieved_ops < 0:
        raise BadConfig("achieved_ops must be finite and nonnegative")
    if params is None:
        params = RooflineParams(hbm_gbps=config.hbm_gbps, freq_mhz=config.freq_mhz)
    per_transform = 2.0 * config.n * params.bytes_per_element + params.twiddle_amortized_bytes
    gbps = achieved_ops * per_transform / 1e9
    return BandwidthDemand(gbps=gbps, memory_bound=gbps > params.hbm_gbps)


@dataclass
class PerfReport:
    arch: ArchKind
    n: int
    p: int
    intensity_ops_per_byte: float
    compute_ceiling_tps: float  # transforms/s at the compute roof
    memory_ceiling_tps: float  # transforms/s at the bandwidth roof
    peak_throughput_ops: float  # min of the two ceilings
    cycle_estimate: int | None  # hybrid only
    bandwidth_demand_gbps: float  # demand when running at peak_throughput_ops
    bound: str

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["arch"] = self.arch.value
        return d


def analyze(
    kind: ArchKind,
    n: int,
    p: int,
    params: RooflineParams,
    n_part: int = 256,
) -> PerfReport:
    """One roofline row; the hybrid row uses the cycle model for compute."""
    work = butterflies_per_transform(n)
    i = intensity(kind, n, p, params)
    freq = params.freq_mhz * 1e6
    bw = params.hbm_gbps * 1e9

    if kind is ArchKind.HYBRID:
        config = EngineConfig(
            n=n, n_part=n_part, p=p, freq_mhz=params.freq_mhz, hbm_gbps=params.hbm_gbps
        )
        compute_tps = peak_throughput(config, fill_drain=0)
        cycles = cycle_estimate(config, fill_drain=0)
        traffic = 2.0 * n * params.bytes_per_element + params.twiddle_amortized_bytes
        memory_tps = bw / traffic
    else:
        compute_tps = p * freq / work
        memory_tps = bw * i / work
        cycles = None

    peak = min(compute_tps, memory_tps)
    bound = MEMORY if memory_tps < compute_tps else COMPUTE
    demand = peak * (2.0 * n * params.bytes_per_element + params.twiddle_amortized_bytes) / 1e9
    return PerfReport(
        arch=kind,
        n=n,
        p=p,
        intensity_ops_per_byte=i,
        compute_ceiling_tps=compute_tps,
        memory_ceiling_tps=memory_tps,
        peak_throughput_ops=peak,
        cycle_estimate=cycles,
        bandwidth_demand_gbps=demand,
        bound=bound,
    )


def roofline_table(
    kinds: list,
    n_values: list,
    p_values: list,
    params: RooflineParams,
    n_part: int = 256,
) -> list:
    """Sweep (kind, n, p) and return PerfReport rows."""
    if not kinds or not n_values or not p_values:
        raise BadConfig("sweeps must be non-empty")
    rows = []
    for kind in kinds:
        for n in n_values:
            if n < 2:
                raise BadConfig(f"n={n} must be at least 2")
            if not math.log2(n).is_integer():
                raise BadConfig(f"n={n} must be a power of two")
            for p in p_values:
                rows.append(analyze(kind, int(n), int(p), params, n_part=n_part))
    return rows


def write_roofline_csv(rows: list, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["arch", "n", "p", "intensity_ops_per_byte", "compute_ceiling_tps",
             "memory_ceiling_tps", "peak_throughput_ops", "cycle_estimate",
             "bandwidth_demand_gbps", "bound"]
        )
        for r in rows:
            writer.writerow(
                [r.arch.value, r.n, r.p, repr(r.intensity_ops_per_byte),
                 repr(r.compute_ceiling_tps), repr(r.memory_ceiling_tps),
                 repr(r.peak_throughput_ops),
                 "" if r.cycle_estimate is None else r.cycle_estimate,
                 repr(r.bandwidth_demand_gbps), r.bound]
            )
