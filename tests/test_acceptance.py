"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines;
any assertion failure marks the corresponding criterion red.
"""

import time

from hybridntt.cli import _write_trace_jsonl
from hybridntt.dataflow import (
    EngineConfig,
    audit_trace,
    classify_stages,
    mode_schedule,
    run_transform,
)
from hybridntt.fragmentation import access_schedule, map_layout, verify_burst, verify_conflict_free
from hybridntt.modmath import build_context, find_ntt_prime
from hybridntt.perfmodel import (
    ArchKind,
    RooflineParams,
    bandwidth_demand,
    intensity,
    peak_throughput,
)
from hybridntt.reference import (
    Polynomial,
    forward_values,
    inverse_values,
    naive_negacyclic_mul,
    pointwise_mul,
    splitmix64,
)
from hybridntt.twiddles import arrange_twiddles, distinct_engine_factors

from conftest import sweep_configs

WORD_PRIME_FLOOR = 1 << 59

# transform rates measured on the 300 MHz hardware build (OPS)
MEASURED_OPS = {1 << 16: 64172, 1 << 15: 114330, 1 << 14: 187500, 1 << 13: 275736}


def _verdict(name, started):
    print(f"\nACCEPTANCE {name}: PASS ({time.perf_counter() - started:.1f}s)")


def test_acceptance_golden_equivalence():
    """Engine output equals the reference transform exactly, 2^8..2^16."""
    started = time.perf_counter()
    for k in range(8, 17):
        n = 1 << k
        q = find_ntt_prime(n, WORD_PRIME_FLOOR)
        ctx = build_context(q, n)
        config = EngineConfig(n, 256, 16)
        stream = splitmix64(n)
        for _ in range(20):
            coeffs = [next(stream) % q for _ in range(n)]
            got, _ = run_transform(Polynomial(coeffs, ctx), config, ctx)
            assert got.coeffs == forward_values(coeffs, ctx), f"mismatch at n={n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"golden sweep took {elapsed:.1f}s, budget 60s"
    _verdict("golden-equivalence", started)


def test_acceptance_convolution_theorem():
    """INTT(NTT(a) . NTT(b)) equals the quadratic negacyclic product."""
    started = time.perf_counter()
    pairs_per_size = 100
    for k in range(2, 13):
        n = 1 << k
        q = find_ntt_prime(n, 3)
        ctx = build_context(q, n)
        stream = splitmix64(k)
        for _ in range(pairs_per_size):
            a = Polynomial([next(stream) % q for _ in range(n)], ctx)
            b = Polynomial([next(stream) % q for _ in range(n)], ctx)
            via_ntt = inverse_values(
                pointwise_mul(
                    Polynomial(forward_values(a.coeffs, ctx), ctx),
                    Polynomial(forward_values(b.coeffs, ctx), ctx),
                ).coeffs,
                ctx,
            )
            assert via_ntt == naive_negacyclic_mul(a, b).coeffs, f"mismatch at n={n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"convolution sweep took {elapsed:.1f}s, budget 120s"
    _verdict("convolution-theorem", started)


def test_acceptance_conflict_freeness():
    """Every legal sweep config is conflict-free and burst-clean, brute force."""
    started = time.perf_counter()
    configs = sweep_configs()
    assert len(configs) == 56
    for n, n_part, p in configs:
        layout = map_layout(n, n_part, p)
        config = EngineConfig(n, n_part, p)
        rounds = access_schedule(layout, config, mode_schedule(n, n_part))
        report = verify_conflict_free(rounds)
        assert report.clean, f"conflicts in ({n}, {n_part}, {p}): {report.conflicts[:3]}"
        assert report.rounds_checked == 2 * config.iterations * config.rounds_per_iteration
        assert verify_burst(layout).burst_clean, f"burst violation in ({n}, {n_part}, {p})"
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"conflict sweep took {elapsed:.1f}s, budget 30s"
    _verdict("conflict-freeness", started)


def test_acceptance_mode_schedule():
    """Published schedule strings, pass counts, and dependent-stage counts."""
    started = time.perf_counter()
    ms = mode_schedule(1 << 13, 256)
    assert ms.first_half.notation == "S×0,B×8"
    assert ms.second_half.notation == "S×3,B×5"
    assert ms.iterations == 64

    ms = mode_schedule(16, 8)
    assert ms.iterations == 4
    assert ms.second_half.notation == "S×2,B×1"

    for n, n_part, p in sweep_configs():
        infos = classify_stages(EngineConfig(n, n_part, p))
        assert sum(i.dependent for i in infos) == p.bit_length() - 1
    _verdict("mode-schedule", started)


def test_acceptance_throughput_bounding():
    """Model ceilings bound the measured rates with ratio in [0.4, 1.0]."""
    started = time.perf_counter()
    ceilings = {}
    for n, measured in MEASURED_OPS.items():
        config = EngineConfig(n, 256, 16, freq_mhz=300.0)
        ceiling = peak_throughput(config, fill_drain=0)
        ceilings[n] = ceiling
        assert measured <= ceiling, f"measured {measured} above ceiling {ceiling} at n={n}"
        assert 0.4 <= measured / ceiling <= 1.0, f"ratio {measured / ceiling:.3f} at n={n}"
    ordered = [ceilings[n] for n in sorted(ceilings)]
    assert ordered == sorted(ordered, reverse=True), "ceilings not monotone decreasing in n"
    _verdict("throughput-bounding", started)


def test_acceptance_roofline_shape():
    """Stage intensity flat, hybrid intensity doubles 2^8 -> 2^16, 67 GB/s demand."""
    started = time.perf_counter()
    params = RooflineParams()
    stage = {intensity(ArchKind.STAGE_BASED, 1 << k, 16, params) for k in range(8, 17)}
    assert len(stage) == 1, "stage-based intensity varies with n"

    ratio = intensity(ArchKind.HYBRID, 1 << 16, 16, params) / intensity(
        ArchKind.HYBRID, 1 << 8, 16, params
    )
    assert ratio == 2.0, f"hybrid intensity ratio {ratio} != 2.0"

    demand = bandwidth_demand(EngineConfig(1 << 16, 256, 16), MEASURED_OPS[1 << 16])
    assert abs(demand.gbps - 67.0) <= 1.0, f"demand {demand.gbps:.2f} GB/s outside 67 +- 1"
    assert not demand.memory_bound
    _verdict("roofline-shape", started)


def test_acceptance_twiddle_accounting():
    """n_part - 1 distinct factors per pass; swap slots empty; trace matches grid."""
    started = time.perf_counter()
    for n, n_part, p in [(16, 8, 2), (4096, 64, 16), (1 << 13, 256, 16)]:
        q = find_ntt_prime(n, 3)
        ctx = build_context(q, n)
        config = EngineConfig(n, n_part, p)
        schedule = mode_schedule(n, n_part)
        assignment = arrange_twiddles(config, schedule, ctx)
        assert len(distinct_engine_factors(assignment)) == n_part - 1

        swap = schedule.second_half.swap_stages
        m = n // n_part
        for (it, s, _u), idxs in assignment.grid.items():
            if it >= m and s < swap:
                assert idxs == []

    for n, n_part, p in [(16, 8, 2), (1 << 13, 256, 16)]:
        q = find_ntt_prime(n, 3)
        ctx = build_context(q, n)
        config = EngineConfig(n, n_part, p)
        schedule = mode_schedule(n, n_part)
        assignment = arrange_twiddles(config, schedule, ctx)
        stream = splitmix64(n + 1)
        poly = Polynomial([next(stream) % q for _ in range(n)], ctx)
        _, trace = run_transform(poly, config, ctx, trace=True)
        report = audit_trace(trace, config, schedule, assignment)
        assert report.ok, report.to_dict()
    _verdict("twiddle-accounting", started)


def test_acceptance_simulation_speed():
    """A 2^16-point transform completes in under 5 seconds."""
    n = 1 << 16
    q = find_ntt_prime(n, WORD_PRIME_FLOOR)
    ctx = build_context(q, n)
    config = EngineConfig(n, 256, 16)
    stream = splitmix64(5)
    poly = Polynomial([next(stream) % q for _ in range(n)], ctx)
    started = time.perf_counter()
    run_transform(poly, config, ctx)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"2^16 transform took {elapsed:.2f}s, budget 5s"
    _verdict("simulation-speed", started)


def test_acceptance_traced_speed(tmp_path):
    """A traced 2^16-point transform and its JSONL trace complete in under 5 seconds."""
    n = 1 << 16
    q = find_ntt_prime(n, WORD_PRIME_FLOOR)
    ctx = build_context(q, n)
    config = EngineConfig(n, 256, 16)
    stream = splitmix64(6)
    poly = Polynomial([next(stream) % q for _ in range(n)], ctx)
    path = tmp_path / "trace.jsonl"
    started = time.perf_counter()
    try:
        _, trace = run_transform(poly, config, ctx, trace=True)
        _write_trace_jsonl(trace, str(path))
        elapsed = time.perf_counter() - started
    finally:
        path.unlink(missing_ok=True)  # about 132 MB
    assert elapsed < 5.0, f"traced 2^16 transform and trace took {elapsed:.2f}s, budget 5s"
    _verdict("traced-speed", started)
