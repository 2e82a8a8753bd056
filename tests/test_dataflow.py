import dataclasses
import gc
import math

import numpy as np
import pytest

from hybridntt import dataflow
from hybridntt.dataflow import (
    BUTTERFLY,
    SWAP,
    BuRecord,
    EngineConfig,
    RoundRecord,
    audit_trace,
    butterfly,
    classify_stages,
    mode_schedule,
    run_transform,
)
from hybridntt.fragmentation import BadConfig, access_schedule, map_layout
from hybridntt.modmath import precompute_shoup
from hybridntt.perfmodel import butterflies_per_transform, cycle_estimate
from hybridntt.reference import ContextMismatch, Polynomial, forward_values, random_polynomial
from hybridntt.twiddles import arrange_twiddles

from conftest import sweep_configs


def test_mode_schedule_examples():
    ms = mode_schedule(1 << 13, 256)
    assert ms.iterations == 64
    assert ms.first_half.notation == "S×0,B×8"
    assert ms.second_half.notation == "S×3,B×5"

    ms = mode_schedule(16, 8)
    assert ms.iterations == 4
    assert ms.first_half.notation == "S×0,B×3"
    assert ms.second_half.notation == "S×2,B×1"

    ms = mode_schedule(1 << 16, 256)
    assert ms.iterations == 512
    assert ms.first_half.notation == "S×0,B×8"
    assert ms.second_half.notation == "S×0,B×8"


def test_mode_schedule_single_pass():
    ms = mode_schedule(256, 256)
    assert ms.iterations == 1
    assert ms.first_half.notation == "S×0,B×8"


def test_mode_schedule_covers_all_stages():
    for n_exp in range(8, 17):
        for np_exp in (6, 8):
            n, n_part = 1 << n_exp, 1 << np_exp
            if not n_part <= n <= n_part * n_part:
                continue
            ms = mode_schedule(n, n_part)
            if ms.iterations == 1:
                assert ms.first_half.butterfly_stages == n_exp
            else:
                assert ms.first_half.butterfly_stages + ms.second_half.butterfly_stages == n_exp
            assert ms.first_half.swap_stages + ms.first_half.butterfly_stages == np_exp
            assert ms.second_half.swap_stages + ms.second_half.butterfly_stages == np_exp


def test_mode_schedule_bad_config():
    with pytest.raises(BadConfig):
        mode_schedule(16, 32)
    with pytest.raises(BadConfig):
        mode_schedule(1 << 13, 64)


def test_classify_stages():
    infos = classify_stages(EngineConfig(16, 8, 2))
    assert [i.stride for i in infos] == [4, 2, 1]
    assert [i.dependent for i in infos] == [False, False, True]

    infos = classify_stages(EngineConfig(1 << 13, 256, 16))
    assert [i.stride for i in infos] == [128, 64, 32, 16, 8, 4, 2, 1]
    assert sum(i.dependent for i in infos) == 4
    assert all(i.dependent == (i.stride < 16) for i in infos)

    infos = classify_stages(EngineConfig(4, 4, 2))
    assert [i.stride for i in infos] == [2, 1]
    assert sum(i.dependent for i in infos) == 1


def test_butterfly_examples():
    q = 17
    w = precompute_shoup(5, q)
    assert butterfly(7, 0, w, BUTTERFLY, q) == (7, 7)
    one = precompute_shoup(1, q)
    assert butterfly(0, 3, one, BUTTERFLY, q) == (3, 14)
    assert butterfly(11, 3, w, SWAP, q) == (11, 3)


@pytest.mark.parametrize(
    "n,n_part,p",
    [(8, 8, 2), (16, 8, 2), (64, 8, 2), (256, 16, 4), (256, 256, 16), (1024, 64, 16)],
)
def test_golden_equivalence_small(n, n_part, p, ctx_cache):
    ctx = ctx_cache.get(n)
    config = EngineConfig(n, n_part, p)
    for seed in range(20):
        poly = random_polynomial(ctx, seed)
        got, _ = run_transform(poly, config, ctx)
        assert got.coeffs == forward_values(poly.coeffs, ctx)


def test_impulse_through_engine(ctx_cache):
    ctx = ctx_cache.get(16)
    config = EngineConfig(16, 8, 2)
    impulse = Polynomial([1] + [0] * 15, ctx)
    got, _ = run_transform(impulse, config, ctx)
    assert got.coeffs == [1] * 16


def test_trace_counts(ctx_cache):
    n = 1 << 13
    ctx = ctx_cache.get(n)
    config = EngineConfig(n, 256, 16)
    poly = random_polynomial(ctx, 0)
    got, trace = run_transform(poly, config, ctx, trace=True)
    assert got.coeffs == forward_values(poly.coeffs, ctx)
    reads = [r for r in trace.iter_records() if isinstance(r, RoundRecord) and r.direction == "read"]
    assert len(reads) == 64 * 8  # iterations x rounds per iteration
    assert trace.rounds_executed == 2 * 64 * 8
    assert trace.elements_read == 64 * 256
    assert trace.elements_written == 64 * 256
    per_iter = {}
    for r in reads:
        per_iter[r.iteration] = per_iter.get(r.iteration, 0) + 1
    assert set(per_iter.values()) == {config.rounds_per_iteration}


def test_stream_routing_dependent_vs_independent(ctx_cache):
    ctx = ctx_cache.get(256)
    config = EngineConfig(256, 16, 4)
    poly = random_polynomial(ctx, 1)
    _, trace = run_transform(poly, config, ctx, trace=True)
    p = config.p
    infos = {i.stage: i for i in classify_stages(config)}
    crossed = set()
    for rec in (r for r in trace.iter_records() if isinstance(r, BuRecord)):
        l1, l2 = rec.lanes
        if infos[rec.stage].dependent:
            if (l1, l2) != (rec.bu, rec.bu + p):
                crossed.add(rec.stage)
        else:
            # independent stages keep each lane pair on its own streams
            assert (l1, l2) == (rec.bu, rec.bu + p)
    assert crossed == {i.stage for i in infos.values() if i.dependent}


def test_swap_records_do_no_arithmetic(ctx_cache):
    ctx = ctx_cache.get(16)
    config = EngineConfig(16, 8, 2)
    poly = random_polynomial(ctx, 2)
    _, trace = run_transform(poly, config, ctx, trace=True)
    swap_recs = [r for r in trace.iter_records() if isinstance(r, BuRecord) and r.mode == SWAP]
    ms = mode_schedule(16, 8)
    # second half only, stages below the swap count
    assert swap_recs
    for rec in swap_recs:
        assert rec.iteration >= 2
        assert rec.stage < ms.second_half.swap_stages
        assert rec.twiddle_index is None
        assert rec.outputs == rec.inputs


def _forge(trace, half=0, **fields):
    """A copy of trace whose given half has the given fields replaced."""
    halves = list(trace.halves)
    halves[half] = dataclasses.replace(halves[half], **fields)
    return dataclasses.replace(trace, halves=tuple(halves))


def test_audit_clean_and_forged(ctx_cache):
    ctx = ctx_cache.get(16)
    config = EngineConfig(16, 8, 2)
    schedule = mode_schedule(16, 8)
    assignment = arrange_twiddles(config, schedule, ctx)
    poly = random_polynomial(ctx, 3)
    _, trace = run_transform(poly, config, ctx, trace=True)

    report = audit_trace(trace, config, schedule, assignment)
    assert report.ok

    # every round of the first half widened by one (0, 0, 0) triple
    touches = trace.halves[0].touches
    forged = _forge(trace, touches=np.concatenate([touches, np.zeros_like(touches[:, :, :1])], axis=2))
    first = next(forged.iter_records())
    report = audit_trace(forged, config, schedule, assignment)
    assert not report.ok
    assert report.round_width_errors[0]["iteration"] == first.iteration
    assert report.round_width_errors[0]["round"] == first.round
    assert report.round_width_errors == [
        {"iteration": it, "round": r, "direction": d, "touches": 5}
        for it in (0, 1) for d in ("read", "write") for r in (0, 1)
    ]

    bumped = trace.halves[0].twiddles[0].copy()
    bumped[0, 0] += 1
    tampered = _forge(trace, twiddles=(bumped, *trace.halves[0].twiddles[1:]))
    report = audit_trace(tampered, config, schedule, assignment)
    assert not report.ok
    assert report.twiddle_mismatches
    assert report.twiddle_mismatches[0]["slot"] == (0, 0, 0)

    # a value changed between the two swap stages of the second half's first pass
    values = list(trace.halves[1].values)
    values[1] = values[1].copy()
    values[1][0, 0] ^= 1
    report = audit_trace(_forge(trace, 1, values=tuple(values)), config, schedule, assignment)
    assert not report.ok
    assert report.swap_arith_errors == [
        {"iteration": 2, "stage": 0, "bu": 0},
        {"iteration": 2, "stage": 1, "bu": 0},
    ]

    # round 1 of the first half dropped: every pass reads and writes one round fewer
    dropped = _forge(trace, touches=trace.halves[0].touches[:, :1])
    report = audit_trace(dropped, config, schedule, assignment)
    assert not report.ok
    assert report.bank_pattern_mismatches == [
        {"iteration": it, "round": 1, "direction": d, "recorded": 0} for it in (0, 1) for d in ("read", "write")
    ]
    assert report.round_width_errors == [{"rounds_executed": 12, "expected": 16}]

    # round 0 of pass 0 repeated in the place of round 1
    touches = trace.halves[0].touches.copy()
    touches[0, 1] = touches[0, 0]
    report = audit_trace(_forge(trace, touches=touches), config, schedule, assignment)
    assert not report.ok
    assert report.bank_pattern_mismatches == [
        {"iteration": 0, "round": 1, "direction": "read"},
        {"iteration": 0, "round": 1, "direction": "write"},
    ]

    # round 0 repeated after round 1 in every pass: a third round the schedule does not name
    report = audit_trace(_forge(trace, touches=trace.halves[0].touches[:, [0, 1, 0]]), config, schedule, assignment)
    assert not report.ok
    assert report.bank_pattern_mismatches == [
        {"iteration": it, "round": 2, "direction": d} for it in (0, 1) for d in ("read", "write")
    ]

    # the second half missing altogether
    report = audit_trace(dataclasses.replace(trace, halves=trace.halves[:1]), config, schedule, assignment)
    assert not report.ok
    assert report.bank_pattern_mismatches == [
        {"iteration": it, "round": r, "direction": d, "recorded": 0}
        for it in (2, 3) for d in ("read", "write") for r in (0, 1)
    ]


def test_trace_counts_reconcile_with_perfmodel(ctx_cache):
    """Counts from a traced run's array shapes equal perfmodel's, over the sweep."""
    for n, n_part, p in sweep_configs():
        config = EngineConfig(n, n_part, p)
        ctx = ctx_cache.get(n)
        _, trace = run_transform(Polynomial([0] * n, ctx), config, ctx, trace=True)
        reads = writes = sum(math.prod(h.touches.shape[:2]) for h in trace.halves)  # a read and a write per round
        lanes = {"arithmetic": 0, "swap": 0}
        for half in trace.halves:
            for values, twiddles in zip(half.values, half.twiddles):  # one pair per stage
                lanes["arithmetic" if twiddles.shape[1] else "swap"] += values.size // 2
        moved = sum(math.prod(h.touches.shape[:3]) for h in trace.halves)
        m = n // n_part
        swap_stages = mode_schedule(n, n_part).second_half.swap_stages
        assert reads == writes == cycle_estimate(config, 0), (n, n_part, p)
        assert lanes["arithmetic"] == butterflies_per_transform(n), (n, n_part, p)
        assert lanes["swap"] == m * swap_stages * n_part // 2, (n, n_part, p)
        # each half moves every element once; a single-pass transform is one half
        assert moved == trace.elements_read == trace.elements_written == (2 * n if m > 1 else n)


def test_traced_run_keeps_arrays_not_per_lane_objects(ctx_cache):
    n = 1 << 13
    ctx = ctx_cache.get(n)
    config = EngineConfig(n, 256, 16)
    poly = random_polynomial(ctx, 6)
    run_transform(poly, config, ctx, trace=True)  # warm up
    gc.collect()
    before = len(gc.get_objects())
    _, trace = run_transform(poly, config, ctx, trace=True)
    gc.collect()
    rise = len(gc.get_objects()) - before
    for half in trace.halves:
        for f in dataclasses.fields(half):
            value = getattr(half, f.name)
            arrays = value if isinstance(value, tuple) else (value,)
            assert arrays and all(isinstance(a, np.ndarray) for a in arrays), f.name
    assert rise < 2000, f"{rise} more tracked objects after a traced run"


def test_audit_joint_large(ctx_cache):
    n = 1 << 13
    ctx = ctx_cache.get(n)
    config = EngineConfig(n, 256, 16)
    schedule = mode_schedule(n, 256)
    assignment = arrange_twiddles(config, schedule, ctx)
    poly = random_polynomial(ctx, 4)
    _, trace = run_transform(poly, config, ctx, trace=True)
    report = audit_trace(trace, config, schedule, assignment)
    assert report.ok


def test_audit_builds_the_access_schedule_once_per_geometry(ctx_cache):
    dataflow._schedule_touches.cache_clear()
    ctx = ctx_cache.get(64)
    config = EngineConfig(64, 8, 2)
    schedule = mode_schedule(64, 8)
    assignment = arrange_twiddles(config, schedule, ctx)
    for seed in range(3):
        _, trace = run_transform(random_polynomial(ctx, seed), config, ctx, trace=True)
        assert audit_trace(trace, config, schedule, assignment).ok
    info = dataflow._schedule_touches.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_audit_schedule_matches_access_schedule():
    """The audit's cached rounds are the rounds access_schedule enumerates, read and written alike."""
    for n, n_part, p in ((16, 8, 2), (64, 8, 2), (256, 32, 4)):
        config = EngineConfig(n, n_part, p)
        rounds = access_schedule(map_layout(n, n_part, p), config, mode_schedule(n, n_part))
        expected = dataflow._schedule_touches(n, n_part, p)
        assert len(rounds) == 2 * expected.shape[0] * expected.shape[1]
        for r in rounds:
            assert sorted(r.touches, key=lambda t: t[2]) == list(map(tuple, expected[r.iteration, r.round].tolist()))


def test_context_mismatch(ctx_cache):
    ctx16 = ctx_cache.get(16)
    ctx8 = ctx_cache.get(8)
    config = EngineConfig(16, 8, 2)
    with pytest.raises(ContextMismatch):
        run_transform(random_polynomial(ctx8, 0), config, ctx16)
    with pytest.raises(ContextMismatch):
        run_transform(random_polynomial(ctx16, 0), config, ctx8)


def test_engine_config_validation():
    with pytest.raises(BadConfig):
        EngineConfig(16, 8, 1)
    with pytest.raises(BadConfig):
        EngineConfig(16, 8, 2, freq_mhz=0)
    for rate in ("freq_mhz", "hbm_gbps"):
        for value in (math.inf, math.nan):
            with pytest.raises(BadConfig):
                EngineConfig(16, 8, 2, **{rate: value})
    cfg = EngineConfig(1 << 16, 256, 16)
    assert cfg.s == 16
    assert cfg.s_part == 8
    assert cfg.iterations == 512
    assert cfg.rounds_per_iteration == 8
    assert EngineConfig(256, 256, 16).iterations == 1
