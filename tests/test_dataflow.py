import copy
import math

import pytest

from hybridntt import dataflow
from hybridntt.dataflow import (
    BUTTERFLY,
    SWAP,
    EngineConfig,
    audit_trace,
    butterfly,
    classify_stages,
    mode_schedule,
    run_transform,
)
from hybridntt.fragmentation import BadConfig, access_schedule
from hybridntt.modmath import precompute_shoup
from hybridntt.reference import ContextMismatch, Polynomial, forward_values, random_polynomial
from hybridntt.twiddles import arrange_twiddles


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
    reads = [r for r in trace.rounds if r.direction == "read"]
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
    for rec in trace.bus:
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
    swap_recs = [r for r in trace.bus if r.mode == SWAP]
    ms = mode_schedule(16, 8)
    # second half only, stages below the swap count
    assert swap_recs
    for rec in swap_recs:
        assert rec.iteration >= 2
        assert rec.stage < ms.second_half.swap_stages
        assert rec.twiddle_index is None
        assert rec.outputs == rec.inputs


def test_audit_clean_and_forged(ctx_cache):
    ctx = ctx_cache.get(16)
    config = EngineConfig(16, 8, 2)
    schedule = mode_schedule(16, 8)
    assignment = arrange_twiddles(config, schedule, ctx)
    poly = random_polynomial(ctx, 3)
    _, trace = run_transform(poly, config, ctx, trace=True)

    report = audit_trace(trace, config, schedule, assignment)
    assert report.ok

    forged = copy.deepcopy(trace)
    forged.rounds[0] = forged.rounds[0]._replace(touches=forged.rounds[0].touches + ((0, 0, 0),))
    report = audit_trace(forged, config, schedule, assignment)
    assert not report.ok
    assert report.round_width_errors[0]["iteration"] == forged.rounds[0].iteration
    assert report.round_width_errors[0]["round"] == forged.rounds[0].round

    tampered = copy.deepcopy(trace)
    k = next(i for i, rec in enumerate(tampered.bus) if rec.mode == BUTTERFLY)
    tampered.bus[k] = tampered.bus[k]._replace(twiddle_index=tampered.bus[k].twiddle_index + 1)
    report = audit_trace(tampered, config, schedule, assignment)
    assert not report.ok
    assert report.twiddle_mismatches

    def round_at(rounds, key):
        return next(i for i, r in enumerate(rounds) if (r.iteration, r.round, r.direction) == key)

    dropped = copy.deepcopy(trace)
    del dropped.rounds[round_at(dropped.rounds, (0, 1, "read"))]
    report = audit_trace(dropped, config, schedule, assignment)
    assert not report.ok
    assert report.bank_pattern_mismatches == [
        {"iteration": 0, "round": 1, "direction": "read", "recorded": 0}
    ]

    repeated = copy.deepcopy(trace)
    first = repeated.rounds[round_at(repeated.rounds, (0, 0, "read"))]
    repeated.rounds[round_at(repeated.rounds, (0, 1, "read"))] = copy.deepcopy(first)
    report = audit_trace(repeated, config, schedule, assignment)
    assert not report.ok
    assert report.bank_pattern_mismatches == [
        {"iteration": 0, "round": 0, "direction": "read", "recorded": 2},
        {"iteration": 0, "round": 1, "direction": "read", "recorded": 0},
    ]


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


def test_audit_builds_the_access_schedule_once_per_geometry(ctx_cache, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[0].n)
        return access_schedule(*args)

    monkeypatch.setattr(dataflow, "access_schedule", counting)
    dataflow._schedule_touches.cache_clear()
    ctx = ctx_cache.get(64)
    config = EngineConfig(64, 8, 2)
    schedule = mode_schedule(64, 8)
    assignment = arrange_twiddles(config, schedule, ctx)
    for seed in range(3):
        _, trace = run_transform(random_polynomial(ctx, seed), config, ctx, trace=True)
        assert audit_trace(trace, config, schedule, assignment).ok
    assert calls == [64]


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
