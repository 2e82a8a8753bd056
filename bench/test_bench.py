"""Self-test of the benchmark's own bookkeeping.

    python3 -m pytest bench
"""

import json
from pathlib import Path

import pytest

import run
from spans import Tracer


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_span_minus_children():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))
    inner = tracer.wrap("inner", lambda: None)  # spans 1.0 .. 3.0 and 4.0 .. 4.5
    tracer.wrap(lambda args, kwargs: "outer", lambda: (inner(), inner()))()  # 0.0 .. 10.0
    assert tracer.calls[("op", "outer")] == 1
    assert tracer.calls[("op", "inner")] == 2
    assert tracer.self_s[("op", "inner")] == pytest.approx(2.5)
    assert tracer.self_s[("op", "outer")] == pytest.approx(10.0 - 2.5)


def test_installed_wrappers_reach_every_binding_and_are_removed():
    hb = run.load_program()
    original = hb.fragmentation.map_layout
    tracer = Tracer()
    with tracer.installed({(hb.fragmentation, "map_layout"): "fragmentation.map_layout"}):
        assert hb.dataflow.map_layout is not original  # bound by `from .fragmentation import`
        hb.dataflow.map_layout(16, 8, 2)
        hb.cli.map_layout(16, 8, 2)
    assert hb.dataflow.map_layout is original and hb.cli.map_layout is original
    assert tracer.calls[("op", "fragmentation.map_layout")] == 2


def test_failed_ratio_arithmetic():
    ledger = run.Ledger()
    with pytest.raises(ValueError):
        ledger.failed_ratio
    ledger.attempted = 4
    ledger.fail(2, "forced")
    assert ledger.failed_ratio == 0.25
    assert not ledger.correct


def test_wrong_output_counts_as_failure():
    ledger = run.Ledger()
    ledger.attempted = 5
    ledger.record(0, "a", [1, 2])
    ledger.record(1, "a", [1, 3])  # differs from the first output for "a"
    ledger.record(2, "b", [9])
    ledger.record(3, "b", [9])
    ledger.record(4, "a", [1, 2])
    assert ledger.failed == {1}
    ledger.settle({"a": [1, 2], "b": [8]}.get)  # every output for "b" is wrong
    assert ledger.failed == {1, 2, 3}
    assert ledger.failed_ratio == 3 / 5


def test_wrong_program_output_fails_the_op(tmp_path):
    hb = run.load_program()
    wl = run.PolymulSmall(hb, run.splitmix64(7), tmp_path)
    wl.setup()
    wl.arm()
    ledger = run.Ledger()
    run.run_unit(wl, ledger)
    ledger.settle(lambda slot: [c ^ 1 for c in wl.expected(slot)])
    assert ledger.attempted == wl.unit and len(ledger.failed) == wl.unit


def test_reported_metrics_match_benchmark_json(capsys):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "polymul-small", "--seconds", "0.2", "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[section]
        }
