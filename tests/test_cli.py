import csv
import json
import os
import stat

import pytest

import hybridntt.cli as cli
from hybridntt.dataflow import EngineConfig, RoundRecord, run_transform
from hybridntt.modmath import build_context
from hybridntt.reference import (
    Polynomial,
    forward_values,
    random_polynomial,
    read_polynomial,
    write_polynomial,
)

from conftest import largest_ntt_prime


def run(argv):
    return cli.main(argv)


def test_params_discovers_prime(tmp_path):
    out = tmp_path / "config.json"
    code = run(
        ["params", "--n", "16", "--npart", "8", "--p", "2",
         "--prime-floor", "3", "--out", str(out)]
    )
    assert code == 0
    config = json.loads(out.read_text())
    assert config["q"] == 97
    assert config["n"] == 16 and config["n_part"] == 8 and config["p"] == 2
    assert config["seed"] == 1


def test_params_twiddle_csv(tmp_path):
    out = tmp_path / "config.json"
    tw = tmp_path / "tw.csv"
    code = run(
        ["params", "--n", "4", "--npart", "4", "--p", "2", "--q", "17",
         "--out", str(out), "--twiddle-csv", str(tw)]
    )
    assert code == 0
    with open(tw, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[1] for r in rows[1:]] == ["1", "13", "9", "15"]


def test_params_rejects_bad_q(tmp_path, capsys):
    code = run(["params", "--n", "16", "--npart", "8", "--p", "2", "--q", "13"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotNttFriendly"


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"n": 16, "n_part": 8, "p": 2, "q": 97, "seed": 5}))
    out = tmp_path / "out.json"
    code = run(["params", "--config", str(cfg_path), "--p", "4", "--out", str(out)])
    assert code == 0
    merged = json.loads(out.read_text())
    assert merged["p"] == 4  # flag wins
    assert merged["seed"] == 5


def test_config_accepts_integral_floats(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"n": 16.0, "n_part": 8.0, "p": 2.0, "q": 97.0, "seed": 5.0}')
    out = tmp_path / "out.json"
    assert run(["params", "--config", str(cfg_path), "--out", str(out)]) == 0
    merged = json.loads(out.read_text())
    assert (merged["n"], merged["n_part"], merged["p"], merged["q"], merged["seed"]) == (16, 8, 2, 97, 5)


def test_map_clean(tmp_path):
    layout_csv = tmp_path / "layout.csv"
    report_json = tmp_path / "report.json"
    code = run(
        ["map", "--n", "16", "--npart", "8", "--p", "2",
         "--csv", str(layout_csv), "--report", str(report_json)]
    )
    assert code == 0
    report = json.loads(report_json.read_text())
    assert report["conflicts"] == []
    assert report["burst_clean"] is True
    assert report["rounds_checked"] == 16
    with open(layout_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "bank", "offset"]
    assert rows[1 + 9] == ["9", "0", "2"]
    assert rows[1 + 12] == ["12", "1", "3"]


def test_map_bad_config(capsys):
    assert run(["map", "--n", "16", "--npart", "8", "--p", "8"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadConfig"


def test_schedule_prints_notation(capsys):
    code = run(["schedule", "--n", "8192", "--npart", "256", "--p", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "S×0,B×8" in out
    assert "S×3,B×5" in out
    assert "iterations: 64" in out
    assert "dependent" in out and "independent" in out


def test_schedule_twiddle_grid(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    code = run(
        ["schedule", "--n", "16", "--npart", "8", "--p", "2", "--q", "97",
         "--twiddles", str(grid_path)]
    )
    assert code == 0
    grid = json.loads(grid_path.read_text())
    assert grid["it2.st0.u0"] == []
    assert set(grid["it0.st0.u0"]) == {1}
    assert len(grid) == 4 * 3 * 1
    assert "distinct per pass 7" in capsys.readouterr().out


def test_transform_roundtrip(tmp_path):
    ctx = build_context(97, 16)
    poly = random_polynomial(ctx, 123)
    src = tmp_path / "in.hply"
    dst = tmp_path / "out.hply"
    trace = tmp_path / "trace.jsonl"
    write_polynomial(str(src), poly)
    code = run(
        ["transform", str(src), str(dst), "--npart", "8", "--p", "2",
         "--trace", str(trace)]
    )
    assert code == 0
    result = read_polynomial(str(dst), ctx)
    assert result.coeffs == forward_values(poly.coeffs, ctx)
    lines = trace.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    kinds = {r["kind"] for r in records}
    assert kinds == {"read", "bu", "write"}
    assert sum(1 for r in records if r["kind"] == "read") == 8
    swap_records = [r for r in records if r["kind"] == "bu" and r["mode"] == "swap"]
    assert swap_records and all(r["twiddle_index"] is None for r in swap_records)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.hply", "out.hply", "trace.jsonl"]


def test_transform_writes_through_a_symlinked_output(tmp_path):
    ctx = build_context(97, 16)
    poly = random_polynomial(ctx, 124)
    write_polynomial(str(tmp_path / "in.hply"), poly)
    (tmp_path / "target.hply").write_bytes(b"old")
    (tmp_path / "out.hply").symlink_to("target.hply")
    code = run(["transform", str(tmp_path / "in.hply"), str(tmp_path / "out.hply"), "--npart", "8", "--p", "2"])
    assert code == 0
    assert (tmp_path / "out.hply").is_symlink()
    assert read_polynomial(str(tmp_path / "target.hply"), ctx).coeffs == forward_values(poly.coeffs, ctx)


def _transform_16(tmp_path, output, trace):
    ctx = build_context(97, 16)
    poly = random_polynomial(ctx, 125)
    write_polynomial(str(tmp_path / "in.hply"), poly)
    code = run(["transform", str(tmp_path / "in.hply"), output, "--npart", "8", "--p", "2", "--trace", trace])
    return code, forward_values(poly.coeffs, ctx), ctx


def test_transform_trace_to_a_device_leaves_the_device(tmp_path):
    code, expected, ctx = _transform_16(tmp_path, str(tmp_path / "out.hply"), os.devnull)
    assert code == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert read_polynomial(str(tmp_path / "out.hply"), ctx).coeffs == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.hply", "out.hply"]


def test_transform_trace_to_a_fifo_writes_through_it(tmp_path):
    _transform_16(tmp_path, str(tmp_path / "out.hply"), str(tmp_path / "t.jsonl"))
    fifo = tmp_path / "t.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the trace at n = 16 fits the pipe's buffer
    try:
        code, _, _ = _transform_16(tmp_path, str(tmp_path / "out.hply"), str(fifo))
        chunks = iter(lambda: os.read(reader, 1 << 16), b"")
        got = b"".join(chunks)
    finally:
        os.close(reader)
    assert code == 0
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == (tmp_path / "t.jsonl").read_bytes()


def _record_fields(rec):
    """A trace record as the JSON object of its trace line."""
    if isinstance(rec, RoundRecord):
        return {"iteration": rec.iteration, "kind": rec.direction, "round": rec.round,
                "touches": [list(t) for t in rec.touches]}
    return {"iteration": rec.iteration, "kind": "bu", "round": rec.round, "stage": rec.stage,
            "nttu": rec.nttu, "bu": rec.bu, "mode": rec.mode, "lanes": list(rec.lanes),
            "inputs": list(rec.inputs), "twiddle_index": rec.twiddle_index,
            "outputs": list(rec.outputs)}


def test_trace_lines_match_json_encoder(tmp_path, ctx_cache):
    part = {"read": 0, "bu": 1, "write": 2}
    seen = set()
    for n, n_part, p, q in ((16, 8, 2, 97), (256, 16, 4, largest_ntt_prime(256))):
        ctx = ctx_cache.get(n, q=q)
        _, trace = run_transform(random_polynomial(ctx, 5), EngineConfig(n, n_part, p), ctx, trace=True)
        path = tmp_path / f"trace{n}.jsonl"
        cli._write_trace_jsonl(trace, str(path))
        fields = sorted(map(_record_fields, trace.iter_records()),
                        key=lambda f: (f["iteration"], part[f["kind"]]))
        assert path.read_text().splitlines() == [json.dumps(f, sort_keys=True) for f in fields]
        seen |= {f["kind"] for f in fields}
        seen |= {"null twiddle" for f in fields if f["kind"] == "bu" and f["twiddle_index"] is None}
        seen |= {"above 2^61" for f in fields if f["kind"] == "bu" and max(f["outputs"]) >> 61}
    assert seen == {"read", "bu", "write", "null twiddle", "above 2^61"}


def test_transform_rejects_conflicting_config(tmp_path, capsys):
    ctx = build_context(97, 16)
    src = tmp_path / "in.hply"
    write_polynomial(str(src), random_polynomial(ctx, 1))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 32, "n_part": 8, "p": 2}))
    code = run(["transform", str(src), str(tmp_path / "out.hply"), "--config", str(cfg)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "file holds n=16" in err["message"]


def test_transform_missing_input(tmp_path, capsys):
    code = run(["transform", str(tmp_path / "nope.hply"), str(tmp_path / "out.hply"),
                "--npart", "8", "--p", "2"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_verify_ok(tmp_path):
    out = tmp_path / "verify.json"
    code = run(
        ["verify", "--n", "16", "--npart", "8", "--p", "2", "--q", "97",
         "--runs", "25", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["ok"] is True
    assert summary["matches"] == 25
    assert summary["audits_passed"] == 25


def test_verify_detects_mismatch(tmp_path, monkeypatch):
    # corrupt the engine output to exercise the failure exit path
    real = cli.run_transform

    def corrupted(poly, config, ctx, trace=False):
        result, tr = real(poly, config, ctx, trace)
        bad = list(result.coeffs)
        bad[0] = (bad[0] + 1) % ctx.q
        return Polynomial(bad, ctx), tr

    monkeypatch.setattr(cli, "run_transform", corrupted)
    out = tmp_path / "verify.json"
    code = run(
        ["verify", "--n", "16", "--npart", "8", "--p", "2", "--q", "97",
         "--runs", "3", "--skip-audit", "--out", str(out)]
    )
    assert code == 1
    summary = json.loads(out.read_text())
    assert summary["matches"] == 0
    assert summary["failures"]


def test_verify_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", "--n", "16", "--npart", "8", "--p", "2", "--q", "97",
            "--runs", "5", "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_outputs(tmp_path):
    csv_path = tmp_path / "roofline.csv"
    json_path = tmp_path / "rows.json"
    code = run(
        ["analyze", "--arch", "all", "--sweep-n", "256..65536", "--sweep-p", "2..16",
         "--csv", str(csv_path), "--json", str(json_path)]
    )
    assert code == 0
    rows = json.loads(json_path.read_text())
    assert len(rows) == 3 * 9 * 4
    stage_int = {r["intensity_ops_per_byte"] for r in rows if r["arch"] == "stage"}
    assert len(stage_int) == 1
    with open(csv_path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "arch"


def test_analyze_bandwidth_block(tmp_path):
    json_path = tmp_path / "report.json"
    code = run(
        ["analyze", "--arch", "hybrid", "--sweep-n", "65536", "--sweep-p", "16",
         "--achieved-ops", "64172", "--json", str(json_path)]
    )
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["cycle_estimate"] == 4096
    assert abs(payload["bandwidth_demand_gbps"] - 67.29) < 1.0
    assert payload["memory_bound"] is False


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 16, "n_part": 8, "p": 2, "bogus": 1}))
    assert run(["params", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "bogus" in err["message"]


BAD_CONFIG_TEXTS = [
    "5",
    '{"n": null, "n_part": 8, "p": 2}',
    '{"n": [16], "n_part": 8, "p": 2}',
    '{"n": Infinity, "n_part": 8, "p": 2}',
    '{"n": 16, "n_part": [8], "p": 2}',
    '{"n": 16, "n_part": true, "p": 2}',
    '{"n": 16, "n_part": 8, "p": 2, "hbm_gbps": Infinity}',
    '{"n": 16, "n_part": 8, "p": 2, "freq_mhz": NaN}',
    '{"n": 16.9, "n_part": 8, "p": 2, "q": 97}',
    '{"n": 16, "n_part": 8.5, "p": 2, "q": 97}',
    '{"n": 16, "n_part": 8, "p": 2.5, "q": 97}',
    '{"n": 16, "n_part": 8, "p": 2, "q": 97.5}',
    '{"n": 16, "n_part": 8, "p": 2, "q": 97, "seed": 1.5}',
]


BAD_SWEEPS = ["0..8", "-4..8", "-1..-1", "0", "-2"]

BAD_GEOMETRIES = [("--n", "16", "--npart", "8", "--p", "8"), ("--n", "12", "--npart", "8", "--p", "2")]


def _input_hply(tmp_path):
    src = tmp_path / "in.hply"
    write_polynomial(str(src), random_polynomial(build_context(97, 16), 1))
    return str(src)


def _config_argv(command, text):
    def argv(tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        if command != "transform":
            return [command, "--config", str(cfg)]
        return ["transform", _input_hply(tmp_path), str(tmp_path / "out.hply"), "--config", str(cfg)]

    return argv


def _fixed_argv(*args):
    return lambda tmp_path: list(args)


REJECTED = {
    **{f"{command}-config-{i}": _config_argv(command, text)
       for command in ("params", "transform") for i, text in enumerate(BAD_CONFIG_TEXTS)},
    "map-config-5": _config_argv("map", BAD_CONFIG_TEXTS[5]),
    "schedule-config-8": _config_argv("schedule", BAD_CONFIG_TEXTS[8]),
    **{f"{command}-geometry-{i}": _fixed_argv(command, *geometry)
       for command in ("map", "schedule") for i, geometry in enumerate(BAD_GEOMETRIES)},
    **{f"verify-runs{runs}": _fixed_argv("verify", "--n", "16", "--npart", "8", "--p", "2",
                                         "--q", "97", "--runs", runs)
       for runs in ("0", "-3")},
    **{f"analyze{flag}={sweep}": _fixed_argv("analyze", f"{flag}={sweep}")
       for flag in ("--sweep-n", "--sweep-p") for sweep in BAD_SWEEPS},
    "analyze-stage-n1": _fixed_argv("analyze", "--arch", "stage", "--sweep-n", "1"),
    "analyze-stage-w-4": _fixed_argv("analyze", "--arch", "stage", "--sweep-n", "16", "--w=-4"),
    "analyze-w-5": _fixed_argv("analyze", "--w=-5"),
    "analyze-twiddle-bytes-nan": _fixed_argv("analyze", "--twiddle-bytes", "nan"),
    "analyze-twiddle-bytes-negative": _fixed_argv("analyze", "--twiddle-bytes=-1"),
    "analyze-achieved-ops-nan": _fixed_argv("analyze", "--achieved-ops", "nan"),
    "analyze-hbm-gbps-inf": _fixed_argv("analyze", "--hbm-gbps", "inf"),
    "analyze-freq-mhz-nan": _fixed_argv("analyze", "--freq-mhz", "nan"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_input_exits_2_with_one_json_error(name, tmp_path, capsys):
    code = run(REJECTED[name](tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "BadConfig"


GEOMETRY = ("--n", "16", "--npart", "8", "--p", "2", "--q", "97")


def _transform_argv(tmp, output, trace):
    return ["transform", _input_hply(tmp), str(tmp / output), *GEOMETRY[2:6], "--trace", str(tmp / trace)]


# a path argument that cannot be opened: a missing file to read, or a file in a missing directory
IO_FAILURES = {
    "params--config": lambda tmp: ["params", "--config", str(tmp / "missing.json")],
    "params--out": lambda tmp: ["params", *GEOMETRY, "--out", str(tmp / "no" / "c.json")],
    "map--csv": lambda tmp: ["map", *GEOMETRY[:6], "--csv", str(tmp / "no" / "l.csv")],
    "verify--out": lambda tmp: ["verify", *GEOMETRY, "--runs", "1", "--out", str(tmp / "no" / "v.json")],
    "schedule--twiddles": lambda tmp: ["schedule", *GEOMETRY, "--twiddles", str(tmp / "no" / "g.json")],
    "analyze--csv": lambda tmp: ["analyze", "--csv", str(tmp / "no" / "r.csv")],
    "analyze--json": lambda tmp: ["analyze", "--json", str(tmp / "no" / "r.json")],
    "transform--trace": lambda tmp: _transform_argv(tmp, "out.hply", "no/t.jsonl"),
    "transform--output": lambda tmp: _transform_argv(tmp, "no/out.hply", "t.jsonl"),
}


@pytest.mark.parametrize("name", sorted(IO_FAILURES))
def test_io_failure_exits_3_with_one_json_error(name, tmp_path, capsys):
    argv = IO_FAILURES[name](tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code = run(argv)
    captured = capsys.readouterr()
    assert sorted(tmp_path.rglob("*")) == before  # a failed command leaves no file behind
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "FileNotFoundError"


@pytest.mark.parametrize("name", ["transform--trace", "transform--output"])
def test_failed_transform_leaves_existing_files_unchanged(name, tmp_path, capsys):
    argv = IO_FAILURES[name](tmp_path)
    for existing in ("out.hply", "t.jsonl"):
        (tmp_path / existing).write_bytes(b"existing " + existing.encode())
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")}
    code = run(argv)
    capsys.readouterr()
    assert code == 3
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before


def _out_of_memory(*args):
    raise MemoryError("cannot allocate")


# a command by the function, called before it prints anything, that runs out of memory
OUT_OF_MEMORY = {
    "build_context": ["verify", *GEOMETRY, "--runs", "1"],
    "map_layout": ["map", *GEOMETRY[:6]],
}


@pytest.mark.parametrize("name", sorted(OUT_OF_MEMORY))
def test_memory_error_exits_2_with_one_json_error(name, monkeypatch, capsys):
    monkeypatch.setattr(cli, name, _out_of_memory)
    code = run(OUT_OF_MEMORY[name])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "MemoryError", "message": "cannot allocate"}
