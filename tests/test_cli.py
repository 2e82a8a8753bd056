import csv
import json

import pytest

import hybridntt.cli as cli
from hybridntt.modmath import build_context
from hybridntt.reference import (
    Polynomial,
    forward_values,
    random_polynomial,
    read_polynomial,
    write_polynomial,
)


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
]


BAD_SWEEPS = ["0..8", "-4..8", "-1..-1", "0", "-2"]


def _config_argv(command, text):
    def argv(tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        if command == "params":
            return ["params", "--config", str(cfg)]
        src = tmp_path / "in.hply"
        write_polynomial(str(src), random_polynomial(build_context(97, 16), 1))
        return ["transform", str(src), str(tmp_path / "out.hply"), "--config", str(cfg)]

    return argv


def _fixed_argv(*args):
    return lambda tmp_path: list(args)


REJECTED = {
    **{f"{command}-config-{i}": _config_argv(command, text)
       for command in ("params", "transform") for i, text in enumerate(BAD_CONFIG_TEXTS)},
    **{f"verify-runs{runs}": _fixed_argv("verify", "--n", "16", "--npart", "8", "--p", "2",
                                         "--q", "97", "--runs", runs)
       for runs in ("0", "-3")},
    **{f"analyze{flag}={sweep}": _fixed_argv("analyze", f"{flag}={sweep}")
       for flag in ("--sweep-n", "--sweep-p") for sweep in BAD_SWEEPS},
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
