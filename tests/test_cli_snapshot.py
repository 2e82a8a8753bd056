"""Byte-identity gate for the CLI over a fixed command set.

Each case runs one command in a fresh directory and pins the exit code and
the sha256 of stdout and of every file the command writes.  A refactor that
changes any output byte, however harmless it looks, fails here; update a
digest only together with a deliberate, documented change of output.
"""

import hashlib

import pytest

import hybridntt.cli as cli
from hybridntt.modmath import build_context, find_ntt_prime
from hybridntt.reference import random_polynomial, write_polynomial


def _input(tmp_path, n, q):
    path = tmp_path / "input" / f"in{n}.hply"
    path.parent.mkdir()
    write_polynomial(str(path), random_polynomial(build_context(q, n), 2024))
    return str(path)


def _transform(n, n_part, p, q):
    def argv(tmp_path, out):
        return ["transform", _input(tmp_path, n, q), str(out / "out.hply"),
                "--npart", str(n_part), "--p", str(p), "--trace", str(out / "trace.jsonl")]

    return argv


CASES = {
    "params-twiddle-csv": lambda tmp, out: [
        "params", "--n", "16", "--npart", "8", "--p", "2", "--q", "97",
        "--twiddle-csv", str(out / "tw.csv")],
    "map-16": lambda tmp, out: [
        "map", "--n", "16", "--npart", "8", "--p", "2",
        "--csv", str(out / "layout.csv"), "--report", str(out / "report.json")],
    "map-8192": lambda tmp, out: [
        "map", "--n", "8192", "--npart", "256", "--p", "16",
        "--csv", str(out / "layout.csv"), "--report", str(out / "report.json")],
    "schedule-twiddles": lambda tmp, out: [
        "schedule", "--n", "16", "--npart", "8", "--p", "2", "--q", "97",
        "--twiddles", str(out / "grid.json")],
    "verify-16": lambda tmp, out: [
        "verify", "--n", "16", "--npart", "8", "--p", "2", "--q", "97", "--runs", "3"],
    "verify-256": lambda tmp, out: [
        "verify", "--n", "256", "--npart", "256", "--p", "16", "--runs", "3"],
    "transform-16": _transform(16, 8, 2, 97),
    "transform-8192": _transform(8192, 256, 16, find_ntt_prime(8192, 1 << 59)),
    "analyze": lambda tmp, out: [
        "analyze", "--arch", "all", "--sweep-n", "256..65536", "--sweep-p", "2..16",
        "--achieved-ops", "64172", "--csv", str(out / "roofline.csv")],
}

# (exit code, stdout digest, {written file: digest})
EXPECTED = {
    "analyze": (
        0,
        "9c623496248f43c8e8038b8b0e2c26779dd5b12ff648dc49778a0b545ed9acae",
        {
            "roofline.csv": "b538dc13cdfec07d0599ea50b02cf4d8a0f74beb4212f17da5d0b2af3a947320",
        },
    ),
    "map-16": (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {
            "layout.csv": "85f10b91deafe4aec38b367b46a0a71711d14242a8e2dbad7827317ed3e45f67",
            "report.json": "cd32ca280f0434d5b658af64abf5f7b5663a4b59c1ab41cb05ca5b90743135d2",
        },
    ),
    "map-8192": (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {
            "layout.csv": "cee9652542cde4b18d7517fd464e8cc2fc7187e57e1405ad8cd439b9e578cc30",
            "report.json": "73f3bc9224178c298f61d3abd17893e0275c03f57bef119ec047272145aacd21",
        },
    ),
    "params-twiddle-csv": (
        0,
        "39277bbe9b43ad0f90a937c6786b930e33ec0d56fabbc2585f73a090a1b6d8af",
        {
            "tw.csv": "2831170c01cf0d17f2bf19fe9dab15405663e655fa7da17d5d9c3f1e06ef5802",
        },
    ),
    "schedule-twiddles": (
        0,
        "3d185cc225d3e1a66901b30f9aedec3cbc7037b79566a4f6f131e1ca9c28d622",
        {
            "grid.json": "da7809c995fb063619ff491cbccb61a71b70b09c39784cd5a4b01f9cf34c09e4",
        },
    ),
    "transform-16": (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {
            "out.hply": "92553050bce1d39695f1e83efca31dcbc23da76bf57c0b5fcf1ceb2225da0b58",
            "trace.jsonl": "94c0bc99226233842a3ca84bda2d841b9158fd0ea355f3e97781be324f8dd664",
        },
    ),
    "transform-8192": (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {
            "out.hply": "2157639231b356338e2370154302b5255de68295eee671af6cc868775a779ad9",
            "trace.jsonl": "095c72eca0bb58e56bd591fb9c21df2f1a69bdd10f16765151a85a41c400c4dd",
        },
    ),
    "verify-16": (
        0,
        "89445409a30e73a4f9b9a40f49617251e60e3548f10d05e73304a64eef574245",
        {},
    ),
    "verify-256": (
        0,
        "81b0eb54061a608d8d86fa6a1398d7eb9055ae64ae895f7c22146e25296656f0",
        {},
    ),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def snapshot(name, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    argv = CASES[name](tmp_path, out)
    capsys.readouterr()
    code = cli.main(argv)
    stdout = capsys.readouterr().out.encode()
    files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    return code, _sha(stdout), files


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, tmp_path, capsys):
    assert snapshot(name, tmp_path, capsys) == EXPECTED[name]
