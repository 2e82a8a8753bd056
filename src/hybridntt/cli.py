"""Command-line front end.

Subcommands:
  params     discover an NTT-friendly prime and emit a config JSON
  transform  run the engine on an HPLY polynomial file
  verify     golden-equivalence + audit suite over seeded random inputs
  map        emit the bank layout CSV and conflict/burst audit JSON
  schedule   print the mode schedule, stage table, and twiddle grid
  analyze    roofline / throughput / bandwidth reports

Exit codes: 0 success, 1 verification failure, 2 bad configuration or
arguments (or memory exhausted), 3 I/O error.  Failures emit one JSON object on stderr.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from .dataflow import (
    DIRECTIONS,
    EngineConfig,
    audit_trace,
    classify_stages,
    mode_schedule,
    run_transform,
)
from .fragmentation import (
    BadConfig,
    access_schedule,
    map_layout,
    verify_burst,
    verify_conflict_free,
)
from .modmath import (
    NoPrimeFound,
    NotNttFriendly,
    PrimeModulus,
    build_context,
    find_ntt_prime,
    write_twiddle_csv,
)
from .perfmodel import (
    ArchKind,
    RooflineParams,
    analyze,
    bandwidth_demand,
    cycle_estimate,
    peak_throughput,
    roofline_table,
    uram_intensity,
    write_roofline_csv,
)
from .reference import (
    ContextMismatch,
    Polynomial,
    forward_values,
    read_polynomial,
    splitmix64,
    write_polynomial,
)
from .twiddles import arrange_twiddles, distinct_engine_factors, replication_report

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3

DEFAULT_PRIME_FLOOR = 1 << 59


def _emit_error(kind, message):
    sys.stderr.write(json.dumps({"error": kind, "message": str(message)}, sort_keys=True) + "\n")


def _dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


CONFIG_KEYS = ("n", "n_part", "p", "q", "freq_mhz", "hbm_gbps", "seed")
INTEGER_KEYS = ("n", "n_part", "p", "q", "seed")


def _load_run_config(args):
    """Merge config file values with flag overrides; flags win."""
    merged = {"freq_mhz": 300.0, "hbm_gbps": 460.0, "seed": 1}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise BadConfig("config file must hold a JSON object")
        unknown = set(data) - set(CONFIG_KEYS)
        if unknown:
            raise BadConfig(f"unknown config keys: {sorted(unknown)}")
        merged.update(data)
    for key, attr in (
        ("n", "n"),
        ("n_part", "npart"),
        ("p", "p"),
        ("q", "q"),
        ("freq_mhz", "freq_mhz"),
        ("hbm_gbps", "hbm_gbps"),
        ("seed", "seed"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        finite = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
        if isinstance(value, bool) or not finite:
            raise BadConfig(f"config {key}={value!r} must be a finite number")
        if key in INTEGER_KEYS and value != int(value):
            raise BadConfig(f"config {key}={value!r} must be an integer")
    return merged


def _engine_config(merged):
    for key in ("n", "n_part", "p"):
        if key not in merged:
            raise BadConfig(f"missing required parameter: {key}")
    return EngineConfig(
        n=int(merged["n"]),
        n_part=int(merged["n_part"]),
        p=int(merged["p"]),
        freq_mhz=float(merged["freq_mhz"]),
        hbm_gbps=float(merged["hbm_gbps"]),
    )


def _resolve_q(merged, floor):
    if merged.get("q") is not None:
        q = int(merged["q"])
        PrimeModulus(q, int(merged["n"]))  # raises NotNttFriendly when unusable
        return q
    return find_ntt_prime(int(merged["n"]), floor)


def _add_config_flags(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--n", type=int, help="transform length")
    sub.add_argument("--npart", type=int, help="engine length")
    sub.add_argument("--p", type=int, help="butterfly parallelism per stage")
    sub.add_argument("--q", type=int, help="modulus (discovered when omitted)")
    sub.add_argument("--freq-mhz", dest="freq_mhz", type=float)
    sub.add_argument("--hbm-gbps", dest="hbm_gbps", type=float)
    sub.add_argument("--seed", type=int)


def cmd_params(args):
    merged = _load_run_config(args)
    config = _engine_config(merged)  # validates geometry
    q = _resolve_q(merged, args.prime_floor)
    out = {
        "n": config.n,
        "n_part": config.n_part,
        "p": config.p,
        "q": q,
        "freq_mhz": config.freq_mhz,
        "hbm_gbps": config.hbm_gbps,
        "seed": int(merged["seed"]),
    }
    _dump_json(out, args.out)
    if args.twiddle_csv:
        ctx = build_context(q, config.n)
        write_twiddle_csv(ctx, args.twiddle_csv)
    return EXIT_OK


def cmd_transform(args):
    poly = read_polynomial(args.input)
    merged = _load_run_config(args)
    for key, held in (("n", poly.ctx.n), ("q", poly.ctx.q)):
        if merged.get(key, held) != held:
            raise BadConfig(f"config {key}={merged[key]} but file holds {key}={held}")
    merged["n"] = poly.ctx.n
    config = _engine_config(merged)
    result, trace = run_transform(poly, config, poly.ctx, trace=bool(args.trace))
    writes = [(args.output, lambda path: write_polynomial(path, result))]
    if args.trace:
        writes.append((args.trace, lambda path: _write_trace_jsonl(trace, path)))
    # A regular file is written to a sibling and renamed over its target once
    # every file is written, so a failed transform changes none.  A device or
    # a pipe cannot be renamed over: it is written in place, after the siblings.
    in_place = [w for w in writes if os.path.exists(w[0]) and not os.path.isfile(w[0])]
    staged = [w for w in writes if w not in in_place]
    siblings = []
    try:
        for path, write in staged:
            head, tail = os.path.split(os.path.realpath(path))  # through a symlink, as open() writes
            siblings.append(os.path.join(head, f".{tail}.{os.getpid()}.tmp"))
            write(siblings[-1])
        for path, write in in_place:
            write(path)
        for (path, _), sibling in zip(staged, siblings):
            os.replace(sibling, os.path.realpath(path))
    finally:
        for sibling in siblings:
            with contextlib.suppress(FileNotFoundError):
                os.remove(sibling)
    return EXIT_OK


# Line templates that reproduce what json.JSONEncoder(sort_keys=True) writes
# for a trace record's fields, with its pairs as lists and its direction (or
# "bu") as "kind".  A lane's template is filled in per (half, stage) but for
# its inputs, iteration, outputs and, in arithmetic mode, its twiddle.
_ROUND_LINE = '{"iteration": %d, "kind": "%s", "round": %d, "touches": [%s]}\n'
_BU_LINE = (
    '{"bu": %d, "inputs": [%%d, %%d], "iteration": %%d, "kind": "bu", "lanes": [%d, %d], '
    '"mode": "%s", "nttu": %d, "outputs": [%%d, %%d], "round": %d, "stage": %d, '
    '"twiddle_index": %s}\n'
)


def _write_trace_jsonl(trace, path):
    """One JSON line per event, per pass: reads, lane operations stage by stage, writes.

    Written from the trace's arrays one pass at a time: a pass's rounds are
    formatted once for its reads and its writes, and its lanes of one stage
    with one template that holds every lane's line.
    """
    p = trace.config.p
    with open(path, "w") as fh:
        for plan, half in zip(trace.plan, trace.halves):
            count, rounds, width = half.touches.shape[:3]
            its = np.arange(plan.iteration, plan.iteration + count, dtype=np.uint64)[:, None]
            stages = []
            for st in plan.stages:
                lane1, lane2, x1, x2, tw, y1, y2 = half.lanes(st)
                twiddle = "null" if tw is None else "%d"
                template = "".join([_BU_LINE % (j % p, l1, l2, st.mode, j % p >> 1, j // p, st.stage, twiddle)
                                    for j, (l1, l2) in enumerate(zip(lane1.tolist(), lane2.tolist()))])
                columns = (x1, x2, np.broadcast_to(its, x1.shape), y1, y2)
                columns += () if tw is None else (tw.astype(np.uint64),)  # one dtype: values reach 2^62
                stages.append((template, np.stack(columns, axis=-1)))
            touches = ", ".join(["[%d, %d, %d]"] * width)
            for k in range(count):
                it = plan.iteration + k
                bodies = [touches % tuple(t) for t in half.touches[k].reshape(rounds, -1).tolist()]
                reads, writes = ("".join([_ROUND_LINE % (it, d, r, body) for r, body in enumerate(bodies)])
                                 for d in DIRECTIONS)
                fh.write(reads)
                fh.writelines([template % tuple(columns[k].ravel().tolist()) for template, columns in stages])
                fh.write(writes)


def cmd_verify(args):
    if args.runs < 1:
        raise BadConfig(f"--runs={args.runs} must be at least 1")
    merged = _load_run_config(args)
    config = _engine_config(merged)
    q = _resolve_q(merged, args.prime_floor)
    ctx = build_context(q, config.n)
    schedule = mode_schedule(config.n, config.n_part)
    assignment = arrange_twiddles(config, schedule, ctx)
    stream = splitmix64(int(merged["seed"]))
    matches = 0
    audits_passed = 0
    failures = []
    for run in range(args.runs):
        coeffs = [next(stream) % q for _ in range(config.n)]
        poly = Polynomial(coeffs, ctx)
        expected = forward_values(coeffs, ctx)
        got, trace = run_transform(poly, config, ctx, trace=not args.skip_audit)
        if got.coeffs == expected:
            matches += 1
        else:
            failures.append({"run": run, "kind": "mismatch"})
        if not args.skip_audit:
            report = audit_trace(trace, config, schedule, assignment)
            if report.ok:
                audits_passed += 1
            else:
                failures.append({"run": run, "kind": "audit", "detail": report.to_dict()})
    ok = matches == args.runs and (args.skip_audit or audits_passed == args.runs)
    _dump_json(
        {
            "config": {"n": config.n, "n_part": config.n_part, "p": config.p, "q": q},
            "runs": args.runs,
            "matches": matches,
            "audits_passed": None if args.skip_audit else audits_passed,
            "failures": failures,
            "ok": ok,
        },
        args.out,
    )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_map(args):
    merged = _load_run_config(args)
    config = _engine_config(merged)
    layout = map_layout(config.n, config.n_part, config.p)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "bank", "offset"])
            for i in range(layout.n):
                writer.writerow([i, layout.bank_of(i), layout.offset_of(i)])
    schedule = mode_schedule(config.n, config.n_part)
    rounds = access_schedule(layout, config, schedule)
    conflict = verify_conflict_free(rounds)
    burst = verify_burst(layout)
    report = {
        "config": {"n": config.n, "n_part": config.n_part, "p": config.p},
        "rounds_checked": conflict.rounds_checked,
        "conflicts": conflict.conflicts,
        "max_distinct_offsets": conflict.max_distinct_offsets,
        "burst_clean": burst.burst_clean,
        "burst_violations": burst.violations,
    }
    _dump_json(report, args.report)
    return EXIT_OK if conflict.clean and burst.burst_clean else EXIT_VERIFY


def cmd_schedule(args):
    merged = _load_run_config(args)
    config = _engine_config(merged)
    schedule = mode_schedule(config.n, config.n_part)
    if args.twiddles:  # written before anything is printed, so a failure prints nothing
        q = _resolve_q(merged, args.prime_floor)
        ctx = build_context(q, config.n)
        assignment = arrange_twiddles(config, schedule, ctx)
        grid = {
            f"it{it}.st{st}.u{u}": idxs
            for (it, st, u), idxs in sorted(assignment.grid.items())
        }
        _dump_json(grid, args.twiddles)
    print(f"iterations: {schedule.iterations}")
    print(f"first half:  {schedule.first_half.notation}")
    print(f"second half: {schedule.second_half.notation}")
    print("stage  stride  kind")
    for info in classify_stages(config):
        print(f"{info.stage:>5}  {info.stride:>6}  {info.kind}")
    if args.twiddles:
        stats = replication_report(assignment)
        print(
            f"twiddles: distinct per pass {len(distinct_engine_factors(assignment))}, "
            f"stored copies {stats.copies}, replication ratio {stats.ratio:.2f}"
        )
    return EXIT_OK


_ARCH_BY_NAME = {
    "stage": ArchKind.STAGE_BASED,
    "pipeline": ArchKind.PIPELINE_BASED,
    "hybrid": ArchKind.HYBRID,
}


def _parse_sweep(text):
    """'a..b' doubles from a to b inclusive; a single value stands alone."""
    lo, sep, hi = text.partition("..")
    lo = int(lo)
    hi = int(hi) if sep else lo
    if lo < 1:
        raise BadConfig(f"sweep {text!r} must start at 1 or more")
    values = []
    v = lo
    while v <= hi:
        values.append(v)
        v *= 2
    return values


def cmd_analyze(args):
    params = RooflineParams(
        bytes_per_element=args.bytes_per_element,
        twiddles_per_butterfly=args.w,
        hbm_gbps=args.hbm_gbps,
        freq_mhz=args.freq_mhz,
        twiddle_amortized_bytes=args.twiddle_bytes,
    )
    kinds = (
        list(_ARCH_BY_NAME.values())
        if args.arch == "all"
        else [_ARCH_BY_NAME[args.arch]]
    )
    n_values = _parse_sweep(args.sweep_n)
    p_values = _parse_sweep(args.sweep_p)
    rows = roofline_table(kinds, n_values, p_values, params, n_part=args.npart)
    if args.csv:
        write_roofline_csv(rows, args.csv)
    payload = [r.to_dict() for r in rows]
    if args.achieved_ops is not None:
        config = EngineConfig(
            n=n_values[0], n_part=args.npart, p=p_values[0],
            freq_mhz=args.freq_mhz, hbm_gbps=args.hbm_gbps,
        )
        demand = bandwidth_demand(config, args.achieved_ops, params)
        payload = {
            "rows": payload,
            "cycle_estimate": cycle_estimate(config, fill_drain=0),
            "ceiling_ops": peak_throughput(config, fill_drain=0),
            "uram_intensity": uram_intensity(config, params),
            "bandwidth_demand_gbps": demand.gbps,
            "memory_bound": demand.memory_bound,
        }
    _dump_json(payload, args.json)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="hybridntt", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_params = subs.add_parser("params", help="emit a config JSON with a discovered prime")
    _add_config_flags(p_params)
    p_params.add_argument("--prime-floor", type=int, default=DEFAULT_PRIME_FLOOR)
    p_params.add_argument("--out", help="write config JSON here instead of stdout")
    p_params.add_argument("--twiddle-csv", help="also dump the twiddle tables as CSV")
    p_params.set_defaults(func=cmd_params)

    p_tr = subs.add_parser("transform", help="HPLY in -> HPLY out through the engine")
    p_tr.add_argument("input")
    p_tr.add_argument("output")
    p_tr.add_argument("--config")
    p_tr.add_argument("--npart", type=int)
    p_tr.add_argument("--p", type=int)
    p_tr.add_argument("--trace", help="write one JSON record per engine event here")
    p_tr.set_defaults(func=cmd_transform)

    p_ver = subs.add_parser("verify", help="golden equivalence + audit over seeded inputs")
    _add_config_flags(p_ver)
    p_ver.add_argument("--runs", type=int, default=20)
    p_ver.add_argument("--prime-floor", type=int, default=DEFAULT_PRIME_FLOOR)
    p_ver.add_argument("--skip-audit", action="store_true")
    p_ver.add_argument("--out", help="write the JSON summary here instead of stdout")
    p_ver.set_defaults(func=cmd_verify)

    p_map = subs.add_parser("map", help="bank layout CSV plus conflict/burst audit")
    _add_config_flags(p_map)
    p_map.add_argument("--csv", help="write (index, bank, offset) rows here")
    p_map.add_argument("--report", help="write the audit JSON here instead of stdout")
    p_map.set_defaults(func=cmd_map)

    p_sch = subs.add_parser("schedule", help="mode schedule, stage table, twiddle grid")
    _add_config_flags(p_sch)
    p_sch.add_argument("--twiddles", help="write the twiddle grid JSON here")
    p_sch.add_argument("--prime-floor", type=int, default=DEFAULT_PRIME_FLOOR)
    p_sch.set_defaults(func=cmd_schedule)

    p_an = subs.add_parser("analyze", help="roofline and throughput reports")
    p_an.add_argument("--arch", choices=["stage", "pipeline", "hybrid", "all"], default="all")
    p_an.add_argument("--sweep-n", default="65536")
    p_an.add_argument("--sweep-p", default="16")
    p_an.add_argument("--npart", type=int, default=256)
    p_an.add_argument("--bytes-per-element", type=int, default=8)
    p_an.add_argument("--w", type=float, default=1.0)
    p_an.add_argument("--hbm-gbps", dest="hbm_gbps", type=float, default=460.0)
    p_an.add_argument("--freq-mhz", dest="freq_mhz", type=float, default=300.0)
    p_an.add_argument("--twiddle-bytes", type=float, default=0.0)
    p_an.add_argument("--achieved-ops", type=float, help="also report bandwidth demand at this rate")
    p_an.add_argument("--csv", help="write roofline rows as CSV")
    p_an.add_argument("--json", help="write the JSON payload here instead of stdout")
    p_an.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BadConfig, NotNttFriendly, NoPrimeFound, ContextMismatch) as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_CONFIG
    except (ValueError, json.JSONDecodeError) as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_CONFIG
    except OSError as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_IO
    except MemoryError as exc:  # exit 1 means only "verification failed"
        _emit_error(type(exc).__name__, exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
