"""Host-time benchmark of the hybridntt simulator.

    python3 bench/run.py --workload transform-large|trace-audit|polymul-small
                         [--seed N] [--seconds S] [--trace 0|1]

Measures the wall time and memory the simulator takes on this host, never
the modelled hardware numbers; those appear only as simulated statistics
in the traced run.  Each workload is a closed loop with one client in one
thread.  Inputs come from the seed through the benchmark's own splitmix64
and are drawn before anything is timed.  Every output is checked.

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the line before it records the run's context.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run alternates
untraced ops with ops whose calls into the program's public functions are
wrapped in spans, and the metrics are per layer.  The exit code is 0 only
when every op was correct.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import struct
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

DEFAULT_SEED = 1
N_PART = 256
P = 16
PRIME_FLOOR = 1 << 59  # the word-size modulus floor of the acceptance suite
_MASK64 = (1 << 64) - 1

E2E = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mib", "MiB"), ("ok_ratio", "ratio"))

# traced public functions by module; run_transform is split by its trace flag
TRACED = {
    "modmath": ("find_ntt_prime", "build_context"),
    "fragmentation": ("map_layout", "access_schedule", "verify_conflict_free", "verify_burst"),
    "dataflow": ("run_transform", "audit_trace"),
    "twiddles": ("arrange_twiddles",),
    "reference": (
        "forward_values", "inverse_values", "pointwise_mul",
        "read_polynomial", "write_polynomial", "naive_negacyclic_mul",
    ),
    "cli": ("main", "_write_trace_jsonl"),
}
OP_LABELS = (
    "modmath.find_ntt_prime", "modmath.build_context",
    "fragmentation.map_layout", "fragmentation.access_schedule",
    "fragmentation.verify_conflict_free", "fragmentation.verify_burst",
    "dataflow.run_transform", "dataflow.run_transform_traced", "dataflow.audit_trace",
    "twiddles.arrange_twiddles",
    "reference.forward_values", "reference.inverse_values", "reference.pointwise_mul",
    "reference.read_polynomial", "reference.write_polynomial",
    "cli.write_trace_jsonl",
)
SETUP_LABELS = (
    "modmath.find_ntt_prime", "modmath.build_context", "reference.write_polynomial",
)
CHECK_LABELS = ("reference.forward_values", "reference.naive_negacyclic_mul")
SIMULATED = (
    ("dataflow.read_rounds", "count"), ("dataflow.write_rounds", "count"),
    ("dataflow.elements_read", "count"), ("dataflow.elements_written", "count"),
    ("dataflow.lane_ops", "count"), ("dataflow.arith_lane_ops", "count"),
    ("dataflow.swap_lane_ops", "count"), ("dataflow.useful_lane_ratio", "ratio"),
    ("fragmentation.rounds_checked", "count"), ("fragmentation.conflicts", "count"),
    ("fragmentation.burst_violations", "count"),
    ("twiddles.copies", "count"), ("twiddles.distinct", "count"),
    ("perfmodel.cycle_estimate", "cycles"), ("perfmodel.butterflies_per_transform", "count"),
    ("perfmodel.external_bytes", "B"), ("perfmodel.ceiling_ops", "1/s"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for label in OP_LABELS:
        units[f"{label}.calls"] = "calls/op"
        units[f"{label}.self_s"] = "s/op"
    units["cli.main.calls"] = "calls/op"
    units["cli.glue_s"] = "s/op"
    for label in SETUP_LABELS:
        units[f"setup.{label}.self_s"] = "s"
    units["setup.cli.glue_s"] = "s"
    for label in CHECK_LABELS:
        units[f"check.{label}.calls"] = "count"
        units[f"check.{label}.self_s"] = "s"
    units.update({
        "bench.traced_op_s": "s", "bench.untraced_op_s": "s",
        "bench.tracing_overhead_s": "s", "bench.unaccounted_s": "s",
        "dataflow.host_ns_per_butterfly": "ns",
        "cli.jsonl_bytes": "B/op", "cli.jsonl_records": "records/op",
    })
    units.update(SIMULATED)
    return units


def splitmix64(seed):
    """The benchmark's own input generator, so inputs never change with the program."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def draw(rng, count):
    return [next(rng) for _ in range(count)]


def load_program():
    """Import hybridntt from this checkout's src/ and nowhere else."""
    if not (SRC / "hybridntt" / "__init__.py").is_file():
        sys.exit(f"bench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import hybridntt

    if Path(hybridntt.__file__).resolve().parent != SRC / "hybridntt":
        sys.exit(f"bench: hybridntt imported from {hybridntt.__file__}, not {SRC}")
    import hybridntt.cli  # the one module the package itself does not import

    return hybridntt


def trace_targets(hb):
    def run_transform_label(args, kwargs):
        traced = kwargs.get("trace", args[3] if len(args) > 3 else False)
        return "dataflow.run_transform_traced" if traced else "dataflow.run_transform"

    targets = {}
    for module, names in TRACED.items():
        for name in names:
            targets[(getattr(hb, module), name)] = f"{module}.{name.lstrip('_')}"
    targets[(hb.dataflow, "run_transform")] = run_transform_label
    return targets


class Ledger:
    """Attempted and failed ops.

    Each output is compared with the first output of the same input slot as
    it arrives; after the timed loop those first outputs are compared with
    the reference, so every output is checked while the reference runs once
    per distinct input.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.first = {}
        self.matching = defaultdict(list)  # slot -> ops whose output equals first[slot]

    def fail(self, op, reason):
        self.failed.add(op)
        sys.stderr.write(f"bench: op {op} failed: {reason}\n")

    def record(self, op, slot, output):
        if slot not in self.first:
            self.first[slot] = output
        if output == self.first[slot]:
            self.matching[slot].append(op)
        else:
            self.fail(op, f"output differs from an earlier output for input {slot}")

    def settle(self, expected):
        """Fail every op whose slot's output differs from expected(slot)."""
        for slot, output in self.first.items():
            if output != expected(slot):
                for op in self.matching[slot]:
                    self.fail(op, f"output for input {slot} differs from the reference")

    @property
    def failed_ratio(self):
        if self.attempted < 1:
            raise ValueError("no op was attempted")
        return len(self.failed) / self.attempted

    @property
    def correct(self):
        return self.attempted >= 1 and not self.failed


class TransformLarge:
    """Untraced engine transforms at the largest legal size."""

    name = "transform-large"
    n = 1 << 16
    unit = 1  # ops per timing unit
    setup_repeats = 5
    pool = 4  # distinct inputs; bounds the reference work after the loop

    def __init__(self, hb, rng, workdir):
        self.hb = hb
        self.words = [draw(rng, self.n) for _ in range(self.pool)]
        self.ctx = None

    def setup(self):
        self.ctx = None
        q = self.hb.modmath.find_ntt_prime(self.n, PRIME_FLOOR)
        self.ctx = self.hb.modmath.build_context(q, self.n)

    def arm(self):
        q = self.ctx.q
        self.config = self.hb.dataflow.EngineConfig(self.n, N_PART, P)
        self.inputs = [self.hb.reference.Polynomial([w % q for w in ws], self.ctx) for ws in self.words]
        self.words = None  # 64-bit draws no longer needed; keep them out of peak RSS

    def slot(self, op):
        return op % self.pool

    def op(self, op):
        out, _ = self.hb.dataflow.run_transform(self.inputs[self.slot(op)], self.config, self.ctx)
        return out

    def collect(self, op, out):
        return out.coeffs

    def expected(self, slot):
        return self.hb.reference.forward_values(self.inputs[slot].coeffs, self.ctx)

    def sizes(self):
        return {"n": self.n, "n_part": N_PART, "p": P, "q": self.ctx.q, "distinct_inputs": self.pool}

    def trace_metrics(self):
        return {}


class PolymulSmall:
    """Negacyclic products through the golden transforms at small sizes."""

    name = "polymul-small"
    sizes_n = tuple(1 << k for k in range(4, 9))
    n = 0  # no engine transform
    unit = len(sizes_n)  # one product per size, round robin
    setup_repeats = 25
    pairs = 32  # distinct input pairs per size

    def __init__(self, hb, rng, workdir):
        self.hb = hb
        self.words = {n: [(draw(rng, n), draw(rng, n)) for _ in range(self.pairs)] for n in self.sizes_n}
        self.ctxs = {}

    def setup(self):
        self.ctxs = {}
        for n in self.sizes_n:
            q = self.hb.modmath.find_ntt_prime(n, PRIME_FLOOR)
            self.ctxs[n] = self.hb.modmath.build_context(q, n)

    def arm(self):
        poly = self.hb.reference.Polynomial
        self.inputs = {}
        for n, pairs in self.words.items():
            ctx = self.ctxs[n]
            self.inputs[n] = [
                (poly([w % ctx.q for w in a], ctx), poly([w % ctx.q for w in b], ctx)) for a, b in pairs
            ]

    def slot(self, op):
        return self.sizes_n[op % self.unit], (op // self.unit) % self.pairs

    def op(self, op):
        ref = self.hb.reference
        n, pair = self.slot(op)
        a, b = self.inputs[n][pair]
        ctx = self.ctxs[n]
        a_hat = ref.Polynomial(ref.forward_values(a.coeffs, ctx), ctx)
        b_hat = ref.Polynomial(ref.forward_values(b.coeffs, ctx), ctx)
        return ref.inverse_values(ref.pointwise_mul(a_hat, b_hat).coeffs, ctx)

    def collect(self, op, out):
        return out

    def expected(self, slot):
        n, pair = slot
        a, b = self.inputs[n][pair]
        return self.hb.reference.naive_negacyclic_mul(a, b).coeffs

    def sizes(self):
        return {
            "n": list(self.sizes_n), "q": [self.ctxs[n].q for n in self.sizes_n],
            "distinct_pairs_per_n": self.pairs,
        }

    def trace_metrics(self):
        return {}


class TraceAudit:
    """The certification path for one configuration, through cli.main.

    One op is `map --report`, `verify --runs 1` and `transform --trace`.
    Each must exit 0, verify must report ok, the transform output must equal
    forward_values of the input, and the written trace must reconcile with
    perfmodel.
    """

    name = "trace-audit"
    n = 1 << 13  # S×3,B×5 with 64 passes at n_part = 256
    unit = 1
    setup_repeats = 15

    def __init__(self, hb, rng, workdir):
        self.hb = hb
        self.words = draw(rng, self.n)
        self.verify_seed = next(rng) >> 1
        files = ("cfg.json", "in.hply", "map.json", "verify.json", "out.hply", "trace.jsonl")
        self.cfg, self.input, self.map_json, self.verify_json, self.output, self.trace = (
            str(workdir / f) for f in files
        )
        self.config = hb.dataflow.EngineConfig(self.n, N_PART, P)
        self.counts = self.report = None

    def setup(self):
        hb = self.hb
        argv = ["params", "--n", str(self.n), "--npart", str(N_PART), "--p", str(P), "--out", self.cfg]
        if hb.cli.main(argv) != 0:
            raise RuntimeError("params failed")
        with open(self.cfg) as fh:
            q = json.load(fh)["q"]
        self.ctx = hb.modmath.build_context(q, self.n)
        hb.reference.write_polynomial(self.input, hb.reference.Polynomial([w % q for w in self.words], self.ctx))

    def arm(self):
        pass

    def slot(self, op):
        return 0

    def op(self, op):
        main = self.hb.cli.main
        return (
            main(["map", "--config", self.cfg, "--report", self.map_json]),
            main(["verify", "--config", self.cfg, "--runs", "1",
                  "--seed", str(self.verify_seed + op), "--out", self.verify_json]),
            main(["transform", self.input, self.output, "--config", self.cfg, "--trace", self.trace]),
        )

    def collect(self, op, exit_codes):
        try:
            if exit_codes != (0, 0, 0):
                raise RuntimeError(f"exit codes (map, verify, transform) = {exit_codes}")
            with open(self.verify_json) as fh:
                if json.load(fh)["ok"] is not True:
                    raise RuntimeError("verify reported ok: false")
            with open(self.map_json) as fh:
                report = json.load(fh)
            counts = trace_counts(self.trace, self.hb.dataflow)
            problems = reconcile(counts, report, self.config, self.hb)
            if problems:
                raise RuntimeError("simulated statistics do not reconcile: " + "; ".join(problems))
            self.counts, self.report = counts, report
            return read_hply(self.output)
        finally:
            for path in (self.map_json, self.verify_json, self.output, self.trace):
                if os.path.exists(path):
                    os.remove(path)

    def expected(self, slot):
        return self.hb.reference.forward_values([w % self.ctx.q for w in self.words], self.ctx)

    def sizes(self):
        return {"n": self.n, "n_part": N_PART, "p": P, "q": self.ctx.q, "verify_runs": 1}

    def trace_metrics(self):
        """Counts from the last op's trace file and map report, with perfmodel's."""
        hb, cfg, c = self.hb, self.config, self.counts
        if c is None:
            return {}
        schedule = hb.dataflow.mode_schedule(cfg.n, cfg.n_part)
        stats = hb.twiddles.replication_report(hb.twiddles.arrange_twiddles(cfg, schedule, self.ctx))
        lane_ops = c["arith_lane_ops"] + c["swap_lane_ops"]
        return {
            **{f"dataflow.{k}": v for k, v in c.items() if k not in ("records", "bytes")},
            "dataflow.lane_ops": lane_ops,
            "dataflow.useful_lane_ratio": c["arith_lane_ops"] / lane_ops,
            "fragmentation.rounds_checked": self.report["rounds_checked"],
            "fragmentation.conflicts": len(self.report["conflicts"]),
            "fragmentation.burst_violations": len(self.report["burst_violations"]),
            "twiddles.copies": stats.copies,
            "twiddles.distinct": stats.distinct,
            "perfmodel.cycle_estimate": hb.perfmodel.cycle_estimate(cfg, 0),
            "perfmodel.butterflies_per_transform": hb.perfmodel.butterflies_per_transform(cfg.n),
            "perfmodel.external_bytes": 2 * cfg.n * 8,
            "perfmodel.ceiling_ops": hb.perfmodel.peak_throughput(cfg, 0),
            "cli.jsonl_bytes": c["bytes"],
            "cli.jsonl_records": c["records"],
        }


WORKLOADS = {w.name: w for w in (TransformLarge, TraceAudit, PolymulSmall)}


def read_hply(path):
    """Coefficients of an HPLY file, parsed here independently of the program."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version, n, _q = struct.unpack_from("<4sIQQ", data)
    body = data[struct.calcsize("<4sIQQ"):]
    if magic != b"HPLY" or version != 1 or len(body) != 8 * n:
        raise ValueError(f"malformed HPLY output {path}")
    return list(struct.unpack(f"<{n}Q", body))


def trace_counts(path, dataflow):
    """Rounds, element moves and lane operations recorded in a JSONL trace."""
    c = dict.fromkeys(
        ("read_rounds", "write_rounds", "elements_read", "elements_written",
         "arith_lane_ops", "swap_lane_ops", "records"), 0)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            c["records"] += 1
            kind = rec["kind"]
            if kind == "bu":
                c["arith_lane_ops" if rec["mode"] == dataflow.BUTTERFLY else "swap_lane_ops"] += 1
            elif kind in ("read", "write"):
                c[f"{kind}_rounds"] += 1
                c["elements_read" if kind == "read" else "elements_written"] += len(rec["touches"])
            else:
                raise ValueError(f"unknown trace record kind {kind!r}")
    c["bytes"] = os.path.getsize(path)
    return c


def reconcile(c, map_report, cfg, hb):
    """Failed checks of the simulated counts against perfmodel, as messages."""
    m = cfg.n // cfg.n_part
    swap_stages = hb.dataflow.mode_schedule(cfg.n, cfg.n_part).second_half.swap_stages
    cycles = hb.perfmodel.cycle_estimate(cfg, 0)
    checks = (
        ("read_rounds == cycle_estimate(cfg, 0)", c["read_rounds"], cycles),
        ("write_rounds == cycle_estimate(cfg, 0)", c["write_rounds"], cycles),
        ("arith_lane_ops == butterflies_per_transform(n)", c["arith_lane_ops"],
         hb.perfmodel.butterflies_per_transform(cfg.n)),
        ("swap_lane_ops == m * swap_stages * n_part/2", c["swap_lane_ops"], m * swap_stages * cfg.n_part // 2),
        ("map rounds_checked == read_rounds + write_rounds", map_report["rounds_checked"],
         c["read_rounds"] + c["write_rounds"]),
    )
    return [f"{name}: {got} != {want}" for name, got, want in checks if got != want]


def run_unit(wl, ledger, spans=nullcontext):
    """One timing unit of wl.unit ops; returns the seconds spent in the ops.

    spans() is entered around the unit.  Outputs are collected and checked
    after the unit, outside the timing.
    """
    handles = []
    spent = 0.0
    with spans():
        for _ in range(wl.unit):
            op = ledger.attempted
            ledger.attempted += 1
            start = time.perf_counter()
            try:
                handles.append((op, wl.op(op)))
            except Exception:
                ledger.fail(op, traceback.format_exc())
            spent += time.perf_counter() - start
    for op, handle in handles:
        try:
            ledger.record(op, wl.slot(op), wl.collect(op, handle))
        except Exception:
            ledger.fail(op, traceback.format_exc())
    return spent


def host_kernel():
    """A fixed pure-Python loop shaped like the simulator's: Shoup products over a list."""
    q = (1 << 61) - 1
    w = 0x9E3779B97F4A7C1
    w_shoup = (w << 64) // q
    a = list(range(1, 4097))
    for j in range(4096):
        y = a[j]
        v = y * w - ((y * w_shoup) >> 64) * q
        a[j] = v - q if v >= q else v
    return a


class HostPace:
    """Host times scaled to a host of nominal speed.

    Other tenants of a shared host change how fast it runs Python by up to
    half again, for tens of seconds at a time, which no number of samples
    within one run averages out.  So the fixed host_kernel is timed when the
    pace starts and again after every `every` seconds of measured time; the
    times measured in between are scaled by NOMINAL_KERNEL_S over the mean
    of the two kernel times.  The kernel calls no program code, so a faster
    program still shows in full.
    """

    NOMINAL_KERNEL_S = 1e-3  # host_kernel on an unloaded 2-core host

    def __init__(self, every=0.25):
        self.every = every
        self.pending = []
        self.scaled = []
        self.kernel_s = [self._kernel_s()]

    @staticmethod
    def _kernel_s():
        """The fastest of a few kernel runs, so one interruption does not count."""
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            host_kernel()
            samples.append(time.perf_counter() - start)
        return min(samples)

    def add(self, seconds):
        self.pending.append(seconds)
        if sum(self.pending) >= self.every:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        self.kernel_s.append(self._kernel_s())
        kernel = (self.kernel_s[-2] + self.kernel_s[-1]) / 2
        self.scaled.extend(s * self.NOMINAL_KERNEL_S / kernel for s in self.pending)
        self.pending = []


def measure(wl, seconds, tracer=None):
    """Set up, warm up, run the timed loop and check every output.

    Returns (metrics, context, ledger).  Untraced, set-up runs
    wl.setup_repeats times and its median is reported; traced, it runs once
    inside spans, and the loop alternates untraced and traced units.
    """
    ledger = Ledger()
    targets = trace_targets(wl.hb)
    setup_s = HostPace()
    if tracer:
        tracer.phase = "setup"
        with tracer.installed(targets):
            wl.setup()
        tracer.phase = "op"
    else:
        for _ in range(wl.setup_repeats):
            start = time.perf_counter()
            wl.setup()
            setup_s.add(time.perf_counter() - start)
        setup_s.flush()
    wl.arm()
    run_unit(wl, ledger)  # warm-up: lazy set-up and allocator growth stay out of the timing
    plain, traced = [], []
    unit_s = HostPace()
    while sum(plain) + sum(traced) < seconds or not plain or (tracer and not traced):
        if tracer and len(traced) < len(plain):
            traced.append(run_unit(wl, ledger, lambda: tracer.installed(targets)))
        else:
            plain.append(run_unit(wl, ledger))
            unit_s.add(plain[-1])
    unit_s.flush()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.phase = "check"
        with tracer.installed(targets):
            ledger.settle(wl.expected)
        metrics = per_layer(wl, tracer, plain, traced)
    else:
        ledger.settle(wl.expected)
        metrics = {
            "setup_s": statistics.median(setup_s.scaled),
            "ops_per_s": wl.unit / statistics.median(unit_s.scaled),
            "peak_rss_mib": peak_rss_mib,
            "ok_ratio": 1.0 - ledger.failed_ratio,
        }
    context = {
        "workload": wl.name, "seconds": seconds, "sizes": wl.sizes(),
        "ops_per_unit": wl.unit, "untraced_units": len(plain), "traced_units": len(traced),
        "unit_s": {
            "min": min(plain), "median": statistics.median(plain), "max": max(plain),
            "mean_ops_per_s": wl.unit * len(plain) / sum(plain),
        },
        "setup_samples_s": setup_s.scaled,
        "host_kernel_s": {
            "nominal": HostPace.NOMINAL_KERNEL_S,
            "quartiles": statistics.quantiles(setup_s.kernel_s + unit_s.kernel_s, n=4),
        },
        "peak_rss_mib": peak_rss_mib,
    }
    return metrics, context, ledger


def per_layer(wl, tracer, plain, traced):
    """Per-op calls and self seconds by layer, with the traced run's accounting.

    bench.unaccounted_s is the traced op time not covered by any span,
    cli.main's self time included as cli.glue_s; bench.tracing_overhead_s is
    the traced minus the untraced mean op time of the same run.
    """
    ops = len(traced) * wl.unit
    calls, self_s = tracer.calls, tracer.self_s
    m = {}
    for label in OP_LABELS:
        m[f"{label}.calls"] = calls[("op", label)] / ops
        m[f"{label}.self_s"] = self_s[("op", label)] / ops
    m["cli.main.calls"] = calls[("op", "cli.main")] / ops
    m["cli.glue_s"] = self_s[("op", "cli.main")] / ops
    for label in SETUP_LABELS:
        m[f"setup.{label}.self_s"] = self_s[("setup", label)]
    m["setup.cli.glue_s"] = self_s[("setup", "cli.main")]
    for label in CHECK_LABELS:
        m[f"check.{label}.calls"] = calls[("check", label)]
        m[f"check.{label}.self_s"] = self_s[("check", label)]
    traced_op = sum(traced) / ops
    untraced_op = sum(plain) / (len(plain) * wl.unit)
    spans_op = sum(s for (phase, _), s in self_s.items() if phase == "op") / ops
    engine_calls = calls[("op", "dataflow.run_transform")]
    butterflies = (wl.n // 2) * (wl.n.bit_length() - 1)
    m.update({
        "bench.traced_op_s": traced_op,
        "bench.untraced_op_s": untraced_op,
        "bench.tracing_overhead_s": traced_op - untraced_op,
        "bench.unaccounted_s": traced_op - spans_op,
        "dataflow.host_ns_per_butterfly": (
            self_s[("op", "dataflow.run_transform")] / engine_calls / butterflies * 1e9 if engine_calls else 0.0
        ),
        "cli.jsonl_bytes": 0, "cli.jsonl_records": 0,
    })
    m.update(dict.fromkeys((name for name, _ in SIMULATED), 0))
    m.update(wl.trace_metrics())
    return m


def git_commit():
    """The checkout's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hb = load_program()
    import numpy

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        wl = WORKLOADS[args.workload](hb, splitmix64(args.seed), Path(work))
        metrics, context, ledger = measure(wl, args.seconds, Tracer() if args.trace else None)

    units = per_layer_units() if args.trace else dict(E2E)
    context.update({
        "seed": args.seed, "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__, "commit": git_commit(),
    })
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
