"""Record a result set: every workload over several seeds, plus one traced run each.

    python3 bench/record.py --label after-my-change [--seeds 1-10] [--seconds 30]

Writes bench/baseline/<label>.json with each run's result and context, and
per metric the median, quartiles and spread ((q3 - q1) / median) over the
seeds.  Runs one benchmark process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"record: {workload} seed {seed} printed no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2])["context"]
    result["exit_code"] = proc.returncode
    return result


def summary(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    record = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for workload in ("transform-large", "trace-audit", "polymul-small"):
        runs = []
        for seed in range(first, last + 1):
            runs.append(bench(workload, seed, args.seconds, 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(workload, seed, runs[-1]["correct"], values, flush=True)
        traced = bench(workload, first, args.seconds, 1)
        record["workloads"][workload] = {"summary": summary(runs), "runs": runs, "traced": traced}
        for name, s in record["workloads"][workload]["summary"].items():
            print(f"  {name}: median {s['median']:.6g} spread {s['spread']}", flush=True)
    out = HERE / "baseline" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
