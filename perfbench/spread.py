"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads fig2-vem,misa-cell --seeds 1-10 \
        [--seconds 30] [--trace 0] [--out spread.json]

For every workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the distance
between the quartiles as a share of the median, beside the metric's bound from
BENCHMARK.json.  A run that exits nonzero or fails its checks stops the
tool.  A traced run's summary also holds the layer-specific metrics that
run.py writes to .perfbench_out/layers-<workload>-<seed>.json.  --out merges
the summary into a JSON file under the key "trace<0|1>" of each workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[2:]:
        if line.startswith("#"):
            print("   ", line)
    result = json.loads(lines[-1])
    if not result["correct"]:
        failed = [line for line in proc.stdout.splitlines() if "CHECK FAILED" in line]
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n" + "\n".join(failed))
    return result


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = json.loads(args.out.read_text()) if args.out and args.out.is_file() else {}

    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            result = run_one(workload, seed, seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.trace:
                layers = ROOT / ".perfbench_out" / f"layers-{workload}-{seed}.json"
                for name, value in json.loads(layers.read_text())["values"].items():
                    if value is not None and name not in result["metrics"]:
                        values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: attempted {result['attempted']}, " + ", ".join(
                f"{n} {m['value']:.6g}" for n, m in result["metrics"].items()
                if n in bounds), flush=True)
        summary = {name: summarize(v) for name, v in values.items()}
        for name, s in summary.items():
            if args.trace == 0 or len(args.seeds) > 1:
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                      f"q3 {s['q3']:.6g} spread {spread} bound {bounds.get(name)}", flush=True)
        out.setdefault(workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": seconds, "metrics": summary}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
