"""Run the benchmark repeatedly and report how steady each metric is.

    python3 benchmark/steady.py --runs 10 [--workloads axioms,closure] [--first-seed 1]
    python3 benchmark/steady.py --trace-twice

Run from the root of a checkout. The first form makes --runs runs of every
workload, each with its own seed, round-robin over the workloads and with
their order reversed on every other round, because the host's speed drifts
over minutes and interleaving spreads the drift over all workloads alike.
For each end-to-end metric it prints the median and the quartile spread,
(Q3 - Q1) / median from statistics.quantiles(values, n=4), next to the
metric's bound in BENCHMARK.json.

The second form makes two traced runs of every workload and checks that
every count (a per-layer metric with unit "count") is identical in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = BENCH["command"] + [
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(BENCH["run_seconds"]),
        "--trace",
        str(trace),
    ]
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    took = time.monotonic() - began
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    result["took_s"] = took
    return result


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def steadiness(workloads: list, runs: int, first_seed: int) -> dict:
    values = {w: {m["name"]: [] for m in BENCH["end_to_end"]} for w in workloads}
    for r in range(runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            result = run_once(w, first_seed + r, 0)
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"run {r} {w} seed {first_seed + r} ({result['took_s']:.1f} s): {shown}", flush=True)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {}
    for w in workloads:
        for name, vals in values[w].items():
            median, rel = spread(vals)
            report[f"{w}/{name}"] = {"median": median, "spread": rel, "values": vals}
            flag = "ok" if rel < bounds[name] / 3 else "WIDE"
            print(f"{w:12s} {name:12s} median {median:.6g} spread {rel:.4f} bound {bounds[name]} {flag}")
    return report


def trace_twice(workloads: list, seed: int) -> dict:
    counts = {m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"}
    report = {}
    for w in workloads:
        a, b = (run_once(w, seed, 1)["metrics"] for _ in range(2))
        differ = [k for k in counts if a.get(k, {}).get("value") != b.get(k, {}).get("value")]
        report[w] = {"counts": {k: a[k]["value"] for k in sorted(counts) if k in a}, "differ": differ}
        print(f"{w:12s} counts {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-twice", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.trace_twice:
        report = trace_twice(workloads, args.first_seed)
    else:
        report = steadiness(workloads, args.runs, args.first_seed)
    out = ROOT / ".bench_build" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
