"""Benchmark of the `voa` exact engine: one workload per invocation.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `voa` from that checkout's
`src/` and from nowhere else. Every measured call runs in a fresh
interpreter (benchmark/child.py), so every lru_cache starts cold, as it
does for each command a user runs. Every run's output is checked against
the exact digests pinned in benchmark/pins.json.

The host is shared and its speed drifts, so the run pins itself, its
jobs and a low-priority speed gauge (benchmark/calibrator.py) to one core,
and reports every time in reference seconds: the measured time scaled by
how fast the gauge ran on that core over the same interval.

--trace 0 repeats cold runs until the next one would end after S seconds
(at least one) and reports the end-to-end metrics: the median timed call
(wall_ref_s), the median time from spawning an interpreter until `voa` is
imported and the inputs are built (setup_s, also sampled by set-up-only
processes), the median peak RSS (peak_rss_mb) and the share of processes
that passed every check (pass_ratio). The record keeps the unscaled times.

--trace 1 makes one untraced and one traced cold run and reports the
per-layer metrics of benchmark/tracer.py.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Results and span dumps go to .bench_build/ in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrator  # noqa: E402

CHILD = HERE / "child.py"
PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(PINS)

SETUP_PROBES = 5  # set-up-only processes per timed run, for a steadier setup_s
RUN_LIMIT_S = 170  # every run must end within 180 s, children included

# per-layer metrics: span name -> which of its figures are reported
CALLS_SELF = (
    "scalars.mul",
    "scalars.add",
    "scalars.inverse",
    "state_space.vector_add",
    "state_space.vector_scale",
    "vertex_engine.vertex_mode",
    "vertex_engine.vertex_window",
    "linalg.echelon_insert",
    "cli.run_suite",
)
CALLS_TOTAL = (
    "vertex_engine.virasoro_apply",
    "vertex_engine.heis_apply",
    "linalg.operator_kernel",
)
TOTAL_ONLY = (
    "structure_analysis.close_subalgebra",
    "structure_analysis.certify_virasoro_vector",
    "structure_analysis.verify_w_tensor_split",
    "structure_analysis.fixed_point_subspace",
    "cli.axiom_report",
    "cli.emit",
)


def monotonic() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the host, so a
    # child's reading can be compared with the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, gauge_path: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = monotonic()
        self.build = root / ".bench_build"
        self.build.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        # compile once into the build directory, as an installed package would
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(self.build / "pycache"),
        )
        self.attempted = 0
        self.failures: list = []
        self.setups: list = []  # (measured s, reference s)
        self.gauge_path = gauge_path
        self.gauge = calibrator.Gauge(str(gauge_path))
        self.first = self.gauge.snapshot()
        # wait for the gauge's first round, so a run-wide rate exists
        deadline = monotonic() + 30
        while self.gauge.snapshot()[0] == 0:
            if monotonic() > deadline:
                raise RuntimeError("the speed gauge did not start")
            time.sleep(0.01)

    def speed(self, before: tuple, after: tuple) -> float:
        """The gauge's rounds per CPU second between two snapshots.

        An interval in which the gauge got no slice of the core (possible
        only for short ones) takes the rate over the whole run so far.
        """
        return calibrator.rate(before, after) or calibrator.rate(self.first, self.gauge.snapshot())

    def spawn(self, mode: str, spans: Path | None = None) -> dict | None:
        """One fresh interpreter; returns its report, or None if it failed."""
        cmd = [
            sys.executable,
            str(CHILD),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--mode",
            mode,
            "--gauge",
            str(self.gauge_path),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.attempted += 1
        timeout = max(5.0, RUN_LIMIT_S - (monotonic() - self.started))
        gauge_before = self.gauge.snapshot()
        spawned = monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return self.fail(mode, f"no result within {timeout:.0f} s")
        if proc.returncode != 0:
            return self.fail(mode, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self.fail(mode, f"no report on stdout: {proc.stdout[-500:]!r}")
        pinned = PINS[self.workload].get(report["variant"])
        if pinned is None:
            return self.fail(mode, f"no pinned digest for {report['variant']}")
        # set-up in reference seconds from the child's CPU seconds, which
        # leave out the gauge's share of the core; the wall time is kept too
        speed = self.speed(gauge_before, report["ready_gauge"])
        self.setups.append(
            (report["ready"] - spawned, calibrator.reference_seconds(report["ready_cpu_s"], speed))
        )
        if mode == "setup":
            return report
        if not report["verdict"]:
            return self.fail(mode, "verdict is false")
        if report["digest"] != pinned:
            return self.fail(mode, f"digest {report['digest']} is not the pinned {pinned}")
        # the timed call's CPU seconds, scaled by the gauge over that call
        report["speed"] = report["speed"] or self.speed(self.first, self.gauge.snapshot())
        report["wall_ref_s"] = calibrator.reference_seconds(report["cpu_s"], report["speed"])
        return report

    def fail(self, mode: str, reason: str) -> None:
        self.failures.append({"mode": mode, "reason": reason})
        print(f"# failure ({mode}): {reason}", file=sys.stderr)
        return None

    def warm_up(self) -> None:
        # the first interpreter writes the bytecode cache; later ones read it
        self.spawn("setup")
        self.setups.clear()

    def timed_runs(self, seconds: float) -> list:
        self.warm_up()
        deadline = monotonic() + seconds
        runs, longest = [], 0.0
        while True:
            began = monotonic()
            for _ in range(SETUP_PROBES):
                self.spawn("setup")
            report = self.spawn("time")
            if report is not None:
                runs.append(report)
            longest = max(longest, monotonic() - began)
            if monotonic() + longest > deadline or self.failures:
                return runs

    def end_to_end(self, seconds: float) -> tuple:
        runs = self.timed_runs(seconds)
        walls = sorted(r["wall_ref_s"] for r in runs)
        metrics = {
            "pass_ratio": {
                "value": (self.attempted - len(self.failures)) / self.attempted,
                "unit": "ratio",
            }
        }
        if runs:
            metrics["wall_ref_s"] = {"value": statistics.median(walls), "unit": "s"}
            metrics["peak_rss_mb"] = {
                "value": statistics.median(r["peak_rss_mb"] for r in runs),
                "unit": "MB",
            }
        if self.setups:
            ref = statistics.median(s for _, s in self.setups)
            metrics["setup_s"] = {"value": ref, "unit": "s"}
        detail = {
            "wall_ref_s": walls,
            "wall_ref_quartiles": quartiles(walls),
            "samples": len(walls),
            "wall_s": [r["wall_s"] for r in runs],
            "cpu_s": [r["cpu_s"] for r in runs],
            "gauge_rounds_per_s": [r["speed"] for r in runs],
            "setup_s": [s for s, _ in self.setups],
            "setup_ref_s": [s for _, s in self.setups],
            "variant": runs[0]["variant"] if runs else None,
        }
        return metrics, detail

    def per_layer(self) -> tuple:
        self.warm_up()
        plain = self.spawn("time")
        spans = self.build / f"spans-{self.workload}-seed{self.seed}.bin"
        traced = self.spawn("trace", spans)
        if plain is None or traced is None:
            return {}, {}
        # layer times in reference seconds, like the end-to-end ones
        metrics = layer_metrics(traced, traced["wall_ref_s"] / traced["cpu_s"])
        metrics["trace.overhead_ratio"] = {
            "value": traced["wall_ref_s"] / plain["wall_ref_s"],
            "unit": "ratio",
        }
        detail = {
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_ref_s": plain["wall_ref_s"],
            "traced_wall_ref_s": traced["wall_ref_s"],
            "layers": traced["layers"],
            "kernel_cache": traced.get("kernel_cache"),
            "omitted": traced["missing"],
            "spans": str(spans.relative_to(self.root)),
        }
        return metrics, detail


def layer_metrics(traced: dict, scale: float) -> dict:
    """Per-layer metrics of one traced job; times are multiplied by scale."""
    layers = traced["layers"]
    out = {}

    def put(name: str, value, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    def stats(span: str) -> dict:
        return layers.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    for span in CALLS_SELF + CALLS_TOTAL + TOTAL_ONLY:
        if span in traced["missing"]:
            continue
        figures = stats(span)
        if span not in TOTAL_ONLY:
            put(f"{span}.calls", figures["calls"], "count")
        if span in CALLS_SELF:
            put(f"{span}.self_s", figures["self_s"] * scale, "s")
        else:
            put(f"{span}.total_s", figures["total_s"] * scale, "s")

    inserts = stats("linalg.echelon_insert")
    if "linalg.echelon_insert" not in traced["missing"]:
        grown = inserts.get("useful", 0)
        put("linalg.echelon_insert.grow_ratio", grown / inserts["calls"] if inserts["calls"] else 0.0, "ratio")

    cache = traced.get("kernel_cache")
    if cache is not None and "vertex_engine.kernel" not in traced["missing"]:
        kernel = stats("vertex_engine.kernel")
        calls = kernel["calls"]
        put("vertex_engine.kernel.calls", calls, "count")
        put("vertex_engine.kernel.misses", cache["misses"], "count")
        put("vertex_engine.kernel.entries", cache["entries"], "count")
        put("vertex_engine.kernel.hit_ratio", cache["hits"] / calls if calls else 0.0, "ratio")
        put("vertex_engine.kernel.self_s", kernel["self_s"] * scale, "s")
    return out


def quartiles(values: list) -> list:
    if len(values) < 2:  # statistics.quantiles needs two points
        return values * 3
    return statistics.quantiles(values, n=4)


def environment(root: Path) -> dict:
    git_sha = None
    if (root / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    # a checkout without git history is still identified by its sources
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "voa" / "cli.py").is_file():
        print("error: run from the root of a voa checkout (no src/voa/cli.py)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    env = environment(root)  # before pinning, which narrows nproc to 1
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    gauge_path = build / f"gauge-{os.getpid()}.bin"
    calibrator.create(str(gauge_path))
    # one core for this process, the gauge and every job (inherited)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    gauge = subprocess.Popen([sys.executable, str(HERE / "calibrator.py"), str(gauge_path)])
    try:
        runner = Runner(root, args.workload, args.seed, gauge_path)
        if args.trace:
            metrics, detail = runner.per_layer()
        else:
            metrics, detail = runner.end_to_end(args.seconds)
        runner.gauge.close()
        if gauge.poll() is not None:
            # the times were scaled by a gauge that had stopped: no result
            print(f"error: the speed gauge exited early ({gauge.returncode})", file=sys.stderr)
            return 1
    finally:
        gauge.terminate()
        gauge.wait()
        gauge_path.unlink()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "failures": runner.failures,
        "detail": detail,
    }
    results = runner.build / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("# " + json.dumps(record["environment"], sort_keys=True))
    if not args.trace:
        print(f"# wall_ref_s quartiles {detail['wall_ref_quartiles']} over {detail['samples']} cold jobs")
    print(f"# full record: {(results / name).relative_to(root)}")
    failed = len(runner.failures)
    summary = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
