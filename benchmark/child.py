"""One cold run of one workload, in the fresh interpreter `run.py` spawns.

    python3 benchmark/child.py --workload NAME --seed N --mode setup|time|trace

The run imports `voa`, builds the workload's inputs, checks that the
kernel caches are still empty, and then (unless --mode setup) makes the
timed call once. Its last stdout line is one JSON object: the monotonic
clock reading, this process's CPU seconds and the speed gauge's snapshot
(see calibrator.py) when set-up finished; the timed wall and CPU seconds
and the gauge's rounds per CPU second over the timed call; the peak RSS,
the verdict and the output digest; and the layer summary in trace mode.
`voa` must be importable, normally through PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def cold_caches_or_die() -> None:
    # every lru_cache of the engine must start empty in a fresh process;
    # building the inputs must not have warmed them
    import voa.vertex_engine as engine

    for name, value in vars(engine).items():
        info = getattr(value, "cache_info", None)
        if info is not None and info().currsize:
            raise RuntimeError(f"cache {name} is warm before the timed call")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--spans", default=None, help="trace mode: write spans here")
    parser.add_argument("--gauge", required=True, help="the speed gauge's shared file")
    args = parser.parse_args(argv)

    from calibrator import Gauge, rate
    from workloads import WORKLOADS

    gauge = Gauge(args.gauge)
    job = WORKLOADS[args.workload](args.seed)
    cold_caches_or_die()
    out = {
        "ready": time.clock_gettime(time.CLOCK_MONOTONIC),
        "ready_cpu_s": time.process_time(),
        "ready_gauge": gauge.snapshot(),
        "variant": job.variant,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    gauge0 = gauge.snapshot()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    result = job.call()
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    gauge1 = gauge.snapshot()
    gauge.close()
    if tracer is not None:
        from tracer import kernel_cache

        tracer.uninstall()
        out["layers"] = tracer.summary()
        out["missing"] = tracer.missing
        cache = kernel_cache()
        if cache is not None:
            info = cache.cache_info()
            out["kernel_cache"] = {
                "hits": info.hits,
                "misses": info.misses,
                "entries": info.currsize,
            }
        if args.spans:
            tracer.dump(args.spans)

    verdict, digest = job.digest(result)
    out.update(
        wall_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        speed=rate(gauge0, gauge1),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        verdict=bool(verdict),
        digest=digest,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
