#!/usr/bin/env python3
"""Run one thermocc benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline_ref --seed 0 --seconds 20 --trace 0

It imports thermocc from ./src, sets the workload up several times
(timed), repeats the workload's timed part until --seconds have passed,
checks every output, and prints one line per metric followed by a JSON
result line. --trace 0 gives the end-to-end metrics; --trace 1 gives
the per-layer metrics from alternating traced and untraced repeats.
Scratch files live under ./.perfbench and the run's work directory is
removed at exit; a full record of each run is kept in
./.perfbench/results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import spans

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "frame_p50_us": "us",
                    "frame_p99_us": "us", "peak_rss_mb": "MB"}
EXTRA_LAYER_UNITS = {"run_dir.files": "count", "run_dir.bytes": "bytes",
                     "process.cpu_user_s": "s", "process.cpu_sys_s": "s",
                     "process.setup_cpu_sys_s": "s",
                     "trace.run_s_untraced": "s", "trace.overhead_s": "s",
                     "trace.hooks_missing": "count"}


def _tail(values: list[float]) -> float:
    """The 99th percentile, or the highest percentile that still has ten
    samples beyond it; below 20 samples that is the median."""
    q = min(99, max(50, int(100 - 1000 / len(values))))
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best, best_type = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, best_type = mount, fields[2]
    except OSError:
        pass
    return best_type


def _environment(work: str) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "run_dir_fs": _fs_type(work)}


def _host_probe() -> float:
    """Milliseconds for a fixed pure-Python loop, taken just before each
    repeat. The host's own speed drifts; this lets a slow repeat be told
    from a slow program."""
    start = time.perf_counter()
    total = 0
    for n in range(100_000):
        total += n * n
    return (time.perf_counter() - start) * 1000.0


def _cpu() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def _declared() -> tuple[dict, dict]:
    """Metric name -> unit for end_to_end and per_layer in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _timed_repeats(workload, seconds: float, trace: bool, tracer,
                   log: list[dict]) -> list[str]:
    """Repeat the timed part for `seconds`; returns missing hook sites.

    With trace, repeats alternate untraced/traced (at least one each).
    """
    missing: list[str] = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        probe_ms = _host_probe()
        load_before = os.getloadavg()
        cpu0 = _cpu()
        t0 = time.perf_counter()
        if traced:
            with spans.hooked(tracer) as missing:
                workload.repeat(i)
        else:
            workload.repeat(i)
        wall = time.perf_counter() - t0
        cpu1 = _cpu()
        log.append({"repeat": i, "traced": traced, "wall_s": wall,
                    "cpu_user_s": cpu1[0] - cpu0[0],
                    "cpu_sys_s": cpu1[1] - cpu0[1],
                    "host_probe_ms": probe_ms,
                    "load_before": load_before,
                    "load_after": os.getloadavg()})
        i += 1
        done = time.perf_counter() - start >= seconds
        if done and (not trace or i >= 2):
            return missing


def _end_to_end(workload, setup_times, log) -> dict[str, float]:
    # Read first: sorting the latencies below allocates.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [r["wall_s"] for r in log]
    if hasattr(workload, "latencies_ns"):
        # p50 is the median over frames of each frame's best pass: the
        # host's speed swings by a third in bursts of milliseconds to
        # seconds, and the best of ~20 passes drops those bursts. p99 is
        # over every frame of every pass: a frame's best time would make
        # it the seed's heaviest frames, which spread more across seeds.
        passes = workload.latencies_ns
        best = [min(times) / 1000.0 for times in zip(*passes)]
        p50 = statistics.median(best)
        p99 = _tail([ns / 1000.0 for times in passes for ns in times])
    else:
        # A batch hands back every frame at once: per-frame cost is the
        # repeat's wall time over its frames, one sample per repeat.
        per_frame = [w / workload.frames_per_repeat * 1e6 for w in walls]
        p50, p99 = statistics.median(per_frame), _tail(per_frame)
    return {"setup_s": statistics.median(setup_times),
            "run_s": statistics.median(walls),
            "frame_p50_us": p50,
            "frame_p99_us": p99,
            "peak_rss_mb": peak_rss_mb}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "thermocc", "__init__.py")):
        print(f"error: no thermocc sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("THERMOCC_SEED", None)  # it would override --seed
    import thermocc
    if not os.path.realpath(thermocc.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        print(f"error: imported thermocc from {thermocc.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    e2e_declared, layer_declared = _declared()
    if e2e_declared != END_TO_END_UNITS or layer_declared != _layer_units():
        print("error: BENCHMARK.json metrics do not match the ones this "
              "benchmark produces", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(SCRATCH, "work",
                        f"{args.workload}_s{args.seed}_{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(args, work, workloads.WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str, workload_class) -> int:
    env = _environment(work)
    workload = workload_class(args.seed, work, SRC)
    trace = bool(args.trace)
    tracer = spans.Tracer()
    log: list[dict] = []
    setup_times = []
    base: dict[str, list] = {}
    missing: list[str] = []

    cpu0 = _cpu()
    if trace:
        # One traced set-up; its spans are the set-up share of each layer.
        with spans.hooked(tracer) as missing:
            setup_times.append(workload.setup(0))
        base = tracer.totals()
    else:
        # Each set-up times itself: it may leave out the benchmark's own
        # work, such as writing inputs that thermocc only reads.
        for k in range(workload.setup_repeats):
            setup_times.append(workload.setup(k))
    setup_cpu_sys = _cpu()[1] - cpu0[1]

    missing = _timed_repeats(workload, args.seconds, trace, tracer,
                             log) or missing
    untraced = [r for r in log if not r["traced"]]
    traced = [r for r in log if r["traced"]]
    if trace:
        metrics, units = _layer_metrics(workload, tracer, base, missing,
                                        untraced, traced, setup_cpu_sys)
    else:
        metrics = _end_to_end(workload, setup_times, untraced)
        units = END_TO_END_UNITS
    verdict = workload.verify()

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "setup_s": setup_times, "repeats": log,
              "attempted": verdict.attempted, "failed": verdict.failed,
              "problems": verdict.problems, "output_sha256": verdict.digest,
              "missing_hook_sites": missing, "metrics": metrics}
    results = os.path.join(SCRATCH, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    with open(os.path.join(results, f"{args.workload}_s{args.seed}_t"
                           f"{args.trace}_{stamp}_{os.getpid()}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"set-ups {len(setup_times)}  repeats {len(untraced)} untraced, "
          f"{len(traced)} traced")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    print(f"  {'error_rate':<36} {verdict.failed}/{verdict.attempted} "
          f"{'frames' if hasattr(workload, 'latencies_ns') else 'runs'}")
    print(f"output sha256 {verdict.digest}")
    for problem in verdict.problems:
        print(f"problem: {problem}")
    if missing:
        print(f"missing hook sites: {', '.join(missing)}")
    print("environment " + json.dumps(env, sort_keys=True))
    probes = [r["host_probe_ms"] for r in log]
    print(f"host probe ms per repeat: median {statistics.median(probes):.2f}, "
          f"range {min(probes):.2f}-{max(probes):.2f}")
    print("load average per repeat " + json.dumps(
        [[r["load_before"][0], r["load_after"][0]] for r in log]))
    print(json.dumps({
        "correct": verdict.failed == 0 and not verdict.problems,
        "attempted": verdict.attempted, "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def _layer_metrics(workload, tracer, base, missing, untraced, traced,
                   setup_cpu_sys):
    import workloads
    metrics = spans.layer_metrics(tracer.totals(), missing, len(traced), base)
    _, files, size = workloads.tree_stats(workload.run_dir())
    untraced_s = statistics.median(r["wall_s"] for r in untraced)
    metrics.update({
        "run_dir.files": files, "run_dir.bytes": size,
        "process.cpu_user_s": statistics.median(
            r["cpu_user_s"] for r in untraced),
        "process.cpu_sys_s": statistics.median(
            r["cpu_sys_s"] for r in untraced),
        "process.setup_cpu_sys_s": setup_cpu_sys,
        "trace.run_s_untraced": untraced_s,
        "trace.overhead_s": statistics.median(
            r["wall_s"] for r in traced) - untraced_s,
        "trace.hooks_missing": len(missing)})
    return metrics, _layer_units()


def _layer_units() -> dict[str, str]:
    units = {name: "count" if name.endswith(".calls") else "s"
             for name in spans.hook_metric_names()}
    units.update(EXTRA_LAYER_UNITS)
    return units


if __name__ == "__main__":
    sys.exit(main())
