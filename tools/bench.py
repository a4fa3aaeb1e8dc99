"""Run the perfbench workloads on one or more checkouts; write BENCH_<n>.json.

    python tools/bench.py [--seed S ...] N=CHECKOUT [N=CHECKOUT ...]

Each of ten rounds runs `perfbench/run.py --workload W --seed S
--trace 0` (at perfbench's own run length) once for every workload,
seed and checkout, from the checkout's root, and reads the full record
that the run adds to the checkout's `.perfbench/results/`. A run that
exits non-zero, or adds no single record, is kept as a failed run and
the rounds go on. Within a round the workloads take turns, and the
checkouts run in the given order on even rounds and in reverse order on
odd ones. So with a parent and a change, every round holds one pair per
workload and seed, and each side runs first in half of the pairs: the
host's speed drifts, and pairs taken together see the same drift.

BENCH_N.json, at the root of the repository this script is in, holds
for its checkout: the commit (and whether tracked files differed from
it), the command, the host's nproc and usable CPUs, the Python, numpy
and scipy versions, and, per workload and seed, the median, quartiles,
min and max of each end-to-end metric over the runs that finished,
followed by every run: its round, whether it ran first, `correct`,
its exit status, and, when it finished, `attempted`, `failed`, the
output digest, its metrics, its set-up times, and each repeat's wall
time and `host_probe_ms`. Only the standard library is used.

Exit 0 when every run printed `correct` true with 0 failed, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pipeline_ref", "online_frames", "eval_crowded")
ROUNDS = 10


def _git(checkout: str, *args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", checkout, *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _run(checkout: str, workload: str, seed: int) -> dict:
    """One perfbench run: the record it added, with the result line's
    `correct` and its exit status; no record when it added none."""
    results = os.path.join(checkout, ".perfbench", "results")
    before = set(os.listdir(results)) if os.path.isdir(results) else set()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    added = (set(os.listdir(results)) - before
             if os.path.isdir(results) else set())
    if proc.returncode != 0 or len(added) != 1:
        return {"exit": proc.returncode, "correct": False}
    with open(os.path.join(results, added.pop()), encoding="utf-8") as fh:
        record = json.load(fh)
    record["exit"] = 0
    record["correct"] = json.loads(proc.stdout.splitlines()[-1])["correct"]
    return record


def _summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def _report(commit, dirty, command, env, runs_by_key) -> dict:
    workloads: dict = {}
    for (workload, seed), runs in runs_by_key.items():
        done = [r["metrics"] for r in runs if "metrics" in r]
        workloads.setdefault(workload, {})[f"seed {seed}"] = {
            "summary": {name: _summary([m[name] for m in done])
                        for name in (done[0] if done else ())},
            "runs": runs}
    return {"commit": commit, "dirty": dirty, "command": command,
            **{key: env.get(key) for key in ("nproc", "cpus_allowed",
                                             "python", "numpy", "scipy",
                                             "platform")},
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("targets", nargs="+", metavar="N=CHECKOUT")
    args = parser.parse_args(argv)
    targets = []
    for text in args.targets:
        number, sep, checkout = text.partition("=")
        if not (sep and number.isdigit() and os.path.isfile(
                os.path.join(checkout, "perfbench", "run.py"))):
            parser.error(f"{text!r} is not N=CHECKOUT with perfbench/run.py")
        targets.append((int(number), os.path.abspath(checkout)))
    seeds = args.seed or [0]
    command = "perfbench/run.py --trace 0 --workload W --seed S"

    runs = {number: {} for number, _ in targets}
    env = {}
    correct = True
    for r in range(ROUNDS):
        order = targets if r % 2 == 0 else targets[::-1]
        for workload in WORKLOADS:
            for seed in seeds:
                for k, (number, checkout) in enumerate(order):
                    rec = _run(checkout, workload, seed)
                    ok = rec["correct"] and rec.get("failed") == 0
                    correct = correct and ok
                    run = {"round": r, "first": k == 0, "correct": ok,
                           "exit": rec["exit"]}
                    if "metrics" in rec:
                        env.setdefault(number, rec["environment"])
                        run.update(
                            attempted=rec["attempted"], failed=rec["failed"],
                            output_sha256=rec["output_sha256"],
                            metrics=rec["metrics"], setup_s=rec["setup_s"],
                            repeats=[{"wall_s": x["wall_s"],
                                      "host_probe_ms": x["host_probe_ms"]}
                                     for x in rec["repeats"]])
                    runs[number].setdefault((workload, seed), []).append(run)
                    print(f"round {r} {workload} seed {seed} BENCH_{number}: "
                          + ("  ".join(f"{n} {v:.4g}"
                                       for n, v in rec["metrics"].items())
                             if "metrics" in rec else
                             f"failed, exit {rec['exit']}"),
                          file=sys.stderr)

    for number, checkout in targets:
        status = _git(checkout, "status", "--porcelain",
                      "--untracked-files=no")
        report = _report(_git(checkout, "rev-parse", "HEAD"),
                         None if status is None else bool(status), command,
                         env.get(number, {}), runs[number])
        with open(os.path.join(ROOT, f"BENCH_{number}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
