#!/usr/bin/env python3
"""Thread-scaling gate for the parallel benchmarks.

The checked-in baselines in bench/baselines/ are machine-specific (the
PR 3 parallel baselines were captured on a 1-core container, where thread
sweeps show no speedup), so absolute-time comparison cannot enforce
scaling. This gate is self-relative instead: run the threaded benches on
the machine under test with JSON output, then assert that for every
benchmark family matched by --require, the BEST threaded entry is at least
--min-speedup times faster than its threads=1 entry. A benchmark run
with --benchmark_repetitions=N contributes N entries per (family, thread
count); the gate reads their median, so one noisy repetition cannot pass
or fail it. A single run is its own median.

Usage (what CI does):
  ./build/bench/bench_parallel_prover --benchmark_format=json \
      --benchmark_out=/tmp/pp.json --benchmark_out_format=json
  python3 bench/check_scaling.py --min-cores 4 --min-speedup 3 \
      --require 'BM_ProveAll' /tmp/pp.json

Runners with fewer than --min-cores hardware threads skip the gate (exit
0 with a notice) — scaling assertions are meaningless on a 1-core box.
Exit status: 0 pass/skip, 1 any required family below the speedup bar.
"""

import argparse
import json
import os
import re
import statistics
import sys


def load_families(paths):
    """{family name: {thread count: median real_time ns}} across the given
    JSONs, the median taken over every repetition of that entry."""
    runs = {}
    suffix = re.compile(r"^(?P<family>.+?)/(?:threads:)?(?P<arg>\d+)"
                        r"(?P<rest>/real_time)?$")
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for b in doc.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            m = suffix.match(b["name"])
            if not m:
                continue
            unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[
                b.get("time_unit", "ns")]
            runs.setdefault(m.group("family"), {}).setdefault(
                int(m.group("arg")), []).append(b["real_time"] * unit)
    return {family: {t: statistics.median(times)
                     for t, times in by_threads.items()}
            for family, by_threads in runs.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("json_files", nargs="+",
                    help="google-benchmark JSON output files")
    ap.add_argument("--require", action="append", default=[],
                    help="regex; every matching family must meet the bar "
                         "(repeatable). Families matching no --require are "
                         "reported but not enforced.")
    ap.add_argument("--min-speedup", type=float, default=3.0,
                    help="required best-threaded vs threads=1 speedup")
    ap.add_argument("--min-cores", type=int, default=4,
                    help="skip the gate entirely below this many CPUs")
    args = ap.parse_args()

    cores = os.cpu_count() or 1
    if cores < args.min_cores:
        print(f"SKIP: {cores} CPUs < --min-cores {args.min_cores}; "
              "scaling assertions are meaningless here")
        return 0

    families = load_families(args.json_files)
    if not families:
        print("ERROR: no thread-sweep benchmark families found")
        return 1

    failures = 0
    enforced = {r: 0 for r in args.require}
    for family, times in sorted(families.items()):
        if 1 not in times or len(times) < 2:
            # A required family with no usable thread sweep must not pass
            # silently (e.g. its threads=1 entry was dropped).
            for r in args.require:
                if re.search(r, family):
                    print(f"{family}: no threads=1 baseline entry in the "
                          f"sweep [FAIL (required by --require {r})]")
                    failures += 1
                    enforced[r] += 1
            continue
        best_threads, best_time = min(
            ((t, ns) for t, ns in times.items() if t > 1), key=lambda p: p[1])
        speedup = times[1] / best_time if best_time > 0 else float("inf")
        matched = [r for r in args.require if re.search(r, family)]
        for r in matched:
            enforced[r] += 1
        verdict = "ok"
        if matched and speedup < args.min_speedup:
            verdict = f"FAIL (< {args.min_speedup}x required)"
            failures += 1
        elif not matched:
            verdict = "info"
        print(f"{family}: {speedup:.2f}x at {best_threads} threads "
              f"[{verdict}]")
    # A --require pattern that enforced nothing means the gate is disarmed
    # (renamed benchmark, wrong file) — that is a failure, not a pass.
    for r, n in enforced.items():
        if n == 0:
            print(f"ERROR: --require {r} matched no benchmark family")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
