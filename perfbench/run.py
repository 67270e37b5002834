#!/usr/bin/env python3
"""Builds libod's benchmark from source and runs one workload.

    python3 perfbench/run.py --workload reports_od --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (libod's src/ plus the driver, Release) into
.bench_build/perfbench; later calls rebuild incrementally. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Run records, traces and spill runs go to .bench_build/perfbench/.

--workload all runs every workload with --trace 0, prints each one's
metrics, and ends with the OD-blind -> OD-aware attribution table.
"""

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = BUILD / "runs"
BINARY = BUILD / "od_perfbench"
WORKLOADS = ["reports_od", "reports_blind", "implies_churn", "discover"]
RUN_TIMEOUT_S = 170
PAPER_SPEEDUP_PCT = 48  # Section 2.3: 13 TPC-DS queries 48% faster on average


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("libod sources (src/) not found next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4",
                    "--target", "od_perfbench"],
                   check=True, stdout=sys.stderr)


def source_id():
    """The git commit when the checkout is a git repository, else a digest
    of libod's sources. Only the checkout's own .git counts: git would
    otherwise search the directories above it."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, commit):
    """Runs the driver; returns its stdout lines (the last one is the JSON
    result). Raises on a non-zero exit or a timeout."""
    (RUNS / "spill").mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(RUNS), "--commit", commit]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: driver exited with {proc.returncode}")
    json.loads(lines[-1])
    return lines


def attribution_lines(seed):
    """Per-report OD-blind / OD-aware median ratio from the latest untraced
    runs of both report workloads (same seed preferred)."""
    def load(workload):
        exact = RUNS / f"{workload}_seed{seed}_trace0.json"
        if exact.is_file():
            return json.loads(exact.read_text())
        candidates = sorted(RUNS.glob(f"{workload}_seed*_trace0.json"),
                            key=lambda p: p.stat().st_mtime)
        return json.loads(candidates[-1].read_text()) if candidates else None

    od, blind = load("reports_od"), load("reports_blind")
    if od is None or blind is None:
        return []
    out = [f"attribution: OD-blind -> OD-aware factor per report "
           f"(reports_blind median / reports_od median; seeds "
           f"{blind['context']['seed']} / {od['context']['seed']})"]
    factors, template_pct = [], []
    for name, od_ms in sorted(od["class_medians_ms"].items()):
        blind_ms = blind["class_medians_ms"].get(name)
        if not blind_ms or not od_ms:
            continue
        factor = blind_ms / od_ms
        factors.append(factor)
        if name.startswith("q"):
            template_pct.append(100 * (1 - od_ms / blind_ms))
        out.append(f"  {name:24s} {blind_ms:10.3f} ms -> {od_ms:10.3f} ms"
                   f"  x{factor:6.2f}")
    if factors:
        geo = math.exp(sum(math.log(f) for f in factors) / len(factors))
        out.append(f"  geomean factor over {len(factors)} reports: x{geo:.2f}")
    if template_pct:
        out.append(f"  13 date templates: {sum(template_pct) / len(template_pct):.0f}%"
                   f" faster on average (paper Section 2.3: "
                   f"{PAPER_SPEEDUP_PCT}% over 13 TPC-DS queries)")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)  # run_seconds
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
        commit = source_id()
        if args.workload == "all":
            for workload in WORKLOADS:
                lines = run_workload(workload, args.seed, args.seconds,
                                     args.trace, commit)
                print(f"== {workload}")
                for name, metric in sorted(
                        json.loads(lines[-1])["metrics"].items()):
                    print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
                print("  " + lines[-1])
            for line in attribution_lines(args.seed):
                print(line)
            return 0
        lines = run_workload(args.workload, args.seed, args.seconds,
                             args.trace, commit)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    for line in lines[:-1]:
        print(line)
    if args.workload.startswith("reports_") and not args.trace:
        for line in attribution_lines(args.seed):
            print(line)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
