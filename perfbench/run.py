#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload scan-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
`corra_perfbench` (Release) from the checkout's sources into
$CARGO_TARGET_DIR (default `.bench_build`); later runs rebuild only what
changed. Every run first executes `perfbench_selftest`, then the chosen
workload, then prints every metric the run measured with its unit and,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the `end_to_end` metrics of BENCHMARK.json for --trace 0 and the
`per_layer` metrics for --trace 1. The full self-describing results,
including how the run was set up, are kept under <build>/results/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("ingest", "scan-hot", "scan-cold", "point-gather")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs `cmd` with its output sent to stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no library sources (CMakeLists.txt, src/)")
    if not (build_dir / "CMakeCache.txt").is_file():
        if run_logged(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", build_dir, "--target",
                   "corra_perfbench", "perfbench_selftest", "-j", jobs],
                  850) != 0:
        fail("build failed")


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build_type(build_dir):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def print_records(results):
    print(f"# {results['run']['workload']}  seed={results['run']['seed']}  "
          f"trace={results['run']['trace']}  correct={results['correct']}  "
          f"attempted={results['attempted']}  failed={results['failed']}")
    for key, value in sorted(results["run"].items()):
        print(f"#   {key}: {value}")
    for r in results["records"]:
        value = "n/a" if r["samples"] == 0 else f"{r['value']:.6g}"
        moves = f"  -> {r['moves']}" if r["moves"] else ""
        print(f"{r['name']:<48} {value:>14} {r['unit']:<9} "
              f"[{r['layer']}, {r['better']} is better, "
              f"n={r['samples']}]{moves}")


def main():
    # A terminated run stops its child too: subprocess.run kills and
    # reaps the child when the wait is interrupted by an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)
    if run_logged([build_dir / "perfbench_selftest"], 60) != 0:
        fail("perfbench_selftest failed")

    results_dir = build_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = results_dir / f"{stem}.json"
    out_path.unlink(missing_ok=True)
    data_dir = build_dir / "data" / stem
    data_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    code = run_logged([build_dir / "corra_perfbench",
                       "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", repr(args.seconds),
                       "--trace", str(args.trace),
                       "--data-dir", data_dir,
                       "--out", out_path,
                       "--spans", results_dir / f"{stem}.spans.csv"],
                      BINARY_TIMEOUT_S)
    if code != 0 or not out_path.is_file():
        fail(f"corra_perfbench exited with code {code}")

    results = json.loads(out_path.read_text())
    results["run"].update({
        "command": " ".join([Path(sys.executable).name] + sys.argv),
        "git_sha": git_sha(),
        "build_type": build_type(build_dir),
        "wall_s": f"{time.monotonic() - started:.3f}",
    })
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print_records(results)

    by_name = {r["name"]: r for r in results["records"]}
    metrics = {}
    for m in wanted:
        r = by_name.get(m["name"])
        if r is None or r["value"] is None or r["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or malformed in {out_path}")
        metrics[m["name"]] = {"value": r["value"], "unit": r["unit"]}
    print(json.dumps({"correct": bool(results["correct"]),
                      "attempted": int(results["attempted"]),
                      "failed": int(results["failed"]),
                      "metrics": metrics}))
    return 0 if results["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
