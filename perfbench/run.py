#!/usr/bin/env python3
"""Build the benchmark binary and run one workload.

    python3 perfbench/run.py --workload ote-2p20 --seed 1 --seconds 15 --trace 0

Run from the repository root. The binary is built from source into
.bench_build (CMake, Release) on first use. The last line of stdout is
the run's result, one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the host facts. A traced
run (--trace 1) leaves its Chrome trace in
.bench_build/trace-<workload>-s<seed>.json. With --record DIR the run is
also saved as DIR/<workload>-s<seed>-t<trace>.json for
perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; the build before the first one is
# allowed longer and is not counted here.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the binary; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def declared_metrics():
    """(end-to-end names, per-layer names) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="DIR",
                    help="also save the run for perfbench/compare.py")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            BUILD_DIR, f"trace-{args.workload}-s{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    host = json.loads(lines[-2])["host"]
    result = json.loads(lines[-1])

    # The binary and BENCHMARK.json must agree on every metric and unit.
    e2e, layer = declared_metrics()
    expected = layer if args.trace else e2e
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        print("perfbench: emitted metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(expected) - set(got))}, "
              f"extra {sorted(set(got) - set(expected))}, units "
              f"{sorted(k for k in got if k in expected and got[k] != expected[k])}",
              file=sys.stderr)
        return 1

    if args.record:
        os.makedirs(args.record, exist_ok=True)
        name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
        with open(os.path.join(args.record, name), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "host": host, "result": result}, f)

    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
