#!/usr/bin/env python3
"""Repository benchmark: build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/run.py --selftest

A run builds perfbench/ (which compiles ../src) into .bench_build/perfbench
unless the build is current, runs the named workload for S seconds, and
prints two lines: an info line (host record, per-kernel profile digests
beside the ones recorded in digests.json, failures) and, last, the result
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

--compare reads two files of concatenated run output (runs paired in
order) and prints, per workload and metric, the medians, quartiles,
pairs won and a verdict against the metric's bound.  --selftest runs the
benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
WORKLOADS = ("paper_pruned", "paper_baseline", "fig9_small", "incremental_rerun")
# A run must end within 180 s; the binary itself stops measuring after
# --seconds, so this only catches a hung binary.
BINARY_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build(targets):
    """Configure once, then bring @p targets up to date (output to stderr)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 3)
    command = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def binary_env():
    """The caller's environment without FSP_* knobs (they change runs)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FSP_")}
    removed = sorted(k for k in os.environ if k.startswith("FSP_"))
    return env, removed


def digest_report(workload, digests):
    """Each kernel@scale-seed digest beside the recorded one, if any."""
    recorded = json.loads((HERE / "digests.json").read_text())
    known = recorded["workloads"].get(workload, {})
    report = {}
    for label, digest in sorted(digests.items()):
        expected = known.get(label)
        report[label] = {"digest": digest, "recorded": expected,
                         "match": None if expected is None else digest == expected}
    return report


def result_line(output, specs):
    """The final result: the binary's metrics with BENCHMARK.json units."""
    names = {m["name"]: m["unit"] for m in specs}
    values = output["metrics"]
    if set(values) != set(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        fail(f"metric set differs from BENCHMARK.json: missing {missing},"
             f" unexpected {extra}", 5)
    return {
        "correct": output["failed"] == 0 and output["attempted"] > 0,
        "attempted": output["attempted"],
        "failed": output["failed"],
        "metrics": {name: {"value": values[name], "unit": names[name]}
                    for name in sorted(names)},
    }


def run(args):
    benchmark = load_benchmark()
    build(["perfbench"])
    WORK.mkdir(parents=True, exist_ok=True)
    env, removed = binary_env()
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(WORK)]
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {BINARY_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}", 4)
    output = json.loads(proc.stdout)
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    result = result_line(output, specs)
    info = {key: output[key] for key in
            ("workload", "seed", "trace", "pass_wall_s", "host", "failures",
             "counters")}
    info["env_removed"] = removed
    info["digests"] = digest_report(args.workload, output["digests"])
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)


def selftest():
    build(["perfbench_tests"])
    cpp = subprocess.run([str(BUILD / "perfbench_tests")]).returncode
    suite = unittest.defaultTestLoader.discover(str(HERE / "tests"),
                                                pattern="test_*.py")
    py = unittest.TextTestRunner(verbosity=1).run(suite)
    sys.exit(0 if cpp == 0 and py.wasSuccessful() else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    elif args.compare:
        parent, change = (Path(p).read_text().splitlines() for p in args.compare)
        print(compare.compare(parent, change, load_benchmark()))
    elif args.workload:
        if args.seconds <= 0:
            fail("--seconds must be positive", 2)
        run(args)
    else:
        parser.error("give --workload, --compare or --selftest")


if __name__ == "__main__":
    main()
