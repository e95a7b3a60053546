#!/usr/bin/env python3
"""Builds and runs the end-to-end DGE benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/, runs one workload and passes its
output through: notes on lines starting with '#', then one JSON result
line. Build output goes to stderr. The exit code is the benchmark's (1
when an answer check failed), or 3 when the build fails.

--selftest runs every workload, curate_write included, scaled down,
traced and untraced. It checks that each metric named in BENCHMARK.json
is printed with its unit and that every answer check passes, then feeds
each check a deliberately wrong answer and checks that it fails.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "dge_bench")
# Runnable but left out of BENCHMARK.json (see README.md); the self-test
# keeps its answer checks under test.
ALSO_TESTED = ["curate_write"]


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # A half-written cache would make every later run skip configure.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(BINARY)


def run(args):
    """Runs the benchmark binary, streaming its stdout; returns its exit code."""
    with subprocess.Popen([BINARY, "--work-dir", WORK] + args, cwd=ROOT) as proc:
        return proc.wait()


def run_captured(args):
    done = subprocess.run([BINARY, "--work-dir", WORK] + args, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stdout


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]] + ALSO_TESTED:
        base = ["--workload", workload, "--seed", "7", "--seconds", "2", "--small"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, out = run_captured(base + ["--trace", trace])
            label = "%s --trace %s" % (workload, trace)
            expect(code == 0 and result is not None and result["correct"],
                   label + ": answer checks pass")
            if result is None:
                print(out)
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   label + ": result has exactly the four keys")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   label + ": attempted >= 1, none failed")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            expect(set(metrics) == set(wanted),
                   label + ": prints exactly the %s metrics" % key)
            for name, unit in wanted.items():
                m = metrics.get(name)
                expect(m is not None and m.get("unit") == unit and
                       isinstance(m.get("value"), (int, float)),
                       "%s: %s printed in %s" % (label, name, unit))
        code, result, _ = run_captured(base + ["--trace", "0", "--corrupt", workload])
        expect(code == 1 and result is not None and not result["correct"],
               workload + ": the answer check fails on a wrong answer")
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if args == ["--selftest"]:
        return selftest()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
