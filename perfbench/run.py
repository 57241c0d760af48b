#!/usr/bin/env python3
"""Builds and runs the stackcache end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (and the project libraries
under src/) into .bench_build/; later calls rebuild incrementally. All
arguments other than --smoke are passed to the benchmark binary, whose last
stdout line is the JSON result. --smoke runs every workload for one second
and then proves the correctness checks can fail: a run fed one wrong
expected output must exit nonzero.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["paper-suite", "long-jobs", "short-jobs"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", SRC, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def smoke():
    for w in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [BINARY, "--workload", w, "--seed", "1", "--seconds", "1",
                   "--trace", trace, "--smoke"]
            if subprocess.run(cmd).returncode != 0:
                sys.stderr.write("perfbench: smoke run failed: %s\n" % " ".join(cmd))
                return 1
    for w in WORKLOADS:
        cmd = [BINARY, "--workload", w, "--seed", "1", "--seconds", "1",
               "--trace", "0", "--smoke", "--wrong-expected"]
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if done.returncode == 0:
            sys.stderr.write("perfbench: self-check failed: a wrong expected "
                             "output went unnoticed on %s\n" % w)
            return 1
    sys.stderr.write("perfbench: smoke OK (a wrong expected output fails every workload)\n")
    return 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: run from the root of a stackcache checkout "
                         "(src/ not found)\n")
        return 1
    build()
    args = sys.argv[1:]
    if args == ["--smoke"]:
        return smoke()
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
