#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 ppmbench/run.py --workload <kmsg|admin|collective> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 ppmbench/run.py --selftest

Run it from the root of a checkout.  It builds the program's libraries
and the benchmark from source into .bench_build/ppmbench (the first run
builds; later runs only check that the build is current), runs the
workload, and relays its output.  The last line of standard output is the
benchmark's JSON result; before printing it, the metric names and units
are checked against BENCHMARK.json.  Spans of a traced run are written to
.bench_build/ppmbench-traces/.  Exits non-zero, without a result, when the
program's sources are not next to the benchmark.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ppmbench")
TRACES = os.path.join(ROOT, ".bench_build", "ppmbench-traces")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("ppmbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the program's sources are missing (no src/CMakeLists.txt beside ppmbench/)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + gen, stdout=sys.stderr,
                       check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], stdout=sys.stderr, check=True)


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    try:
        build()
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(BUILD, "ppmbench_selftest")]).returncode
    args = list(argv)
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else "0"
    if trace == "1":
        os.makedirs(TRACES, exist_ok=True)
        args += ["--trace-dir", TRACES]
    try:
        proc = subprocess.run([os.path.join(BUILD, "ppmbench")] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S, 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("the run ended with status %d and no result" % proc.returncode, 3)
    result = json.loads(lines[-1])
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s, unit mismatch %s"
             % (missing, extra, units), 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
