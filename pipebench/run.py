#!/usr/bin/env python3
"""Build and run the pipeline benchmark (see pipebench/README.md).

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --self-test

Run from the root of a checkout.  The benchmark is built from that
checkout's sources into $CARGO_TARGET_DIR (default .bench_build) on
first use; build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.  Result artifacts are
written to <build dir>/artifacts.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"))
BINARY = os.path.join(BUILD, "pipebench")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
# Runnable by name and self-tested, but not in BENCHMARK.json: its
# freshness tail is set by host scheduling noise (see README.md).
UNGATED_WORKLOADS = ["small_window_storm"]


def fail(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no program sources next to pipebench/ (run it inside a "
             "bayesperf checkout)")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pipebench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_id():
    """The commit when the checkout is a git repository, else a hash of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "pipebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run(args, extra=()):
    """Run the benchmark binary; returns (exit code, stdout)."""
    artifacts = os.path.join(BUILD, "artifacts")
    os.makedirs(artifacts, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--out-dir", artifacts, *extra]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return out.returncode, out.stdout


def self_test():
    """A short run of every workload, timed and traced, must print every
    metric BENCHMARK.json names with its unit; a flipped posterior bit
    must make the correctness gate fail."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    names = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    for name in names:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=7, seconds=1,
                                      trace=trace)
            code, stdout = run(args)
            lines = stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            label = "%s --trace %d" % (name, trace)
            if code != 0 or not result.get("correct"):
                problems.append(label + ": exit %d, correct=%s" %
                                (code, result.get("correct")))
            metrics = result.get("metrics", {})
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                printed = any(l.split()[:1] == [m["name"]] and
                              l.split()[-1] == m["unit"] for l in lines)
                if got is None or got.get("unit") != m["unit"] or not printed:
                    problems.append(label + ": metric %s [%s] missing" %
                                    (m["name"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append(label + ": unlisted metrics " +
                                ", ".join(sorted(extra)))
            print("self-test: ran " + label, file=sys.stderr)
    args = argparse.Namespace(workload=names[0], seed=7, seconds=1, trace=0)
    code, stdout = run(args, ["--flip-posterior-bit"])
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if code == 0 or result.get("correct") is not False:
        problems.append("a flipped posterior bit did not fail the gate")
    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        fail("--workload is required")
    code, stdout = run(args)
    sys.stdout.write(stdout)
    sys.exit(code)


if __name__ == "__main__":
    main()
