#!/usr/bin/env python3
"""Host-speed benchmark of the simulator (see README.md in this directory).

Builds the benchmark binary from this directory and ../src, then runs one
workload and passes its report through; the last stdout line is the JSON
result. Run from the repository root:

    python3 perfbench/run.py --workload fdp_gcc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures for --seconds and then finishes its last repetition; a
# run still going after this long is stopped and fails.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the benchmark; return the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", bdir, "--target", "fdip_perfbench", "-j", "4"],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, check=False)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "fdip_perfbench")


def git_revision():
    # The ceiling keeps git from reporting an enclosing repository's
    # revision when this tree is an unpacked copy.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              check=False)
    except OSError:
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def run_binary(binary, args, env=None):
    """Run the binary; return (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The JSON result on the last stdout line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def workload_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--digests", os.path.join(HERE, "digests.txt"),
            "--git-rev", git_revision()]


def self_check(binary):
    """Tiny-length pass: every workload emits every metric BENCHMARK.json
    names, with the catalogue's unit and direction, and timing refuses a
    non-hermetic environment."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rc, lines = run_binary(binary, ["--catalog"])
    if rc != 0:
        fail("--catalog exited %d" % rc)
    catalog = json.loads(lines[-1])
    problems = []

    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(catalog["workloads"]):
        problems.append("workloads %s != catalogue %s"
                        % (names, catalog["workloads"]))
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        emitted = {m["name"]: (m["unit"], m["better"])
                   for m in catalog[section]}
        if listed != emitted:
            problems.append("%s in BENCHMARK.json differs from the "
                            "catalogue: %s"
                            % (section, sorted(set(listed.items()) ^
                                               set(emitted.items()))))

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in catalog[section]}
        for workload in catalog["workloads"]:
            rc, lines = run_binary(
                binary, workload_args(workload, 1, 0, trace) + ["--tiny"])
            result = parse_result(lines)
            where = "%s --trace %d" % (workload, trace)
            if rc != 0 or result is None:
                problems.append("%s: exit %d, no result line" % (where, rc))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: not correct (%d of %d failed)"
                                % (where, result["failed"],
                                   result["attempted"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ: %s"
                                % (where, sorted(set(got.items()) ^
                                                 set(want.items()))))
            print("self-check %-28s %d metrics, %d ops"
                  % (where, len(got), result["attempted"]))

    env = dict(os.environ, FDIP_NO_SKIP="1")
    rc, lines = run_binary(binary, workload_args("fdp_gcc", 1, 0, 0) +
                           ["--tiny"], env=env)
    if rc == 0 or parse_result(lines) is not None:
        problems.append("timing was not refused with FDIP_NO_SKIP set")

    for p in problems:
        print("self-check FAILED: " + p)
    print("self-check %s" % ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="tiny-length pass over every workload")
    ap.add_argument("--binary",
                    help="use this fdip_perfbench instead of building")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    binary = args.binary or build()
    if args.self_check:
        return self_check(binary)

    rc, lines = run_binary(binary, workload_args(
        args.workload, args.seed, args.seconds, args.trace))
    if rc != 0:
        fail("benchmark exited %d" % rc)
    if parse_result(lines) is None:
        fail("benchmark printed no result line")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
