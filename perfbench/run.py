#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the benchmark and the weg
library from source (Release) into $CARGO_TARGET_DIR or .bench_build, runs
the harness self-tests, then runs one workload in a process whose
WEG_NUM_THREADS is pinned so that the benchmark's own threads, the serving
engine's threads and the scheduler's workers fit in nproc. The last line of
stdout is the result object. With --trace 1 the traced workload's layers
are merged with brief traced passes of the other two workloads, each run in
its own process under its own thread budget, so every per-layer metric is
printed. Spans are written under .bench_out/. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve-stab-mix", "batch-knn", "build-paper")
# Threads each workload runs beside the scheduler's workers: the benchmark's
# own thread, plus the serving engine's batcher and committer.
EXTRA_THREADS = {"serve-stab-mix": 3, "batch-knn": 1, "build-paper": 1}
# CPUs left to the host (kernel, other tenants of a shared VM); on four
# CPUs this pins serve-stab-mix to 1 worker and the other workloads to 2.
HOST_RESERVE = 1
BRIEF_SECONDS = 2.0
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(root, build_dir):
    jobs = str(max(1, min(4, nproc())))
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in cmds:
        res = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=840)
        if res.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def run_child(binary, args, workload, timeout):
    env = dict(os.environ)
    workers = max(1, nproc() - EXTRA_THREADS[workload] - HOST_RESERVE)
    env["WEG_NUM_THREADS"] = str(workers)
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload} timed out after {timeout} s")
        return None, ""
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with code {proc.returncode}")
        return None, out
    try:
        return json.loads(lines[-1]), out
    except json.JSONDecodeError:
        log(f"{workload} printed no result line")
        return None, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0:
        log("--seconds must be positive")
        return 2

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no weg sources under ./src: run from the root of a checkout")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(root, build_dir):
        return 2
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        log("harness self-tests failed")
        return 1

    binary = os.path.join(build_dir, "perfbench")
    common = ["--seed", str(a.seed), "--trace", str(a.trace)]
    result, out = run_child(
        binary, ["--workload", a.workload, "--seconds", str(a.seconds)] + common,
        a.workload, CHILD_TIMEOUT_S if not a.trace else CHILD_TIMEOUT_S // 2)
    if result is None:
        sys.stdout.write(out)
        return 1
    for line in out.splitlines()[:-1]:
        print(line)
    if a.trace:
        for other in WORKLOADS:
            if other == a.workload:
                continue
            part, pout = run_child(
                binary, ["--workload", other, "--seconds", str(BRIEF_SECONDS),
                         "--brief", "1"] + common, other, 40)
            if part is None:
                sys.stdout.write(pout)
                return 1
            for line in pout.splitlines()[:-1]:
                if line.startswith("# context"):
                    print(line)
            result["correct"] = result["correct"] and part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            for name, m in part["metrics"].items():
                result["metrics"].setdefault(name, m)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
