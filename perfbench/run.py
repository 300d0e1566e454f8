#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The script builds the engine and the benchmark program from source (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the benchmark program
in a fresh process and prints every metric by name with its unit, then one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones. A traced run first repeats the untraced run with
the same seed, so bench.trace_overhead_frac compares the two. The full record
(host and build fingerprint, sample counts, set-up times, workload guards) is
also written to .bench_out/results/, with how much CPU time the host's other
guests took from the VM during the timed phase ("steal"). A run that lost more
than MAX_CALM_STEAL of it even in the windows its medians use is run once more
with the same seed, and the calmer attempt is reported.

Exit codes: 0 all output checks and workload guards passed; 1 a check or guard
failed or the benchmark program crashed; 2 the repository sources, the build or the
arguments are unusable (no result is printed then).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
OUT_DIR = ".bench_out"
CHILD_TIMEOUT_S = 160
# A run whose end-to-end medians come from windows that still lost more than
# this share of the VM's CPU time to the host's other guests ("steal" in
# /proc/stat) measured the host more than the program: it is run once more
# with the same seed, and the calmer of the two attempts is reported. (The
# medians use every window with under 1 % steal or, when fewer than half
# are, the least-stolen half.)
MAX_CALM_STEAL = 0.02
# Reruns allowed per checkout, so that a host that stays busy cannot stretch
# a series of runs without bound; and only when the first attempt left the
# time for a second.
MAX_RERUNS = 24
RERUN_BEFORE_S = 75


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def repo_root():
    root = os.getcwd()
    needed = ["CMakeLists.txt", "src/CMakeLists.txt", "src/core/db.h",
              os.path.join(BENCH_DIR, "CMakeLists.txt"), "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    return root


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(root, base, "perfbench")


def build(root):
    """Configures and builds the program; returns the build dir."""
    bdir = build_dir(root)
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time is quick once configured, and repairs a build
    # tree an interrupted or failed configure left behind.
    steps = [["cmake", "-S", os.path.join(root, BENCH_DIR), "-B", bdir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", bdir, "-j", jobs, "--target",
              "perfbench_run", "perfbench_selftest"]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, env=env,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build failed: %s" % err)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))
    return bdir


def build_settings(bdir):
    """Build type and sanitizer setting, read from the build tree."""
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    flags = " ".join(cache.get(k, "") for k in
                     ("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS"))
    sanitizer = cache.get("PMBLADE_SANITIZE", "")
    if not sanitizer and "-fsanitize" in flags:
        sanitizer = flags
    return {"build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "sanitizer": sanitizer}


def tree_hash(root):
    """Content hash of the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_state(root):
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return None, None
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root, settings, args):
    sha, dirty = git_state(root)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "git_sha": sha,
        "git_dirty": dirty,
        "tree_hash": tree_hash(root),
        "build_type": settings["build_type"],
        "sanitizer": settings["sanitizer"] or None,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_program(bdir, root, args, trace, run_dir, spans):
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [os.path.join(bdir, "perfbench_run"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0", "--dir", run_dir]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=root,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out", 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("benchmark program exited with %d" % proc.returncode, 1)
    return json.loads(lines[-1])


def take_rerun(root):
    """Claims one rerun from the checkout's budget; False when spent."""
    ledger = os.path.join(root, OUT_DIR, "reruns")
    try:
        with open(ledger) as f:
            used = len(f.readlines())
    except OSError:
        used = 0
    if used >= MAX_RERUNS:
        return False
    with open(ledger, "a") as f:
        f.write("%d\n" % int(time.time()))
    return True


def run_calm(bdir, root, args, run_dir):
    """The untraced run, rerun once when the host disturbed it.

    Returns (result, attempts, calm steal of every attempt). A failed
    output check is never rerun away: the first incorrect attempt is the
    result.
    """
    started = time.time()
    result = run_program(bdir, root, args, False, run_dir, None)
    steals = [result["info"]["calm_steal_frac"]]
    if (result["correct"] and steals[0] > MAX_CALM_STEAL
            and time.time() - started < RERUN_BEFORE_S
            and take_rerun(root)):
        again = run_program(bdir, root, args, False, run_dir, None)
        steals.append(again["info"]["calm_steal_frac"])
        if not again["correct"] or steals[1] < steals[0]:
            result = again
    return result, len(steals), steals


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    root = repo_root()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not args.selftest and args.workload not in [
            w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    bdir = build(root)
    settings = build_settings(bdir)
    if settings["sanitizer"]:
        fail("refusing to report numbers from a sanitizer build (%s)"
             % settings["sanitizer"])

    out = os.path.join(root, OUT_DIR)
    if args.selftest:
        scratch = os.path.join(out, "selftest")
        shutil.rmtree(scratch, ignore_errors=True)
        code = subprocess.run([os.path.join(bdir, "perfbench_selftest"),
                               scratch], cwd=root).returncode
        shutil.rmtree(scratch, ignore_errors=True)
        sys.exit(code)

    fp = fingerprint(root, settings, args)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    run_dir = os.path.join(out, "run-%s-%d" % (tag, os.getpid()))
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    os.makedirs(os.path.join(out, "spans"), exist_ok=True)

    started = time.time()
    untraced, attempts, steals = run_calm(bdir, root, args, run_dir)
    result = untraced
    metrics = dict(untraced["metrics"])
    wanted = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        spans = os.path.join(out, "spans", tag + ".jsonl")
        result = run_program(bdir, root, args, True, run_dir, spans)
        metrics = dict(result["metrics"])
        base = untraced["info"]["ops_per_s"]
        traced = result["info"]["ops_per_s"]
        metrics["bench.trace_overhead_frac"] = {
            "value": base / traced if traced > 0 else 0.0, "unit": "ratio"}
        wanted = [m["name"] for m in spec["per_layer"]]
        fp["spans_file"] = os.path.relpath(spans, root)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        fail("benchmark program did not report " + ", ".join(missing), 1)
    metrics = {name: metrics[name] for name in wanted}

    # Share of the VM's CPU time the host gave to other guests during the
    # timed phase, over every window and over the windows the end-to-end
    # medians use.
    fp["steal_frac"] = untraced["info"]["steal_frac"]
    fp["calm_steal_frac"] = untraced["info"]["calm_steal_frac"]
    fp["attempts"] = attempts
    fp["attempt_calm_steal"] = steals
    correct = bool(untraced["correct"] and result["correct"])
    attempted = int(untraced["attempted"]) + (
        int(result["attempted"]) if args.trace else 0)
    failed = int(untraced["failed"]) + (
        int(result["failed"]) if args.trace else 0)
    record = {"fingerprint": fp, "info": result["info"],
              "untraced_info": untraced["info"], "metrics": metrics,
              "correct": correct, "attempted": attempted, "failed": failed,
              "wall_s": time.time() - started}
    with open(os.path.join(out, "results", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for key in ("nproc", "cpu_model", "git_sha", "git_dirty", "tree_hash",
                "build_type", "seed", "steal_frac", "calm_steal_frac",
                "attempts"):
        print("# %s: %s" % (key, fp[key]))
    info = result["info"]
    print("# samples: %s" % json.dumps(info["samples"], sort_keys=True))
    print("# p99_us (not gated): %s" % json.dumps(info["p99_us"], sort_keys=True))
    print("# failed_frac: %.6g" % info["failed_frac"])
    if info.get("guard"):
        print("# GUARD BREACHED: " + info["guard"])
    if info.get("first_failure"):
        print("# FIRST FAILURE: " + info["first_failure"])
    for name, m in metrics.items():
        print("%-34s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
