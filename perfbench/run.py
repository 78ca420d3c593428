#!/usr/bin/env python3
"""Canonical amsnet benchmark: build, pin the environment, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ams_eval|serve|sweep --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (the library from source plus the benchmark binary) into
$CARGO_TARGET_DIR or .bench_build, then runs the binary with every
AMSNET_*/REPRO_FAST knob cleared or pinned and a private scratch directory
that is removed on exit. The binary's last stdout line is the JSON result;
build output goes to stderr. Exits nonzero, without a result, when the
build or the run fails.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ams_eval", "serve", "sweep")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    cores = str(len(os.sched_getaffinity(0)))
    os.makedirs(out_dir, exist_ok=True)
    # Concurrent invocations share the build directory; build one at a time.
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.exists(os.path.join(out_dir, f)) for f in ("build.ninja", "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", out_dir, "--target", "amsnet_perfbench", "-j", cores])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return None
    exe = os.path.join(out_dir, "amsnet_perfbench")
    return exe if os.path.exists(exe) else None


def pinned_env(workdir):
    """The caller's environment with every library knob cleared or pinned."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AMSNET_") and k != "REPRO_FAST"}
    env["AMSNET_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["AMSNET_SIMD"] = "auto"
    env["AMSNET_TRACE"] = "off"
    env["AMSNET_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    env["AMSNET_ARTIFACT_DIR"] = os.path.join(workdir, "artifacts")
    return env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    exe = build(out_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    runs = os.path.join(out_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    proc = None
    try:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
        env = pinned_env(workdir)
        print("# pinned: " + " ".join("%s=%s" % (k, env[k]) for k in sorted(env)
                                      if k.startswith("AMSNET_")), file=sys.stderr)
        proc = subprocess.Popen(cmd, env=env, cwd=workdir,
                                stdout=subprocess.PIPE, text=True, start_new_session=True)
        out, _ = proc.communicate(timeout=170)
        lines = out.splitlines()
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        if lines and lines[-1].startswith("{"):
            print(lines[-1])  # correct: false comes with a nonzero exit
        if proc.returncode != 0:
            print("perfbench: benchmark failed (exit %d)" % proc.returncode, file=sys.stderr)
            return 1
        return 0
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
