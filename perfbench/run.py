#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds the
engine and the benchmark (Release) under .bench_build/perfbench; later calls
only re-check the build. Build output goes to stderr. The benchmark's stdout
is passed through, so its last line is the result object; a copy of the
whole output, and the Chrome trace of a traced run, go to
.bench_build/perfbench-results/.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "perfbench-results"
BINARY = BUILD_DIR / "perfbench"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_sha256():
    """Digest of the engine sources the binary was built from."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def option(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tag = "{}_seed{}_trace{}".format(option(args, "--workload", "x"),
                                     option(args, "--seed", "x"),
                                     option(args, "--trace", "0"))
    cmd = [str(BINARY)] + args
    if option(args, "--trace", "0") == "1":
        cmd += ["--trace-out", str(RESULTS_DIR / (tag + ".trace.json"))]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_SHA256=source_sha256())
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    (RESULTS_DIR / (tag + ".txt")).write_text(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
