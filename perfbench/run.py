#!/usr/bin/env python3
"""Build and run the RAMR native benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The library is configured in Release with tests, benches and examples off,
installed into the build directory, and perfbench/ is built against that
installed package. Build output goes to stderr; the benchmark's stdout is
passed through, so the last stdout line is the result object.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD, "perfbench")
LIB_BUILD = os.path.join(BUILD, "ramr")
STAGE = os.path.join(BUILD, "stage")
BENCH_BUILD = os.path.join(BUILD, "bench")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def sh(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def generator():
    return ["-G", "Ninja"] if shutil.which("ninja") else []


def configure(src, build, extra):
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        sh(["cmake", "-S", src, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
           + generator() + extra)


def cache_value(build, key):
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build():
    configure(ROOT, LIB_BUILD, ["-DRAMR_BUILD_TESTS=OFF",
                                "-DRAMR_BUILD_BENCHES=OFF",
                                "-DRAMR_BUILD_EXAMPLES=OFF"])
    sh(["cmake", "--build", LIB_BUILD, "-j", JOBS])
    subprocess.run(["cmake", "--install", LIB_BUILD, "--prefix", STAGE],
                   stdout=subprocess.DEVNULL, stderr=sys.stderr, check=True)
    configure(BENCH_DIR, BENCH_BUILD, ["-DCMAKE_PREFIX_PATH=" + STAGE])
    sh(["cmake", "--build", BENCH_BUILD, "-j", JOBS])


def source_stamp():
    """Git commit when the checkout is a repository, plus a digest of the
    library sources (the benchmark's checkout usually has no .git)."""
    commit = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return commit + "+src:" + digest.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: run from the root of a RAMR checkout "
                 "(no CMakeLists.txt and src/ here)")
    build()
    if a.self_test:
        sys.exit(subprocess.run(
            [os.path.join(BENCH_BUILD, "perfbench_selftest")]).returncode)
    if not a.workload:
        sys.exit("perfbench: --workload is required")

    out_dir = os.path.relpath(os.path.join(BUILD, "results"), ROOT)
    data_dir = os.path.relpath(os.path.join(BUILD, "data"), ROOT)
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(data_dir, exist_ok=True)
    cmd = [os.path.join(BENCH_BUILD, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--out-dir", out_dir, "--data-dir", data_dir,
           "--commit", source_stamp(),
           "--lib-build-type", cache_value(LIB_BUILD, "CMAKE_BUILD_TYPE")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
