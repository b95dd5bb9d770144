#!/usr/bin/env python3
"""Build and run the FTDL end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-seqcnn --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the framework from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
ftdl_perfbench binary with the same arguments. Its last stdout line is the
JSON result. A traced run (--trace 1) writes its span file and tables to
<build dir>/trace unless --out-dir is given. Build output goes to stderr.
"""
import os
import subprocess
import sys

# A run must finish within 180 s; the binary is stopped a little before.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def build(bench_dir, build_dir):
    def step(cmd):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", bench_dir, "-B", build_dir])
    step(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, "ftdl_perfbench")


def main(argv):
    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        exe = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    args = list(argv)
    if "--out-dir" not in args:
        out_dir = os.path.join(build_dir, "trace")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--out-dir", out_dir]
    proc = subprocess.Popen([exe] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
