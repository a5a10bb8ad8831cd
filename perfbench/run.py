#!/usr/bin/env python3
"""Build and run netchar's end-to-end benchmark (see BENCHMARK.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds the perfbench/ CMake package into
$CARGO_TARGET_DIR (default .bench_build, relative to the checkout
root), then runs one workload there. Build output goes to stderr; the
benchmark's stdout, whose last line is the result object, passes
through unchanged. Exits non-zero, printing no result, when the build
or the run fails.
"""

import os
import signal
import subprocess
import sys

# A run measures its window plus set-up and checks; well under this.
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.join(root,
                              os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    # Compiler temporaries too stay inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                            "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, env=env)
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True, env=env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
           "--workdir", os.path.join(build_root, "perfbench-work")]
    proc = subprocess.Popen(cmd, cwd=root, env=env)

    def stop(signum, _frame):
        # Stopped from outside: take the benchmark down too.
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
