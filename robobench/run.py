#!/usr/bin/env python3
"""Build the benchmark against the repository's libraries and run it.

Run from the repository root:

    python3 robobench/run.py --workload control --seed 1 --seconds 20 --trace 0

The repository is configured with its own CMakeLists.txt and flags
(RelWithDebInfo), with robobench/robobench.cmake injected through
CMAKE_PROJECT_INCLUDE so no repository file is edited. Only the
`robobench` target and the libraries it links are built, under
$CARGO_TARGET_DIR (default .bench_build). The benchmark's output and
traces go to .bench_out/. The last line of standard output is the
result JSON; see README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "robobench")
EXE = os.path.join(BUILD, "robobench-bin", "robobench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("robobench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; quiet unless it fails."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are missing")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "robobench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DCMAKE_PROJECT_INCLUDE="
                      + os.path.join(HERE, "robobench.cmake")])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "robobench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-40:]
                sys.stderr.write("".join(tail))
                fail("build step failed: " + " ".join(cmd))


def source_id():
    """git commit when available, plus a digest of the built sources."""
    digest = hashlib.sha256()
    for base in ("src", "robobench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = ""
    try:
        # Only a repository rooted here names this checkout's commit.
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=10).stdout.split() or ["", ""]
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    return "%s+src-%s" % (commit or "no-git", digest.hexdigest()[:12])


def run_benchmark(args, stdout=None):
    """Run the built binary; returns (exit code, captured stdout or None)."""
    cmd = [EXE] + list(args) + ["--out-dir", OUT, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=stdout, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 5)
    return proc.returncode, proc.stdout


def main(argv):
    build()
    os.makedirs(OUT, exist_ok=True)
    sys.stdout.flush()
    code, _ = run_benchmark(argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
