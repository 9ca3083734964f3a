#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); spans of traced runs go to
<build root>/spans and temporary files to <build root>/tmp. Everything after
the build is the perfbench binary's own output; its last stdout line is the
JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    # Compiler temporaries stay inside the build root too.
    tmp_dir = os.path.join(root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        return 1
    spans_dir = os.path.join(root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:] + ["--out-dir", spans_dir],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
