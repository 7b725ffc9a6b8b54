#!/usr/bin/env python3
"""Build and run the parqo benchmark.

    python3 perfbench/run.py --workload compile|serve|sched|sql \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark is built from source with
dune into the build directory named by CARGO_TARGET_DIR (default
.bench_build); traces and per-run result files go to .bench_out.  The
last line of standard output is the result object.  Exits nonzero when
the build fails, an output check fails or the run overruns.
"""

import hashlib
import json
import os
import subprocess
import sys

TIMEOUT_S = 175
SOURCES = ("dune-project", "lib", "bin", "perfbench")


def source_digest(root):
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if not f.endswith(".pyc")
        )
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isdir(os.path.join(root, "lib")):
        sys.exit("run.py: run from the repository root (no lib/ here)")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./perfbench/bench.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    commit = "git:%s src:%s" % (git_commit(root), source_digest(root))
    args = [exe, "--out-dir", ".bench_out", "--commit", commit] + sys.argv[1:]
    try:
        run = subprocess.run(args, cwd=root, stdout=subprocess.PIPE,
                             text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark overran %d s" % TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode == 0 and "--selftest" not in sys.argv:
        check_metrics(root, json.loads(lines[-1]), "--trace" in sys.argv
                      and sys.argv[sys.argv.index("--trace") + 1] == "1")
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


def check_metrics(root, result, traced):
    """The result must report exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        sys.exit("run.py: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(want.items()) ^ set(got.items())))


if __name__ == "__main__":
    main()
