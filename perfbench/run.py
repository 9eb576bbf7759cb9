#!/usr/bin/env python3
"""Build and run the DeepLens end-to-end benchmark from a source checkout.

    python3 perfbench/run.py --workload <ingest|paper_q|serve_rw> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The script builds the `perfbench`
crate (a Cargo package of its own that depends on the engine crates by path)
in release mode, offline, into `$CARGO_TARGET_DIR` (default `.bench_build`),
then runs it with the given arguments. Everything the run writes (session
directories, the traced run's span file) goes under `.bench_work/` in the
checkout. The last line of standard output is the benchmark's JSON result;
build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    # The benchmark measures the engine crates next to it; without them
    # there is nothing to build.
    if not os.path.isdir(os.path.join(ROOT, "crates", "core")):
        fail(f"no engine sources under {ROOT}/crates; run from a full checkout")
    if shutil.which("cargo") is None:
        fail("cargo not found on PATH")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    work = os.path.join(ROOT, ".bench_work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(target, "release", "deeplens-perfbench")
    try:
        run = subprocess.run(
            [binary] + sys.argv[1:], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Session directories are per process and empty; keep the traced
        # run's span files, drop the rest.
        for entry in os.listdir(os.path.join(tmp)):
            path = os.path.join(tmp, entry)
            if os.path.isdir(path):
                for sub in os.listdir(path):
                    if not sub.endswith(".jsonl"):
                        shutil.rmtree(os.path.join(path, sub), ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
