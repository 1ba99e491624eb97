#!/usr/bin/env python3
"""Build and run the TPC-H + refresh benchmark (see src/main.rs).

Run from the repository root, for example:

    python3 tpchbench/run.py --workload tpch-raw --seed 1 --seconds 25 --trace 0

Cargo's output goes to stderr; the benchmark's result is the last line
of stdout. Temporary files (rustc's and the engine's spill root) and
the refresh workload's checkpoints stay under `.bench_data/` in the
repository root.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cmd, **kw) -> int:
    """Run `cmd` in a process group of its own and wait for it. On any
    exit path (SIGTERM included) the whole group is killed and reaped,
    so no compiler or benchmark process outlives this script."""
    child = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def main() -> int:
    if not (ROOT / "crates" / "tpch" / "Cargo.toml").is_file():
        print("tpchbench: the repository's crates are missing; run from a full checkout",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into an exception so that `run` stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = ROOT / ".bench_data" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is ROOT for both commands below.
    target = ROOT / env.get("CARGO_TARGET_DIR", str(HERE / "target"))
    code = run(["cargo", "build", "--release", "--offline", "--quiet",
                "--manifest-path", str(HERE / "Cargo.toml")],
               cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"tpchbench: build failed with code {code}", file=sys.stderr)
        return 2
    return run([str(target / "release" / "tpchbench"), *sys.argv[1:]], cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
