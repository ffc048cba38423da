#!/usr/bin/env python3
"""Builds the ad-path benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ad_serve --seed 0 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build) and its output
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: non-zero when the build fails or an output is
incorrect.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(command, env, **kwargs):
    """Runs a child to completion, forwarding SIGINT/SIGTERM to it."""
    child = subprocess.Popen(command, env=env, **kwargs)

    def forward(signum, _frame):
        child.send_signal(signum)

    previous = {s: signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        return child.wait()
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env,
        stdout=sys.stderr,
    )
    if build != 0:
        print(f"perfbench: build failed with exit code {build}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    status = run([os.path.join(target, "release", "perfbench")] + sys.argv[1:], env)
    return status if status >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
