#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, or `.bench_build` when that is unset,
then runs it with the same arguments plus, for a traced run, a spans
file under the target directory. The last
line of standard output is the result line; the exit code is the
benchmark's (1 when an output check failed, 2 on a build or argument
error, 3 on a timeout).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: building the benchmark: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return 2

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", args.seconds,
        "--trace", args.trace,
        "--spans", os.path.join(target, "perfbench-spans", f"{args.workload}.csv"),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except OSError as e:
        print(f"error: running the benchmark: {e}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print(f"error: the run took longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
