#!/usr/bin/env python3
"""Check that a workload is deterministic in its seed.

    python3 perfbench/determinism.py --workload <name> [--seed 1] [--other-seed 2] [--seconds 15]

Runs the workload three times from the checkout root: twice with --seed
and once with --other-seed. Every run must pass its own checks. The two
same-seed runs must print equal per-op digests over the ops both ran. The
other seed must give different digests, or the seed never reached the
inputs. Each run is its own JVM, because the program's Harness caches
records by profile name, not by seed. Exits 0 when all of this holds.
"""

import argparse
import pathlib
import re
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"
OP_LINE = re.compile(r"^op (\d+) .* digest ([0-9a-f]+)$")


def digests(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run failed (exit {proc.returncode})\n{proc.stdout[-2000:]}")
    found = [OP_LINE.match(line) for line in proc.stdout.splitlines()]
    return [m.group(2) for m in found if m]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=15)
    args = ap.parse_args()

    first = digests(args.workload, args.seed, args.seconds)
    again = digests(args.workload, args.seed, args.seconds)
    other = digests(args.workload, args.other_seed, args.seconds)
    common = min(len(first), len(again))
    print(f"seed {args.seed}: {first}\nseed {args.seed} again: {again}\nseed {args.other_seed}: {other}")
    if common == 0 or first[:common] != again[:common]:
        sys.exit(f"{args.workload}: same seed, different digests")
    if other[0] == first[0]:
        sys.exit(f"{args.workload}: seeds {args.seed} and {args.other_seed} gave the same first op")
    print(f"{args.workload}: deterministic over {common} op(s); seed {args.other_seed} passes its checks")


if __name__ == "__main__":
    main()
