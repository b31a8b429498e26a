"""Check that the exact per-layer counts repeat bit for bit per seed.

Runs the traced benchmark twice on one seed and once on a held-out
seed for every workload, and fails when a count of ``layers.EXACT``
differs between the two same-seed runs.  Run from the repository
root::

    python3 perfbench/check_counts.py --seed 3 --held-out 1001
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

from layers import EXACT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced(workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stdout[-2000:]}"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--held-out", type=int, default=1001)
    parser.add_argument("--seconds", type=float, default=8)
    args = parser.parse_args()
    failed = False
    for workload in WORKLOADS:
        first = traced(workload, args.seed, args.seconds)
        second = traced(workload, args.seed, args.seconds)
        other = traced(workload, args.held_out, args.seconds)
        for name in EXACT:
            same = first[name] == second[name]
            failed |= not same
            print(f"{workload:13s} {name:28s} seed {args.seed}: "
                  f"{first[name]!r} / {second[name]!r} "
                  f"{'repeats' if same else 'DIFFERS'}; held-out seed "
                  f"{args.held_out}: {other[name]!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
