"""Child CPU time of every cli-cold command, run cold from two src/ trees in turn.

    python devtools/cold.py OLD_SRC NEW_SRC [--seed 1] [--repeats 15]

The commands are those of one cli-cold round, taken from
perfbench/wl_cli.py (its commands() and write_files(); nothing under
perfbench/ is changed), and their model, table and arc files are written
under a temporary directory.  Each command runs as a cold
`python -m refshift` child with PYTHONDONTWRITEBYTECODE=1, so every child
compiles src/ as a benchmark child does, one child at a time, alternating
the two trees and which of them goes first.  A child's CPU time is the
growth of getrusage(RUSAGE_CHILDREN) user plus system time over its run;
on a shared host it moves far less than wall clock, which is printed
beside it.  Prints each command's median per tree and the median over all
commands.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import wl_cli  # noqa: E402


def run_child(argv: list[str], env: dict, cwd: str) -> tuple[float, float]:
    """CPU and wall seconds of one child, which must be the only one running."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=wl_cli.CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the src/ directory of one tree")
    parser.add_argument("new", type=Path, help="the src/ directory of the other")
    parser.add_argument("--seed", type=int, default=1, help="seed of the cli-cold round")
    parser.add_argument("--repeats", type=int, default=15, help="children per command and tree")
    args = parser.parse_args(argv)
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    for label, src in trees.items():
        if not (src / "refshift" / "__init__.py").is_file():
            parser.error(f"{label}: no refshift package under {src}")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    envs = {label: dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
            for label, src in trees.items()}
    with tempfile.TemporaryDirectory() as tmp:
        rng = random.Random(args.seed)
        commands = wl_cli.commands(rng, wl_cli.write_files(rng, Path(tmp), "cold"))
        cpu = {(c.kind, label): [] for c in commands for label in trees}
        wall = {key: [] for key in cpu}
        for repeat in range(args.repeats):
            for index, command in enumerate(commands):
                for label in list(trees)[::1 if (repeat + index) % 2 == 0 else -1]:
                    used, took = run_child([sys.executable, "-m", "refshift", *command.argv], envs[label], tmp)
                    cpu[command.kind, label].append(used)
                    wall[command.kind, label].append(took)
    print(f"{len(commands)} commands, {args.repeats} children each per tree; medians in ms")
    print(f"{'command':<22} {'old cpu':>8} {'new cpu':>8} {'new/old':>8} {'old wall':>9} {'new wall':>9}")
    medians = {key: (statistics.median(cpu[key]) * 1e3, statistics.median(wall[key]) * 1e3) for key in cpu}
    for command in commands:
        (old_cpu, old_wall), (new_cpu, new_wall) = medians[command.kind, "old"], medians[command.kind, "new"]
        print(f"{command.kind:<22} {old_cpu:>8.1f} {new_cpu:>8.1f} {new_cpu / old_cpu:>8.3f} "
              f"{old_wall:>9.1f} {new_wall:>9.1f}")
    overall = {label: [statistics.median([medians[c.kind, label][i] for c in commands]) for i in (0, 1)]
               for label in trees}
    print(f"{'median of commands':<22} {overall['old'][0]:>8.1f} {overall['new'][0]:>8.1f} "
          f"{overall['new'][0] / overall['old'][0]:>8.3f} {overall['old'][1]:>9.1f} {overall['new'][1]:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
