"""Size curves of refshift's hot paths, written to bench/BENCH_<short-commit>.json.

    python devtools/curves.py [--src PATH]

Each curve times one operation at sizes 2x apart.  Per size it keeps the
minimum of REPEATS CPU timings (time.process_time, which moves less than
wall clock on a shared host), taken in REPEATS rounds over all sizes, and,
at the two smallest sizes, the number of
lines run in refshift's own files (sys.settrace).  It fits the log-log
exponent of time in size over all sizes and over the TOP largest.  Line
counts miss work done in C, such as big-integer arithmetic, so the
exponent is fitted from time and the line count rides beside it.

--src names the src/ directory that refshift is imported from; by default
it is this checkout's.  Pointing it at another checkout (a clone of an
older commit, say) measures that tree without editing it.  The commit is
read from the git checkout that holds --src, with "-dirty" appended when
its src/ differs from that commit.  The file goes to bench/ in this
checkout.  Standard library only.

The curves so far (ROADMAP item 1a) are the digit count of
GodelNumber.value(), on one run of sixes and on many short runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench"
SIZES = [2**e for e in range(11, 20)]  # digits; 2**19 is about half the materialize cap
REPEATS = 5
TOP = 3
MANY_RUN_COUNTS = (1, 2, 3, 9, 64)  # about 16 digits a run, five distinct run lengths


def one_run(godel, digits: int):
    return godel.GodelNumber(((6, digits),))


def many_runs(godel, digits: int):
    """Runs of MANY_RUN_COUNTS digits in turn, over digits 1..7 in turn, the last cut to fit."""
    runs, total = [], 0
    for count in itertools.cycle(MANY_RUN_COUNTS):
        count = min(count, digits - total)
        runs.append((len(runs) % 7 + 1, count))
        total += count
        if total == digits:
            return godel.GodelNumber(tuple(runs))


CURVES = {
    "value.one_run": one_run,
    "value.many_runs": many_runs,
}


def cpu_min(works, repeats: int) -> list[float]:
    """The fastest of repeats CPU timings of each work, taken in rounds over all of them,
    so that a slow stretch of a shared host costs each size one timing, not all of one size's."""
    best = [math.inf] * len(works)
    for _ in range(repeats):
        for i, work in enumerate(works):
            start = time.process_time()
            work()
            best[i] = min(best[i], time.process_time() - start)
    return best


def lines_run(work, package: str) -> int:
    """Lines run in the files under package while work() runs."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if not frame.f_code.co_filename.startswith(package):
            return None
        lines += event == "line"
        return trace

    sys.settrace(trace)
    try:
        work()
    finally:
        sys.settrace(None)
    return lines


def exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) on log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def commit_of(src: Path) -> str:
    git = ["git", "-C", str(src)]
    short = subprocess.run(git + ["rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True)
    dirty = subprocess.run(git + ["status", "--porcelain", "--", "."], capture_output=True, text=True, check=True)
    return short.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to measure")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "refshift" / "__init__.py").is_file():
        parser.error(f"no refshift package under {src}")
    sys.path.insert(0, str(src))
    from refshift import godel

    package = str(src / "refshift") + os.sep
    if not godel.__file__.startswith(package):
        parser.error(f"refshift was imported from {godel.__file__}, not from {src}")
    curves = {}
    for name, build in CURVES.items():
        numbers = [build(godel, size) for size in SIZES]
        seconds = cpu_min([number.value for number in numbers], REPEATS)
        curves[name] = {
            "sizes": SIZES,
            "runs": [len(number.runs) for number in numbers],
            "seconds": seconds,
            "exponent": round(exponent(SIZES, seconds), 3),
            "exponent_top": round(exponent(SIZES[-TOP:], seconds[-TOP:]), 3),
            "lines": {str(size): lines_run(number.value, package) for size, number in zip(SIZES, numbers[:2])},
        }
        print(f"{name}: exponent {curves[name]['exponent']}, over the top {TOP} sizes "
              f"{curves[name]['exponent_top']}; {seconds[-1] * 1e3:.1f} ms at {SIZES[-1]} digits")
    commit = commit_of(src)
    report = {
        "commit": commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timer": f"time.process_time, minimum of {REPEATS}",
        "curves": curves,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{commit}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
