"""refshift benchmark: one closed-loop client drives one workload.

    python3 perfbench/run.py --workload shift-deep --seed 1 --seconds 25 --trace 0

Run from the repository root; refshift is imported from ./src.  With
--trace 0 the loop passes over the workload's pool of operations, untraced,
until --seconds have passed and every operation ran at least MIN_PASSES
times (set-ups for setup_s are spread over the loop, outside its time);
each operation's latency is the fastest of its runs, and the
end-to-end metrics are taken over those latencies.  With
--trace 1 a fixed number of rounds runs once untraced and once traced,
and the per-layer metrics come from the traced pass; counts then repeat
exactly for a given seed.  Human-readable lines come first; the last line
of standard output is one JSON object.  See perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True  # every run imports refshift from source, like the first

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import defects  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import wl_cli  # noqa: E402
import wl_engines  # noqa: E402
import wl_godel  # noqa: E402
import wl_shift  # noqa: E402

WORKLOADS = {m.NAME: m for m in (wl_shift, wl_godel, wl_engines, wl_cli)}
SETUPS = 15  # set-ups per run, spread evenly over the loop's time; setup_s is their median
MIN_PASSES = 4  # runs of every operation in the pool at least; its latency is the fastest
MIN_OPS = 200  # operations per run at least
LOOP_CAP = 1.5  # the loop stops at this many times --seconds even short of MIN_PASSES


class Context:
    """What a workload needs besides the seed: refshift's modules and paths."""

    def __init__(self, rs, tiny):
        self.rs = rs
        self.tiny = tiny
        self.root = ROOT
        self.src = SRC
        self.out = OUT


def import_refshift():
    """Import refshift afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "refshift" or m.startswith("refshift.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("refshift." + m) for m in layers.MODULES})


def set_up(wl, seed, tiny=False):
    """Import refshift and build the workload's rounds; returns (rounds, ctx, seconds)."""
    t0 = time.perf_counter()
    ctx = Context(import_refshift(), tiny)
    rounds = wl.build(ctx, random.Random(seed))
    return rounds, ctx, time.perf_counter() - t0


class Tally:
    """Outcome of one closed-loop pass."""

    def __init__(self):
        self.samples = {}  # op -> its latencies
        self.failing = set()  # ops that failed at least once
        self.passed = 0
        self.failed = 0
        self.check_s = 0.0
        self.wall_s = 0.0
        self.defect_failures = {}
        self.unexpected = []

    @property
    def attempted(self):
        return self.passed + self.failed

    @property
    def ops_per_s(self):
        busy = self.wall_s - self.check_s
        return self.passed / busy if busy > 0 else 0.0

    def costs(self):
        """Per operation: the fastest of its latencies."""
        return {op: min(runs) for op, runs in self.samples.items()}

    def add(self, other):
        for op, runs in other.samples.items():
            self.samples.setdefault(op, []).extend(runs)
        self.failing |= other.failing
        self.passed += other.passed
        self.failed += other.failed
        self.check_s += other.check_s
        self.wall_s += other.wall_s
        for k, v in other.defect_failures.items():
            self.defect_failures[k] = self.defect_failures.get(k, 0) + v
        self.unexpected += other.unexpected


def run_op(op, op_id, tr, tally):
    """One closed-loop operation: call, time, check; failures never abort the run."""
    perf = time.perf_counter
    with tr.op(op_id, op.kind):
        t0 = perf()
        try:
            out = op.run(tr)
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            err = f"{type(exc).__name__}: {exc}"
        t1 = perf()
        with tr.span("bench.check"):
            if err is None:
                try:
                    err = op.check(out)
                except Exception as exc:  # a malformed output is a wrong answer
                    err = f"check raised {type(exc).__name__}: {exc}"
        t2 = perf()
    tally.samples.setdefault(op, []).append(t1 - t0)
    tally.check_s += t2 - t1
    if err is None:
        tally.passed += 1
        return
    tally.failed += 1
    tally.failing.add(op)
    if op.defect:
        tally.defect_failures[op.defect] = tally.defect_failures.get(op.defect, 0) + 1
    elif len(tally.unexpected) < 20:
        tally.unexpected.append(f"{op.kind} (size {op.size}): {err[:300]}")


def closed_loop(rounds, tr, seconds=None, n_rounds=None, tally=None, between=None, every_s=None):
    """Whole rounds, one operation at a time, until the time or round count is reached.

    between() runs after a round once every every_s seconds of loop time; its
    time is left out of the loop's.
    """
    tally = Tally() if tally is None else tally
    start = time.perf_counter()
    r = 0
    paused = 0.0
    breaks = 0
    while True:
        for op in rounds[r % len(rounds)]:
            run_op(op, tally.attempted, tr, tally)
        r += 1
        elapsed = time.perf_counter() - start - paused
        if between is not None and elapsed >= every_s * (breaks + 1):
            breaks += 1
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0
        if n_rounds is not None:
            if r >= n_rounds:
                break
        elif (elapsed >= seconds and r >= MIN_PASSES * len(rounds) and tally.attempted >= MIN_OPS) \
                or elapsed >= LOOP_CAP * seconds:
            break
    tally.wall_s += time.perf_counter() - start - paused
    return tally


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def defect_share(rounds):
    """Expected failing share if every listed defect still fails."""
    ops = [op for rnd in rounds for op in rnd]
    return sum(1 for op in ops if op.defect) / len(ops)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "refshift" / "__init__.py").is_file():
        print(f"error: no refshift sources under {SRC}; run from a refshift checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]

    rounds, ctx, took = set_up(wl, args.seed)
    setup_times = [took]

    def set_up_again():
        if len(setup_times) < SETUPS:
            setup_times.append(set_up(wl, args.seed)[2])

    share = defect_share(rounds)
    print(f"workload {wl.NAME}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  {sum(map(len, rounds))} operations in {len(rounds)} seeded rounds; "
          f"known-defect share {share:.6f}")

    if args.trace:
        tally, metrics = traced_run(wl, rounds, ctx, args)
    else:
        tally = closed_loop(rounds, spans.NullTracer(), seconds=args.seconds,
                            between=set_up_again, every_s=args.seconds / SETUPS)
        while len(setup_times) < SETUPS:
            set_up_again()
        print(f"  set-ups: " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
        ops_per_s, p50, p95 = timing(tally.costs(), tally.failing)
        n = len(tally.samples)
        beyond = n - int(0.95 * (n - 1)) - 1
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_p95_ms": (p95, "ms"),
            "pass_rate": (tally.passed / tally.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        runs = f"each the fastest of {tally.attempted / n:.1f} runs on average"
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "ops_per_s": f"{n - len(tally.failing)} passing of {n} operations, {runs} "
                         f"({tally.ops_per_s:.3f}/s over the loop's "
                         f"{tally.wall_s - tally.check_s:.3f} s less checks)",
            "op_p50_ms": f"n={n} operations, {runs}",
            "op_p95_ms": f"n={n}, {beyond} operations beyond",
            "pass_rate": f"{tally.passed} passed / {tally.attempted} attempted",
            "peak_rss_mb": "max of this process and its children",
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<13} {value:>14.6f} {unit:<6} {notes[name]}")

    correct = report_failures(tally, share)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def timing(costs, failing):
    """ops_per_s, op_p50_ms and op_p95_ms over per-operation costs in seconds."""
    lat = sorted(costs.values())
    cuts = statistics.quantiles(lat, n=20, method="inclusive")  # every 5th percentile
    return (len(lat) - len(failing)) / sum(lat), cuts[9] * 1000, cuts[18] * 1000


def report_failures(tally, share):
    """Print the failure accounting; correct means only listed defects failed."""
    print(f"  {'error_rate':<13} {tally.failed / tally.attempted:>14.6f} {'ratio':<6} "
          f"{tally.failed} failed / {tally.attempted} attempted; known-defect share {share:.6f}")
    for defect_id, n in sorted(tally.defect_failures.items()):
        print(f"  known defect {defect_id}: {n} failures  ({defects.DEFECTS[defect_id]})")
    for line in tally.unexpected:
        print(f"  UNEXPECTED FAILURE {line}")
    return not tally.unexpected


def traced_run(wl, rounds, ctx, args):
    """The same fixed rounds untraced and traced, alternating; per-layer metrics."""
    n_rounds = min(len(rounds), 1 if ctx.tiny else wl.TRACE_ROUNDS)
    plain, traced, tr = Tally(), Tally(), spans.Tracer()
    for r in range(n_rounds):
        passes = [(spans.NullTracer(), plain), (tr, traced)]
        for tracer, tally in passes if r % 2 == 0 else reversed(passes):
            closed_loop(rounds[r:r + 1], tracer, n_rounds=1, tally=tally)
    extra = wl.trace_extra(ctx, rounds[:n_rounds], closed_loop) if hasattr(wl, "trace_extra") else {}
    extra_tally = extra.pop("tally", None)
    extra["trace.ops_per_s_untraced"] = plain.ops_per_s
    extra["trace.ops_per_s_traced"] = traced.ops_per_s
    extra["trace.overhead"] = 1 - traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
    values, fits = layers.compute(tr, traced.wall_s, extra)
    path = OUT / f"spans-{wl.NAME}-{args.seed}.jsonl"
    tr.dump(path)
    print(f"  {n_rounds} rounds untraced ({plain.wall_s:.3f} s) and traced "
          f"({traced.wall_s:.3f} s); {len(tr.spans)} spans in {path.relative_to(ROOT)}")
    for name, (value, unit) in values.items():
        fit = fits.get(name)
        note = f"  sizes {fit[1]:g}..{fit[2]:g}, {fit[3]} samples" if fit else ""
        print(f"  {name:<40} {value:>14.6f} {unit}{note}")
    tally = Tally()
    for part in (plain, traced, extra_tally):
        if part is not None:
            tally.add(part)
    return tally, values


if __name__ == "__main__":
    sys.exit(main())
