"""Operations and seeded size draws shared by the workloads."""

from __future__ import annotations


class Op:
    """One closed-loop operation.

    run(tracer) makes the refshift call(s) and returns the output;
    check(output) returns None when it matches the benchmark's reference,
    else a reason.  defect names a known defect this input triggers.
    """

    def __init__(self, kind, run, check, size=None, defect=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.size = size
        self.defect = defect


class LogSizes:
    """k log-uniform sizes per round in [lo, hi], one from each of k equal strata.

    Each stratum is cut again into one sub-stratum per round, and every size
    is drawn on its own inside its sub-stratum.  The pool of rounds thus
    covers the log range evenly, every round spans all of it, and no single
    draw moves many sizes at once: the pool's total cost and its percentiles
    change little from seed to seed.
    """

    def __init__(self, rng, lo, hi, k, rounds):
        self.lo, self.hi, self.k, self.rounds = lo, hi, k, rounds
        self.jitter = [[rng.random() for _ in range(k)] for _ in range(rounds)]

    def floats(self, r):
        R = self.rounds
        return [self.lo * (self.hi / self.lo) ** ((j + (r + v) / R) / self.k)
                for j, v in enumerate(self.jitter[r])]

    def ints(self, r):
        return [int(round(x)) for x in self.floats(r)]
