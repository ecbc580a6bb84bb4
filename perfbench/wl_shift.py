"""shift-deep: a few long words through core's shift and normalisation.

Why: core does nearly all the work here, through the cubic iterate_shift
and the quadratic rewrite normaliser; godel, fixpoint and lawvere never run.
"""

from __future__ import annotations

from dataclasses import replace

import refs
from ops import LogSizes, Op

NAME = "shift-deep"
ROUNDS = 8
TRACE_ROUNDS = 6
PER_PAIR = 6  # iterate_shift calls per polynomial pair per round
LAMBDAS = 2
COMPOSES = 10

UV_PAIR = """\
object O
generator u : O -> O
generator v : O -> O
rule u v => 1
"""


def _iterate(core, tr, pair, arrow, n, size):
    with tr.span("core.iterate_shift", size=size):
        seq = core.iterate_shift(pair, arrow, n)
    if tr.on:
        tr.count("core.iterate_shift.gens_out", sum(len(a.src) + len(a.dst) for a in seq.arrows))
    return seq


def _shift_op(core, kind, pair, arrow, n, arrow_at, lengths_at):
    return Op(
        kind,
        lambda tr: _iterate(core, tr, pair, arrow, n, n),
        lambda seq: refs.check_shift_sequence(seq, n, arrow_at, lengths_at),
        size=n,
    )


def _russell_op(core, pair, axiom, n):
    def run(tr):
        with tr.span("core.srt1"):
            start = core.srt1(pair, axiom).final
        return _iterate(core, tr, pair, start, n, n)

    return Op("iterate-russell", run,
              lambda seq: refs.check_shift_sequence(seq, n, refs.russell_arrow, refs.russell_lengths),
              size=n)


def _lambda_op(core, pair, arrow, n):
    def arrow_at(k):
        return [("F", 2**k)], [("F", 2**k)]

    return Op(
        "iterate-lambda",
        lambda tr: _iterate(core, tr, pair, arrow, n, None),  # exponential: kept out of the fit
        lambda seq: refs.check_shift_sequence(seq, n, arrow_at, lambda k: (2**k, 2**k),
                                              label="shift-lambda"),
        size=n,
    )


def _compose_op(core, cat, f, g, names):
    expected = refs.runs_of(refs.cancel_uv(names))

    def run(tr):
        with tr.span("core.compose", size=len(names)):
            return core.compose(cat, f, g)

    return Op("compose-uv", run, lambda w: refs.check_word(w, expected, "normal form"),
              size=len(names))


def build(ctx, rng):
    core = ctx.rs.core
    tiny = ctx.tiny
    simplest = core.BUILTIN_PAIRS["simplest"]()
    nxt = core.BUILTIN_PAIRS["next-simplest"]()
    russell = core.BUILTIN_PAIRS["russell"]()
    lam = replace(nxt, is_lambda_pair=True)
    uv = core.load_pair_text(UV_PAIR).base
    starts = {
        "simplest": core.parse_arrow(simplest, "1_O -> 1_O"),
        "next": core.parse_arrow(nxt, "1_O -> F"),
        "russell": core.parse_arrow(russell, "R -> ~#"),
        "lambda": core.parse_arrow(lam, "F -> F"),
    }
    shift_lo, shift_hi = (4, 12) if tiny else (16, 256)
    n_rounds = 1 if tiny else ROUNDS
    draws = {key: LogSizes(rng, shift_lo, shift_hi, PER_PAIR, n_rounds) for key in ("s", "n", "r")}
    lam_sizes = LogSizes(rng, *((2, 4) if tiny else (6, 12)), LAMBDAS, n_rounds)
    comp_sizes = LogSizes(rng, *((8, 32) if tiny else (64, 1024)), COMPOSES, n_rounds)

    rounds = []
    for r in range(n_rounds):
        ops = []
        for n in draws["s"].ints(r):
            ops.append(_shift_op(core, "iterate-simplest", simplest, starts["simplest"], n,
                                 refs.simplest_arrow, lambda k: (k, k * (k - 1) // 2)))
        for n in draws["n"].ints(r):
            ops.append(_shift_op(core, "iterate-next-simplest", nxt, starts["next"], n,
                                 refs.next_simplest_arrow, lambda k: (k, 1 + k * (k - 1) // 2)))
        for n in draws["r"].ints(r):
            ops.append(_russell_op(core, russell, starts["russell"], n))
        for n in lam_sizes.ints(r):
            ops.append(_lambda_op(core, lam, starts["lambda"], n))
        for length in comp_sizes.ints(r):
            names = [rng.choice("uv") for _ in range(length)]
            cut = rng.randint(1, length - 1)
            f, g = uv.word(names[:cut]), uv.word(names[cut:])
            ops.append(_compose_op(core, uv, f, g, names))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds
