"""godel-runs: run-length digit arithmetic on codes and their sharps.

Why: the median falls on operations that cost O(runs) (sharp, compose,
codecs); the 95th percentile falls on the big-integer value() path (value,
SHARP applied to a numeral, the 341757-digit self-refuter).  A change that
trades one for the other shows.  core stays idle.
"""

from __future__ import annotations

import bisect
import itertools
import math

import refs
from ops import LogSizes, Op

NAME = "godel-runs"
ROUNDS = 24  # a multiple of 3: the self-refuter's codec slot cycles every third round
TRACE_ROUNDS = 12
SELF_REFUTER_SEED = "341752"  # code of ~P(#x)
REFUTER_EVERY = 2  # its value() takes ~0.1 s, most of a pass; every other round keeps passes short

# op kind -> operations per round
MIX = {
    "sharp_decimal": 4,
    "compose_numbers": 4,
    "fml-o-num": 2,
    "fml-o-fml": 2,
    "sharp-o-num": 2,
    "sharp-o-numeral": 2,
    "codec-encdec": 2,
    "codec-wire": 2,
    "codec-compact": 2,
    "value": 4,
    "value-self-refuter": 1,  # in every REFUTER_EVERY-th round only
    "srt1": 2,
}


def all_codes(lengths):
    """Codes over digits 1-7 with at least one 5, sorted by value."""
    return sorted(
        (int(c), c)
        for n in lengths
        for c in ("".join(t) for t in itertools.product("1234567", repeat=n))
        if "5" in c
    )


class CodePicker:
    """Codes whose values are log-uniform over the code range, via LogSizes.

    A draw is read as a share of the log range that the codes cover: each code
    covers half the log distance to either neighbour, at most GAP_CAP, so a
    draw never lands in a gap between code lengths (say 7775 to 11115) and
    piles up on the code at its edge.
    """

    GAP_CAP = 0.02

    def __init__(self, rng, codes, k, rounds):
        self.codes = codes
        logs = [math.log(v) for v, _ in codes]
        half = [min((b - a) / 2, self.GAP_CAP) for a, b in zip(logs, logs[1:])]
        widths = [a + b for a, b in zip([0.0] + half, half + [0.0])]
        self.ends = list(itertools.accumulate(widths))
        self.sizes = LogSizes(rng, 1.0, math.e, k, rounds)  # shares of the covered range, log-uniform

    def pick(self, r):
        out = []
        for x in self.sizes.floats(r):
            target = math.log(x) * self.ends[-1]
            i = min(bisect.bisect_left(self.ends, target), len(self.codes) - 1)
            out.append(self.codes[i][1])
        return out


def _tally(godel, tr, out):
    if not tr.on:
        return
    obj = out.number if isinstance(out, godel.Num) else out.formula if isinstance(out, godel.Fml) else out
    tr.count("godel.runs_out", len(obj.runs))
    if isinstance(obj, godel.GodelNumber):
        tr.count("godel.digits_out", obj.digit_length)


def _number_op(godel, kind, span, call, expected_runs):
    """An operation whose output is a GodelNumber (or Num) checked digit for digit."""
    text = refs.runs_text(expected_runs)

    def run(tr):
        with tr.span(span, size=len(text)):
            out = call()
        _tally(godel, tr, out)
        return out

    def check(out):
        number = out.number if isinstance(out, godel.Num) else out
        if not isinstance(number, godel.GodelNumber):
            return f"expected a number, got {type(out).__name__}"
        return refs.check_digits(number, text)

    return Op(kind, run, check, size=len(text))


def _formula_op(godel, kind, call, expected_text):
    def run(tr):
        with tr.span("godel.compose_morphisms", size=len(expected_text)):
            out = call()
        _tally(godel, tr, out)
        return out

    def check(out):
        if not isinstance(out, godel.Fml):
            return f"expected a formula, got {type(out).__name__}"
        got = out.formula.text(cap=len(expected_text))
        return None if got == expected_text else "substituted formula differs from the reference"

    return Op(kind, run, check, size=len(expected_text))


def _numeral_op(godel, code):
    """SHARP o numeral(code): the numeral of value(sharp(code)), checked mod a prime."""
    runs = refs.sharp_runs(refs.digit_runs(code), int(code))
    digits = sum(c for _, c in runs)
    want = refs.mod_value(runs)
    arg = godel.Fml(godel.numeral(int(code)))

    def run(tr):
        with tr.span("godel.compose_morphisms", size=digits):
            out = godel.compose_morphisms(godel.SHARP, arg)
        _tally(godel, tr, out)
        return out

    def check(out):
        if not isinstance(out, godel.Fml) or not out.formula.is_numeral:
            return f"expected a numeral, got {type(out).__name__}"
        return None if out.formula.length % refs.PRIME == want else "numeral count differs mod p"

    return Op("sharp-o-numeral", run, check, size=digits)


def _value_op(godel, kind, number, runs):
    digits = sum(c for _, c in runs)
    want = refs.mod_value(runs)

    def run(tr):
        with tr.span("godel.value", size=digits):
            return number.value()

    return Op(kind, run, lambda v: None if v % refs.PRIME == want else "value differs mod p",
              size=digits)


def _codec_op(godel, kind, number, runs):
    digits = sum(c for _, c in runs)
    chars = [(refs.CHAR_OF[str(d)], c) for d, c in runs]
    formula = godel.decode(number)

    def run(tr):
        with tr.span("godel.codec", size=digits):
            if kind == "codec-encdec":
                f = godel.decode(number)
                return f, godel.encode(f)
            if kind == "codec-wire":
                text = number.wire()
                return text, godel.GodelNumber.from_wire(text)
            text = str(formula)
            return text, godel.parse_compact(text)

    def check(out):
        first, back = out
        if kind == "codec-encdec":
            if first.length != digits:
                return "decoded formula has the wrong length"
            ok = back == number
        elif kind == "codec-wire":
            ok = refs.parse_wire(first) == runs and back == number
        else:
            ok = refs.parse_compact(first) == chars and back == formula
        return None if ok else "round trip differs from the reference"

    return Op(kind, run, check, size=digits)


def _srt1_op(godel, code):
    value = int(code)
    number = godel.GodelNumber.from_digits(code)
    text = refs.formula_text(code)
    pair = godel.reference_pair([(number, godel.decode(number))])
    want_src = refs.runs_text(refs.sharp_runs(refs.digit_runs(code), value))
    want_dst = text.replace("x", "|" * value)

    def run(tr):
        with tr.span("godel.srt1", size=len(want_src)):
            return pair.srt1(pair.axioms[0])

    def check(d):
        final = d.final
        if not isinstance(final.src, godel.Num) or not isinstance(final.dst, godel.Fml):
            return "srt1 did not end in (number -> formula)"
        bad = refs.check_digits(final.src.number, want_src, "shifted code")
        if bad:
            return bad
        got = final.dst.formula.text(cap=len(want_dst))
        return None if got == want_dst else "shifted formula differs from the reference"

    return Op("srt1", run, check, size=len(want_src))


def build(ctx, rng):
    godel = ctx.rs.godel
    codes = all_codes((3,) if ctx.tiny else (3, 4, 5))
    # value() costs grow with the digit count, which is the code's value times its
    # number of 5s; codes with a single 5 make the drawn value the digit count.
    pools = {"srt1": [c for c in codes if "75" in c[1]],
             "value": [c for c in codes if c[1].count("5") == 1]}
    pools["sharp-o-numeral"] = pools["value"]
    n_rounds = 1 if ctx.tiny else ROUNDS
    pickers = {kind: CodePicker(rng, pools.get(kind, codes), k, n_rounds)
               for kind, k in MIX.items() if kind != "value-self-refuter"}
    right = CodePicker(rng, codes, 4, n_rounds)  # right-hand factors
    refuter_runs = refs.sharp_runs(refs.digit_runs(SELF_REFUTER_SEED), int(SELF_REFUTER_SEED))
    refuter, _ = godel.build_self_refuter()

    def sharp_of(code):
        runs = refs.sharp_runs(refs.digit_runs(code), int(code))
        return runs, godel.GodelNumber.from_runs(runs)

    rounds = []
    for r in range(n_rounds):
        picks = {kind: p.pick(r) for kind, p in pickers.items()}
        rights = right.pick(r)
        ops = []
        for c in picks["sharp_decimal"]:
            g = godel.GodelNumber.from_digits(c)
            ops.append(_number_op(godel, "sharp_decimal", "godel.sharp_decimal",
                                  lambda g=g: godel.sharp_decimal(g),
                                  refs.sharp_runs(refs.digit_runs(c), int(c))))
        for c, m in zip(picks["compose_numbers"], rights):
            n_, m_ = godel.GodelNumber.from_digits(c), godel.GodelNumber.from_digits(m)
            ops.append(_number_op(godel, "compose_numbers", "godel.compose_numbers",
                                  lambda n_=n_, m_=m_: godel.compose_numbers(n_, m_),
                                  refs.sharp_runs(refs.digit_runs(c), int(m))))
        for c, m in zip(picks["fml-o-num"], rights):
            f = godel.Fml(godel.decode(godel.GodelNumber.from_digits(c)))
            num = godel.Num(godel.GodelNumber.from_digits(m))
            ops.append(_formula_op(godel, "fml-o-num",
                                   lambda f=f, num=num: godel.compose_morphisms(f, num),
                                   refs.formula_text(c).replace("x", "|" * int(m))))
        for c, m in zip(picks["fml-o-fml"], reversed(rights)):
            f = godel.Fml(godel.decode(godel.GodelNumber.from_digits(c)))
            t = godel.Fml(godel.decode(godel.GodelNumber.from_digits(m)))
            ops.append(_formula_op(godel, "fml-o-fml",
                                   lambda f=f, t=t: godel.compose_morphisms(f, t),
                                   refs.formula_text(c).replace("x", refs.formula_text(m))))
        for c in picks["sharp-o-num"]:
            num = godel.Num(godel.GodelNumber.from_digits(c))
            ops.append(_number_op(godel, "sharp-o-num", "godel.compose_morphisms",
                                  lambda num=num: godel.compose_morphisms(godel.SHARP, num),
                                  refs.sharp_runs(refs.digit_runs(c), int(c))))
        for c in picks["sharp-o-numeral"]:
            ops.append(_numeral_op(godel, c))
        for kind in ("codec-encdec", "codec-wire", "codec-compact"):
            for i, c in enumerate(picks[kind]):
                # the self-refuter takes one codec slot every third round
                if i == 0 and r % 3 == ("codec-encdec", "codec-wire", "codec-compact").index(kind):
                    ops.append(_codec_op(godel, kind, refuter, refuter_runs))
                else:
                    runs, number = sharp_of(c)
                    ops.append(_codec_op(godel, kind, number, runs))
        for c in picks["value"]:
            runs, number = sharp_of(c)
            ops.append(_value_op(godel, "value", number, runs))
        if r % REFUTER_EVERY == 0:
            ops.append(_value_op(godel, "value-self-refuter", refuter, refuter_runs))
        for c in picks["srt1"]:
            ops.append(_srt1_op(godel, c))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds
