"""engines-mix: many short operations across the small engines.

Why: core's Word serves many short words here (smullyan arrows, word
round trips) instead of a few long ones, so a representation or index that
helps shift-deep must not cost here.  smullyan, lawvere, fixpoint and
reflexive each get their own mix of sizes.  godel stays idle.
"""

from __future__ import annotations

import defects
import refs
from ops import LogSizes, Op

NAME = "engines-mix"
ROUNDS = 3
TRACE_ROUNDS = 3
SMULLYAN_ALPHABET = "~PR[]"
MARKERS = ("P", "~P", "R", "~R")
ATOMS = ("F", "G", "a", "b", "c1", "d2")
BOOL_NEG = {"0": "1", "1": "0"}
TRI_NEG = {"0": "1", "1": "0", "J": "J"}

# operations per round; every round also has one sweep of each kind, two deep
# terms (one per depth defect) and the four words of defects.ROUNDTRIP_WORDS.
# The counts put the median inside the spread of microsecond word and arrow
# operations, and the 95th percentile inside the upper range of reduce and
# make_truthful, above the fixed-size two-valued sweep.
MIX = {
    "make_truthful": 4,
    "smullyan-string": 10,  # each: one classify, one reference_arrow, one semantics
    "cantor_diagonal": 3,
    "reduce": 10,
    "parse-print": 4,
    "trefoil-link": 2,  # one TREFOIL, one LINK
    "random-arcs": 1,
    "word-roundtrip": 16,
}


# --- smullyan ---


def universe(rng, size):
    """Machine strings that talk about each other, so truthfulness takes several passes."""
    out = []
    seen = set()
    while len(out) < size:
        if out and rng.random() < 0.6:
            x = out[rng.randrange(len(out))]
            s = rng.choice(MARKERS) + x[: rng.randint(0, len(x))]
        else:
            s = "".join(rng.choices(SMULLYAN_ALPHABET, k=rng.randint(1, 6)))
        if s not in seen and len(s) <= 24:
            seen.add(s)
            out.append(s)
    return out


def machine_string(rng):
    head = rng.choice(MARKERS) if rng.random() < 0.7 else ""
    return head + "".join(rng.choice(SMULLYAN_ALPHABET) for _ in range(rng.randint(0, 8))) or "["


def _truthful_op(sm, strings):
    model = sm.MachineModel(frozenset(strings))
    expected = []  # the reference, computed at the first check

    def check(out):
        if not expected:
            expected.append(refs.truthful_core(strings))
        if set(out.printable) == expected[0]:
            return None
        return f"kept {len(out.printable)} strings, reference keeps {len(expected[0])}"

    def run(tr):
        with tr.span("smullyan.make_truthful", size=len(strings)):
            out = sm.make_truthful(model)
        if tr.on:
            tr.count("smullyan.make_truthful.kept", len(out.printable))
            tr.count("smullyan.make_truthful.universe", len(strings))
        return out

    return Op("make_truthful", run, check, size=len(strings))


def _classify_op(sm, s):
    want = refs.classify(s)

    def run(tr):
        with tr.span("smullyan.classify"):
            return sm.classify(s)

    def check(c):
        got = None if c is None else (c.kind, c.body)
        return None if got == want else f"classify({s!r}) = {got}, expected {want}"

    return Op("classify", run, check)


def _arrow_op(sm, s):
    a = refs.assertion(s)
    if a is not None:
        subject, positive = a
        dst = refs.runs_of(("P" if positive else "~P") + "[" + subject + "]")

    def run(tr):
        with tr.span("smullyan.reference_arrow"):
            return sm.reference_arrow(s)

    def check(arrow):
        if a is None or arrow is None:
            return None if (a is None) == (arrow is None) else f"arrow presence wrong for {s!r}"
        return refs.check_word(arrow.src, refs.runs_of(s), "arrow src") or refs.check_word(
            arrow.dst, dst, "arrow dst")

    return Op("reference_arrow", run, check)


def _semantics_op(sm, s, model, printable):
    want = refs.truth(s, printable)

    def run(tr):
        with tr.span("smullyan.semantics"):
            return sm.semantics(s, model)

    return Op("semantics", run,
              lambda v: None if v == want else f"semantics({s!r}) = {v}, expected {want}")


# --- lawvere ---


def _sweep_op(lw, three_valued):
    labels = ("a", "b", "c")
    negmap = TRI_NEG if three_valued else BOOL_NEG

    def run(tr):
        out = []
        with tr.span("lawvere.sweep"):
            if three_valued:
                dom = lw.FinSet(labels[:2])
                for F in lw.all_curried_maps(dom, lw.TRI):
                    report = lw.three_valued_diagonal_analysis(F)
                    out.append((F.rows, report.diagonal.table, report.representations))
            else:
                neg = lw.bool_negation()
                for k in (1, 2, 3):
                    for F in lw.all_curried_maps(lw.FinSet(labels[:k]), lw.BOOL):
                        C = lw.cantor_diagonal(F, neg)
                        rep = lw.find_representation(F, C)
                        out.append((F.rows, C.table, () if rep is None else (rep,)))
        if tr.on:
            tr.count("lawvere.sweep.tables", len(out))
            tr.count("lawvere.sweep.represented", sum(1 for *_, reps in out if reps))
        return out

    def check(out):
        want_tables = 81 if three_valued else 530
        if len(out) != want_tables or len({rows for rows, *_ in out}) != want_tables:
            return f"swept {len(out)} tables, expected {want_tables} distinct"
        for rows, diag, reps in out:
            mine = refs.diagonal(rows, negmap)
            if list(diag) != mine:
                return f"diagonal of {rows} is {diag}, expected {mine}"
            idx = refs.representations(rows, mine)
            if not three_valued:
                idx = idx[:1]  # find_representation reports the first row only
            if list(reps) != [labels[i] for i in idx]:
                return f"representations of {rows}: {reps}, expected {idx}"
            if three_valued and any(rows[i][i] != "J" for i in idx):
                return "a represented three-valued diagonal is not J"
        return None

    return Op("sweep-three-valued" if three_valued else "sweep-two-valued", run, check)


def _cantor_op(lw, bits, n):
    rows = [row[:n] for row in bits[:n]]
    F = lw.CurriedMap(lw.FinSet(tuple(f"e{i}" for i in range(n))), lw.BOOL, rows)
    neg = lw.bool_negation()
    want = refs.diagonal(rows, BOOL_NEG)

    def run(tr):
        with tr.span("lawvere.cantor_diagonal", size=n):
            return lw.cantor_diagonal(F, neg)

    return Op("cantor_diagonal", run,
              lambda C: None if list(C.table) == want else "diagonal differs from the reference",
              size=n)


# --- fixpoint ---


def random_tree(rng, depth):
    """A term of exactly the given parenthesis depth, built iteratively."""
    node = ("a", rng.choice(ATOMS))
    for _ in range(depth):
        leaf = ("a", rng.choice(ATOMS))
        node = ("A", node, leaf) if rng.random() < 0.5 else ("A", leaf, node)
    return node


def _reduce_op(fp, rng, k):
    # one depth for every seed, so a step costs alike; spaced text, so c1 stays one atom
    f_tree = random_tree(rng, 2)
    F = fp.parse_term(refs.term_text(f_tree))

    def run(tr):
        r = fp.Rewriter()
        with tr.span("fixpoint.fixed_point"):
            t = fp.fixed_point(F, r)
        with tr.span("fixpoint.reduce", size=k):
            res = fp.reduce(t, r, k)
        if tr.on:
            tr.count("fixpoint.reduce.steps", res.steps_used)
            tr.count("fixpoint.reduce.requested", k)
        return t, res

    def check(out):
        t, res = out
        if res.steps_used != k or not res.exhausted:
            return f"used {res.steps_used} of {k} steps (exhausted={res.exhausted})"
        return refs.check_fixed_point_tower(res.term, f_tree, k, t.left.name, fp.Atom, fp.Apply)

    return Op("reduce", run, check, size=k)


def _parse_op(fp, rng, depth, defect=None):
    tree = random_tree(rng, depth)
    text = refs.term_text(tree)

    def run(tr):
        with tr.span("fixpoint.parse_term", size=depth):
            t = fp.parse_term(text)
        with tr.span("fixpoint.term_str", size=depth):
            s = str(t)
        return t, s

    def check(out):
        t, s = out
        if s != text:
            return "printed term differs from the parsed text"
        return refs.check_term(tree, t, fp.Atom, fp.Apply)

    return Op("parse-print", run, check, size=depth, defect=defect)


# --- reflexive ---


def _enumerate_op(rx, table, max_len):
    diagram = rx.build(table)
    want = refs.composite_count(table.rows, max_len)

    def run(tr):
        with tr.span("reflexive.enumerate_composites", size=max_len):
            words = rx.enumerate_composites(diagram, max_len)
        if tr.on:
            tr.count("reflexive.enumerate_composites.words_out", len(words))
        return words

    def check(words):
        if len(words) != want:
            return f"{len(words)} composites, adjacency count gives {want}"
        if any(not 1 <= len(w) <= max_len for w in words):
            return "a composite has the wrong length"
        return None

    return Op("enumerate", run, check, size=max_len)


def random_arc_table(rx, rng):
    names = "ABCDEFGH"[: rng.randint(4, 8)]
    return rx.ArcTable(tuple((a, rng.choice(names), rng.choice(names)) for a in names))


def random_max_len(rows, rng, cap=3000):
    """A word length for a random table, as long as possible under the word cap."""
    top = 1
    while top < 12 and refs.composite_count(rows, top + 1) <= cap:
        top += 1
    return rng.randint(max(1, top // 2), top)


# --- core word round trips ---


def short_word(rng, gens):
    """1-12 generators in runs of at most 3, which print and parse back today."""
    target = rng.randint(1, 12)
    names = []
    while len(names) < target:
        name = rng.choice([g for g in gens if not names or g != names[-1]])
        names += [name] * min(rng.randint(1, 3), target - len(names))
    return names


def _roundtrip_op(cat, names, defect=None):
    word = cat.word(list(names))
    want = refs.runs_of(names)

    def run(tr):
        with tr.span("core.word_str", size=len(names)):
            s = str(word)
        with tr.span("core.word", size=len(names)):
            back = cat.word(s)
        return s, back

    def check(out):
        s, back = out
        if refs.parse_word_text(s) != want:
            return f"{s!r} does not print {names}"
        return None if back == word else f"{s!r} parsed back to a different word"

    return Op("word-roundtrip", run, check, size=len(names), defect=defect)


def build(ctx, rng):
    rs = ctx.rs
    sm, lw, fp, rx, core = rs.smullyan, rs.lawvere, rs.fixpoint, rs.reflexive, rs.core
    tiny = ctx.tiny
    cats = {
        "next-simplest": core.BUILTIN_PAIRS["next-simplest"]().base,
        "russell": core.BUILTIN_PAIRS["russell"]().base,
        "smullyan": sm.smullyan_category(),
    }
    gens = {key: [g.name for g in cat.generators] for key, cat in cats.items()}
    ranges = {  # (tiny, full) size ranges
        "make_truthful": ((20, 60), (500, 8000)),
        "cantor_diagonal": ((4, 12), (50, 400)),
        "reduce": ((2, 8), (8, 512)),
        "parse-print": ((2, 12), (4, defects.TERM_SOUND_DEPTH)),
        "trefoil-link": ((2, 8), (4, 64)),
    }
    n_rounds = 1 if tiny else ROUNDS
    sizes = {kind: LogSizes(rng, *pair[0 if tiny else 1], MIX[kind], n_rounds)
             for kind, pair in ranges.items()}
    # Every universe is a prefix of one master (its strings talk about earlier
    # ones), and every Cantor table the top-left corner of one random table.
    master = universe(rng, ranges["make_truthful"][0 if tiny else 1][1])
    side = ranges["cantor_diagonal"][0 if tiny else 1][1]
    bits = [format(rng.getrandbits(side), f"0{side}b") for _ in range(side)]
    rounds = []
    for r in range(n_rounds):
        ops = []
        universes = [master[:n] for n in sizes["make_truthful"].ints(r)]
        ops += [_truthful_op(sm, u) for u in universes]
        model_strings = universes[0]
        model = sm.MachineModel(frozenset(model_strings))
        printable = set(model_strings)
        for _ in range(MIX["smullyan-string"]):
            ops.append(_classify_op(sm, machine_string(rng)))
            ops.append(_arrow_op(sm, machine_string(rng)))
            s = rng.choice(model_strings) if rng.random() < 0.5 else machine_string(rng)
            ops.append(_semantics_op(sm, s, model, printable))
        ops.append(_sweep_op(lw, three_valued=False))
        ops.append(_sweep_op(lw, three_valued=True))
        ops += [_cantor_op(lw, bits, n) for n in sizes["cantor_diagonal"].ints(r)]
        ops += [_reduce_op(fp, rng, k) for k in sizes["reduce"].ints(r)]
        ops += [_parse_op(fp, rng, d) for d in sizes["parse-print"].ints(r)]
        ops.append(_parse_op(fp, rng, rng.randint(*defects.STR_DEFECT_DEPTHS), "term-str-depth"))
        ops.append(_parse_op(fp, rng, rng.randint(*defects.PARSE_DEFECT_DEPTHS), "parse-depth"))
        for table, L in zip((rx.TREFOIL, rx.LINK), sizes["trefoil-link"].ints(r)):
            ops.append(_enumerate_op(rx, table, L))
        for _ in range(MIX["random-arcs"]):
            table = random_arc_table(rx, rng)
            ops.append(_enumerate_op(rx, table, random_max_len(table.rows, rng)))
        for _ in range(MIX["word-roundtrip"]):
            key = rng.choice(sorted(cats))
            ops.append(_roundtrip_op(cats[key], short_word(rng, gens[key])))
        for key, text in defects.ROUNDTRIP_WORDS:
            ops.append(_roundtrip_op(cats[key], list(text), defect="word-roundtrip"))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds
