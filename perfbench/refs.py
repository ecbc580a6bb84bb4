"""Reference results the benchmark checks refshift's outputs against.

Everything here is computed from first principles with plain lists,
strings and integers; nothing calls refshift.  Walks over terms are
iterative so the checkers never hit the interpreter's recursion limit.
A checker returns None when the output is right and a short reason
otherwise; the harness counts a reason as a failed operation.
"""

from __future__ import annotations

# --- words: run lists of generator names ---


def runs_of(names):
    """Maximal (name, count) runs of a name sequence."""
    out = []
    for name in names:
        if out and out[-1][0] == name:
            out[-1][1] += 1
        else:
            out.append([name, 1])
    return [tuple(r) for r in out]


def merge_runs(runs):
    out = []
    for name, count in runs:
        if count < 1:
            continue
        if out and out[-1][0] == name:
            out[-1][1] += count
        else:
            out.append([name, count])
    return [tuple(r) for r in out]


def parse_word_text(text):
    """Runs of a printed word: "1_O", "#^6", "F#^6", "v^5u^7" or "F #^6 g".

    Spaced text is one generator (optionally ^N) per token; unspaced text
    is one single-character generator per character, each optionally ^N.
    """
    text = text.strip()
    if text.startswith("1_"):
        return []
    runs = []
    if " " in text:
        for tok in text.split():
            name, sep, count = tok.partition("^")
            runs.append((name, int(count) if sep else 1))
        return merge_runs(runs)
    i = 0
    while i < len(text):
        name = text[i]
        i += 1
        count = 1
        if i < len(text) and text[i] == "^":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            count = int(text[i + 1 : j])
            i = j
        runs.append((name, count))
    return merge_runs(runs)


def check_word(word, expected_runs, what="word"):
    got = parse_word_text(str(word))
    if got != list(expected_runs):
        return f"{what}: got {_short(got)}, expected {_short(expected_runs)}"
    if len(word) != sum(c for _, c in expected_runs):
        return f"{what}: length {len(word)} disagrees with its runs"
    return None


def _short(runs, limit=6):
    runs = list(runs)
    return str(runs[:limit]) + ("..." if len(runs) > limit else "")


# --- shift closed forms ---


def simplest_arrow(k):
    """k-th shift of (1_O -> 1_O): #^k -> #^(k(k-1)/2)."""
    return [("#", k)], merge_runs([("#", k * (k - 1) // 2)])


def next_simplest_arrow(k):
    """k-th shift of (1_O -> F): #^k -> F#^(k(k-1)/2)."""
    return [("#", k)], merge_runs([("F", 1), ("#", k * (k - 1) // 2)])


def russell_arrow(k):
    """k-th shift of srt1's (#R -> ~#R): #^(k+1)R -> ~#R #R ##R ... #^k R."""
    dst = [("~", 1), ("#", 1), ("R", 1)]
    for j in range(1, k + 1):
        dst += [("#", j), ("R", 1)]
    return [("#", k + 1), ("R", 1)], merge_runs(dst)


def russell_lengths(k):
    return k + 2, 3 + k * (k + 1) // 2 + k


def shift_names(src, dst):
    """One plain shift on name lists: (a -> b) becomes (#a -> ba)."""
    return ["#"] + src, dst + src


def check_shift_sequence(seq, n, arrow_at, lengths_at, label="shift"):
    """Closed-form check of iterate_shift: every length, the final arrow in full."""
    if seq.stop_reason is not None or len(seq.arrows) != n:
        return f"stopped after {len(seq.arrows)} of {n} shifts ({seq.stop_reason})"
    if any(rule != label for rule in seq.rules):
        return f"unexpected rule labels {sorted(set(seq.rules))}"
    for k, arrow in enumerate(seq.arrows, 1):
        if (len(arrow.src), len(arrow.dst)) != lengths_at(k):
            return f"shift {k}: lengths {(len(arrow.src), len(arrow.dst))}, expected {lengths_at(k)}"
    src, dst = arrow_at(n)
    return check_word(seq.arrows[-1].src, src, "final src") or check_word(
        seq.arrows[-1].dst, dst, "final dst"
    )


def cancel_uv(names):
    """Normal form under u v => 1: a stack drops every u that meets a v."""
    stack = []
    for name in names:
        if name == "v" and stack and stack[-1] == "u":
            stack.pop()
        else:
            stack.append(name)
    return stack


# --- godel: digit strings and values mod a prime ---

PRIME = (1 << 61) - 1
_INV9 = pow(9, -1, PRIME)
ALPHABET = "()~Px|#"
CHAR_OF = {str(i + 1): ch for i, ch in enumerate(ALPHABET)}


def digit_runs(digits):
    return [(int(d), c) for d, c in runs_of(digits)]


def sharp_runs(runs, value):
    """Each 5 becomes value sixes; the digit image of substituting a numeral."""
    return merge_runs([(6, c * value) if d == 5 else (d, c) for d, c in runs])


def runs_text(runs):
    return "".join(str(d) * c for d, c in runs)


def mod_value(runs, p=PRIME):
    """The decimal value of a run list modulo p, without building the integer."""
    v = 0
    for d, c in runs:
        t = pow(10, c, p)
        v = (v * t + d * (t - 1) * _INV9) % p
    return v


def parse_wire(text):
    """Runs of "341 6x34152 2": digit groups and dxN tokens."""
    runs = []
    for tok in text.split():
        if "x" in tok:
            d, _, c = tok.partition("x")
            runs.append((int(d), int(c)))
        else:
            runs.extend((int(d), 1) for d in tok)
    return merge_runs(runs)


def parse_compact(text):
    """Runs of "~P(#|^341752)": symbols, each optionally ^N."""
    return parse_word_text(text)


def formula_text(code_digits):
    return "".join(CHAR_OF[d] for d in code_digits)


def check_digits(number, expected_text, what="number"):
    got = number.digits(cap=max(len(expected_text), 1))
    if got != expected_text:
        return f"{what}: {len(got)} digits differ from the {len(expected_text)}-digit reference"
    return None


# --- lawvere ---


def diagonal(rows, post):
    """x -> post(F(x)(x)) on plain lists; post is a dict."""
    return [post[row[i]] for i, row in enumerate(rows)]


def representations(rows, diag):
    return [i for i, row in enumerate(rows) if list(row) == diag]


# --- fixpoint terms: ("A", left, right) or ("a", name), built and walked iteratively ---


def term_text(tree):
    """Fully parenthesised text, "(F (g g))", without recursion."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node[0] == "a":
            out.append(node[1])
        else:
            stack.extend([")", node[2], " ", node[1]])
            out.append("(")
    return "".join(out)


def check_term(tree, term, atom_cls, apply_cls):
    """Iterative structural comparison of a refshift term with a reference tree."""
    stack = [(tree, term)]
    while stack:
        mine, theirs = stack.pop()
        if mine[0] == "a":
            if not isinstance(theirs, atom_cls) or theirs.name != mine[1]:
                return f"expected atom {mine[1]}, got {type(theirs).__name__}"
        else:
            if not isinstance(theirs, apply_cls):
                return f"expected an application, got {type(theirs).__name__}"
            stack.append((mine[1], theirs.left))
            stack.append((mine[2], theirs.right))
    return None


def check_fixed_point_tower(term, f_tree, k, g_name, atom_cls, apply_cls):
    """term must be F(F(...F(gg))) with k copies of F, walked down the spine."""
    node = term
    for i in range(k):
        if not isinstance(node, apply_cls):
            return f"level {i}: expected F applied, got {type(node).__name__}"
        bad = check_term(f_tree, node.left, atom_cls, apply_cls)
        if bad:
            return f"level {i}: {bad}"
        node = node.right
    return check_term(("A", ("a", g_name), ("a", g_name)), node, atom_cls, apply_cls)


# --- reflexive ---


def composite_count(rows, max_len):
    """Chainable words of length 1..max_len: sums of adjacency-matrix powers."""
    follows = {name: [other for other, _, cod in rows if cod == dom] for name, dom, _ in rows}
    # ends[name]: words of the current length whose last-applied generator is name
    ends = {name: 1 for name, _, _ in rows}
    total = len(rows)
    for _ in range(max_len - 1):
        nxt = {name: 0 for name, _, _ in rows}
        for name, count in ends.items():
            for other in follows[name]:
                nxt[other] += count
        ends = nxt
        total += sum(ends.values())
    return total


# --- smullyan ---


def classify(s):
    for kind in ("~P", "~R", "P", "R"):
        if s.startswith(kind):
            return kind, s[len(kind) :]
    return None


def assertion(s):
    """(subject, positive) of an interpretable string, or None."""
    c = classify(s)
    if c is None:
        return None
    kind, body = c
    return (body if kind.endswith("P") else body + body), not kind.startswith("~")


def truth(s, printable):
    a = assertion(s)
    if a is None:
        return None
    subject, positive = a
    return (subject in printable) == positive


def truthful_core(strings):
    """Drop printed falsehoods until none is left."""
    printable = set(strings)
    while True:
        bad = {s for s in printable if truth(s, printable) is False}
        if not bad:
            return printable
        printable -= bad
