"""cli-cold: `python -m refshift` as a subprocess, one child alive at a time.

Why: users pay interpreter start and import on every call, so work moved
into module import shows here even when the in-process workloads improve.
Every round runs every subcommand once on small seeded inputs, in --json or
text form, plus three error cases that must exit 1 with a JSON error
envelope and one call that hits a known defect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

import refs
import spans
from ops import Op

NAME = "cli-cold"
ROUNDS = 2
TRACE_ROUNDS = 1
PROBES = 7  # interpreter and import probes in a traced run; the median is reported
CHILD_TIMEOUT_S = 60


def word_arg(name, count):
    return "1_O" if count == 0 else f"{name}^{count}"


def parse_arrow_text(text):
    src, _, dst = text.partition(" -> ")
    return refs.parse_word_text(src), refs.parse_word_text(dst)


def check_arrows(texts, expected):
    """texts: printed arrows; expected: (src names, dst names) pairs."""
    if len(texts) != len(expected):
        return f"{len(texts)} arrows, expected {len(expected)}"
    for i, (text, (src, dst)) in enumerate(zip(texts, expected), 1):
        if parse_arrow_text(text) != (refs.runs_of(src), refs.runs_of(dst)):
            return f"arrow {i}: {text[:80]!r} differs from the reference"
    return None


def shift_chain(src, dst, n):
    out = []
    for _ in range(n):
        src, dst = refs.shift_names(src, dst)
        out.append((src, dst))
    return out


class Command:
    """argv plus the reference checks of its JSON result and of its text lines."""

    def __init__(self, kind, argv, on_json, on_text, want_rc=0, error_code=None, defect=None):
        self.kind, self.argv = kind, argv
        self.on_json, self.on_text = on_json, on_text
        self.want_rc, self.error_code = want_rc, error_code
        self.defect = defect

    def check(self, out):
        rc, stdout = out
        if rc != self.want_rc:
            return f"exit {rc}, expected {self.want_rc}: {stdout[-200:]!r}"
        if "--json" not in self.argv:
            return self.on_text(stdout.splitlines())
        envelope = json.loads(stdout)
        if self.error_code:
            ok = envelope.get("status") == "error" and envelope["result"].get("code") == self.error_code
            return None if ok else f"expected a {self.error_code} error envelope, got {stdout[:200]!r}"
        if envelope.get("status") != "ok":
            return f"status {envelope.get('status')!r}"
        return self.on_json(envelope["result"])


def equal(got, want, what):
    return None if got == want else f"{what}: got {str(got)[:120]}, expected {str(want)[:120]}"


def _model(rng):
    return sorted({"".join(rng.choice("~PR[]") for _ in range(rng.randint(1, 6)))
                   for _ in range(rng.randint(3, 12))} | {rng.choice(["~R~R", "P~R~R", "RR"])})


def _term(rng, depth, leaf):
    node = ("a", leaf)
    for _ in range(depth):
        atom = ("a", rng.choice(("F", "G", "h")))
        node = ("A", atom, node) if rng.random() < 0.5 else ("A", node, atom)
    return node


def commands(rng, files):
    """One round: every subcommand once, three error cases, one known defect."""
    cmds = []
    js = lambda: ["--json"] if rng.random() < 0.5 else []  # noqa: E731

    a, b = rng.randint(1, 6), rng.randint(0, 6)
    want = [(["#"] * (a + 1), ["#"] * (a + b))]
    cmds.append(Command("shift", ["shift", "--base", "simplest",
                                  f"{word_arg('#', a)} -> {word_arg('#', b)}"] + js(),
                        lambda r, w=want: check_arrows([f"{r['src']} -> {r['dst']}"], w)
                        or equal(r["rule"], "shift", "rule"),
                        lambda lines, w=want: check_arrows(lines, w)))

    k = rng.randint(1, 3)
    src, dst = ["F"] * k, ["F", "#"]
    steps = [(src, dst), refs.shift_names(src, dst)]

    def srt1_text(lines, steps=steps):
        texts = [line.split("] ", 1)[1] for line in lines]
        return check_arrows(texts, steps) or equal([l.split("]")[0] for l in lines],
                                                   ["1. [axiom", "2. [shift"], "rules")
    cmds.append(Command("srt1", ["srt1", "--base", "next-simplest", f"F^{k} -> F#"] + js(),
                        lambda r, steps=steps: check_arrows([r["final"]], steps[1:])
                        or equal([s["rule"] for s in r["steps"]], ["axiom", "shift"], "rules"),
                        srt1_text))

    for base, arrow_args, start in (("simplest", [], ([], [])),
                                    ("next-simplest", ["--arrow", "1_O -> F"], ([], ["F"]))):
        n = rng.randint(2, 8)
        want = shift_chain(*start, n)
        cmds.append(Command(f"iterate-{base}", ["iterate", "--base", base, *arrow_args, "--n", str(n)]
                            + js(),
                            lambda r, w=want: check_arrows(r["arrows"], w)
                            or equal(r["stop_reason"], None, "stop_reason"),
                            lambda lines, w=want: check_arrows(lines, w)))

    model_path, model = files["model"]
    printable = set(model)
    for action in ("classify", "arrow", "semantics"):
        s = rng.choice(model) if rng.random() < 0.5 else rng.choice(["~R~R", "P[]", "R~P", "[P", "~PR"])
        c = refs.classify(s)
        argv = ["smullyan", action, s] + (["--model", model_path] if action == "semantics" else [])
        if action == "classify":
            want_json = {"string": s, "interpretable": c is not None,
                         "kind": c[0] if c else None, "body": c[1] if c else None}
            want_line = f"{s}: {c[0]} with remainder {c[1]!r}" if c else f"{s}: not interpretable"
            on_json = lambda r, w=want_json: equal(r, w, "classification")  # noqa: E731
            on_text = lambda lines, w=want_line: equal(lines, [w], "classification")  # noqa: E731
        elif action == "arrow":
            a_ = refs.assertion(s)
            want = None if a_ is None else [(list(s), list(("P" if a_[1] else "~P") + "[" + a_[0] + "]"))]

            def on_json(r, w=want):
                return equal(r["arrow"], None, "arrow") if w is None else check_arrows([r["arrow"]], w)

            def on_text(lines, w=want):
                if w is None:
                    return equal(lines, ["no arrow (not interpretable)"], "arrow")
                return check_arrows(lines, w)
        else:
            v = refs.truth(s, printable)
            on_json = lambda r, v=v, s=s: equal(r, {"string": s, "value": v}, "semantics")  # noqa: E731
            text = {True: "true", False: "false", None: "no-meaning"}[v]
            on_text = lambda lines, t=text: equal(lines, [t], "semantics")  # noqa: E731
        cmds.append(Command(f"smullyan-{action}", argv + js(), on_json, on_text))

    def report_text(lines):
        ok = len(lines) == 4 and all(l.startswith(f"{i}. ") for i, l in enumerate(lines, 1))
        return None if ok and "~R~R" in lines[-1] else f"report lines {lines}"
    cmds.append(Command("smullyan-report", ["smullyan", "report"] + js(),
                        lambda r: None if len(r["steps"]) == 4 and "~R~R" in r["final_claim"]
                        else "report steps", report_text))

    bad = sorted(s for s in model if refs.truth(s, printable) is False)
    cmds.append(Command("violations", ["violations", "--model", model_path] + js(),
                        lambda r, w=bad: equal((r["violations"], r["truthful"]), (w, not w), "violations"),
                        lambda lines, w=bad: equal(lines, w or ["no violations: the model is truthful"],
                                                   "violations")))

    code = "".join(rng.choice("1234567") for _ in range(rng.randint(3, 6)))
    runs = refs.digit_runs(code)
    cmds.append(Command("godel-encode", ["godel-encode", refs.formula_text(code)] + js(),
                        lambda r, w=runs: equal(refs.parse_wire(r["number"]), w, "code"),
                        lambda lines, w=runs: equal([refs.parse_wire(l) for l in lines], [w], "code")))

    five = code[: rng.randint(0, 2)] + "5" + code[: rng.randint(0, 2)]
    sharp = refs.sharp_runs(refs.digit_runs(five), int(five))
    wire = " ".join(f"{d}x{c}" if c > 1 else str(d) for d, c in sharp)
    chars = [(refs.CHAR_OF[str(d)], c) for d, c in sharp]
    cmds.append(Command("godel-decode", ["godel-decode", *wire.split()] + js(),
                        lambda r, w=chars: equal(refs.parse_compact(r["formula"]), w, "formula"),
                        lambda lines, w=chars: equal([refs.parse_compact(l) for l in lines], [w],
                                                     "formula")))
    cmds.append(Command("godel-sharp", ["godel-sharp", five] + js(),
                        lambda r, w=sharp: equal(refs.parse_wire(r["number"]), w, "sharp"),
                        lambda lines, w=sharp: equal([refs.parse_wire(l) for l in lines], [w], "sharp")))
    right = "".join(rng.choice("1234567") for _ in range(rng.randint(1, 3)))
    composed = refs.sharp_runs(refs.digit_runs(five), int(right))
    cmds.append(Command("godel-compose", ["godel-compose", five, right] + js(),
                        lambda r, w=composed: equal(refs.parse_wire(r["number"]), w, "composition"),
                        lambda lines, w=composed: equal([refs.parse_wire(l) for l in lines], [w],
                                                        "composition")))

    refuter = refs.sharp_runs(refs.digit_runs("341752"), 341752)
    refuter_chars = [(refs.CHAR_OF[str(d)], c) for d, c in refuter]

    def refuter_text(lines):
        if len(lines) != 3 or not lines[0].startswith("number:") or not lines[1].startswith("formula:"):
            return f"self-refuter lines {lines}"
        return equal((refs.parse_wire(lines[0].split(":", 1)[1]),
                      refs.parse_compact(lines[1].split(":", 1)[1].strip())),
                     (refuter, refuter_chars), "self-refuter")
    cmds.append(Command("self-refuter", ["self-refuter"] + js(),
                        lambda r: equal((refs.parse_wire(r["number"]), refs.parse_compact(r["formula"]),
                                         r["digit_length"], r["verified"]),
                                        (refuter, refuter_chars, 341757, True), "self-refuter"),
                        refuter_text))

    table_path, labels, rows = files["bool-table"]
    alpha = rng.choice(["negation", "identity"])
    diag = refs.diagonal(rows, {"0": "1", "1": "0"} if alpha == "negation" else {"0": "0", "1": "1"})
    reps = refs.representations(rows, diag)
    rep = labels[reps[0]] if reps else None
    fixed = {"value": rows[reps[0]][reps[0]], "witness": rep} if reps else None
    second = (f"represented by {rep}; alpha fixes {fixed['value']}" if fixed
              else "diagonal not represented: no surjection onto the map set")
    cmds.append(Command("lawvere", ["lawvere", "--table", table_path, "--alpha", alpha] + js(),
                        lambda r, w={"diagonal": diag, "representation": rep, "fixed_point": fixed,
                                     "not_surjective": fixed is None}: equal(r, w, "lawvere"),
                        lambda lines, w=[f"diagonal: {' '.join(diag)}", second]: equal(lines, w, "lawvere")))

    tri_path, tri_labels, tri_rows = files["tri-table"]
    tdiag = refs.diagonal(tri_rows, {"0": "1", "1": "0", "J": "J"})
    treps = [tri_labels[i] for i in refs.representations(tri_rows, tdiag)]
    tsecond = ("represented by " + ", ".join(treps) + "; diagonal value J at each" if treps
               else "no representation for this table")
    cmds.append(Command("threeval", ["threeval", "--table", tri_path] + js(),
                        lambda r, w={"diagonal": tdiag, "representations": treps,
                                     "witnessed": bool(treps)}: equal(r, w, "threeval"),
                        lambda lines, w=[f"diagonal: {' '.join(tdiag)}", tsecond]: equal(lines, w, "threeval")))

    body = refs.term_text(_term(rng, rng.randint(1, 3), "x"))
    cmds.append(Command("lambda-define", ["lambda", "define", f"f x = {body}"] + js(),
                        lambda r, w={"name": "f", "var": "x", "body": body}: equal(r, w, "definition"),
                        lambda lines, w=[f"f x = {body}"]: equal(lines, w, "definition")))

    steps_n = rng.randint(1, 4)
    F = rng.choice(["F", "G"])

    def tower(g, j, F=F):
        return f"({F} " * j + f"({g} {g})" + ")" * j

    def fix_lines(head, stages, steps_n=steps_n, F=F):
        g, _, rest = head.partition(" x = ")
        return equal((rest, stages), (f"({F} (x x))", [tower(g, j) for j in range(steps_n + 1)]),
                     "fixpoint")
    cmds.append(Command("lambda-fixpoint", ["lambda", "fixpoint", F, "--steps", str(steps_n)] + js(),
                        lambda r: fix_lines(f"{r['definition']['name']} x = {r['definition']['body']}",
                                            r["stages"]),
                        lambda lines: fix_lines(lines[0], lines[1:]) if lines else "no output"))

    depth, s_ = rng.randint(1, 4), rng.randint(1, 5)
    used = min(depth, s_)
    term = "(d " * depth + "a" + ")" * depth
    reduced = "(F " * used + "(d " * (depth - used) + "a" + ")" * depth
    cmds.append(Command("lambda-reduce", ["lambda", "reduce", term, "--define", "d x = (F x)",
                                          "--steps", str(s_)] + js(),
                        lambda r, w={"term": reduced, "steps_used": used, "exhausted": s_ < depth}:
                        equal(r, w, "reduction"),
                        lambda lines, w=[reduced]: equal(lines, w, "reduction")))

    builtin = rng.choice(["trefoil", "link"])
    table_rows = {"trefoil": (("A", "C", "B"), ("B", "A", "C"), ("C", "B", "A")),
                  "link": (("A", "B", "B"), ("B", "A", "A"))}[builtin]
    gens = [{"name": n, "dom": d, "cod": c} for n, d, c in table_rows]
    cmds.append(Command("reflexive-build", ["reflexive", "build", "--builtin", builtin] + js(),
                        lambda r, w={"objects": sorted(n for n, _, _ in table_rows), "generators": gens,
                                     "reflexive": True}: equal(r, w, "build"),
                        lambda lines, w=[f"{n}: {d} -> {c}" for n, d, c in table_rows]
                        + ["reflexive: True"]: equal(lines, w, "build")))
    arcs_path, arc_rows = files["arcs"]
    cmds.append(Command("reflexive-check", ["reflexive", "check", "--table", arcs_path] + js(),
                        lambda r: equal(r, {"reflexive": True}, "check"),
                        lambda lines: equal(lines, ["reflexive: True"], "check")))
    max_len = rng.randint(1, 4)
    count = refs.composite_count(arc_rows, max_len)
    cmds.append(Command("reflexive-enumerate", ["reflexive", "enumerate", "--table", arcs_path,
                                                "--max-len", str(max_len)] + js(),
                        lambda r, w=count: equal((r["count"], len(r["words"])), (w, w), "composites"),
                        lambda lines, w=count: equal(len(lines), w, "composites")))

    bad_text = rng.choice(["AB", "Q", "x=1", "P(y)"])
    cmds.append(Command("error-symbol", ["godel-encode", bad_text, "--json"], None, None,
                        want_rc=1, error_code="invalid-symbol"))
    cmds.append(Command("error-generator", ["shift", "--base", "simplest",
                                            rng.choice(["F -> #", "# -> G", "R -> 1_O"]), "--json"],
                        None, None, want_rc=1, error_code="invalid-definition"))
    cmds.append(Command("error-srt1", ["srt1", "--base", "next-simplest",
                                       rng.choice(["F -> F", "# -> F", "F -> #F"]), "--json"],
                        None, None, want_rc=1, error_code="not-srt1-shape"))

    n = rng.randint(1, 4)
    want = shift_chain(["F"] + ["#"] * 8, ["F"], n)
    cmds.append(Command("iterate-rle", ["iterate", "--base", "next-simplest", "--arrow", "F#^8 -> F",
                                        "--n", str(n)] + js(),
                        lambda r, w=want: check_arrows(r["arrows"], w),
                        lambda lines, w=want: check_arrows(lines, w), defect="cli-iterate-rle"))
    return cmds


def write_files(rng, out_dir, tag):
    """Model, table and arc files that one round's commands read."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    model = _model(rng)
    path = out_dir / f"model-{tag}.txt"
    path.write_text("\n".join(model) + "\n", encoding="utf-8")
    files["model"] = (str(path), model)
    for key, z, n in (("bool-table", "01", rng.randint(2, 4)), ("tri-table", "01J", rng.randint(2, 3))):
        labels = [f"e{i}" for i in range(n)]
        rows = [[rng.choice(z) for _ in range(n)] for _ in range(n)]
        if key == "tri-table" and rng.random() < 0.5:  # sometimes representable: row 0 = diagonal
            rows[0][0] = "J"
            rows[0] = refs.diagonal(rows, {"0": "1", "1": "0", "J": "J"})
        path = out_dir / f"{key}-{tag}.json"
        path.write_text(json.dumps({"elements": labels, "z_elements": list(z), "rows": rows}),
                        encoding="utf-8")
        files[key] = (str(path), labels, rows)
    names = "ABCDEF"[: rng.randint(4, 6)]
    arc_rows = tuple((a, rng.choice(names), rng.choice(names)) for a in names)
    path = out_dir / f"arcs-{tag}.txt"
    path.write_text("".join(f"{a}: {d} -> {c}\n" for a, d, c in arc_rows), encoding="utf-8")
    files["arcs"] = (str(path), arc_rows)
    return files


def child_env(ctx):
    return dict(os.environ, PYTHONPATH=str(ctx.src), PYTHONDONTWRITEBYTECODE="1")


def _subprocess_op(ctx, cmd):
    argv = [sys.executable, "-m", "refshift", *cmd.argv]
    env = child_env(ctx)

    def run(tr):
        with tr.span("cli.subprocess"):
            p = subprocess.run(argv, cwd=ctx.root, env=env, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        return p.returncode, p.stdout

    op = Op(cmd.kind, run, cmd.check, defect=cmd.defect)
    op.cmd = cmd  # the traced run replays it in-process
    return op


def _inprocess_op(ctx, cmd):
    cli = ctx.rs.cli

    def run(tr):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            with tr.span("cli.run"):
                rc = cli.run(list(cmd.argv))
        return rc, buf.getvalue()

    return Op(cmd.kind, run, cmd.check, defect=cmd.defect)


def build(ctx, rng):
    rounds = []
    for r in range(1 if ctx.tiny else ROUNDS):
        files = write_files(rng, ctx.out / "cli", f"r{r}")
        ops = [_subprocess_op(ctx, c) for c in commands(rng, files)]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def _median_ms(ctx, argv):
    env = child_env(ctx)
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ctx.root, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def trace_extra(ctx, rounds, closed_loop):
    """Interpreter and import floors, and cli.run in-process over the same argv lists."""
    interp = _median_ms(ctx, [sys.executable, "-c", "pass"])
    imported = _median_ms(ctx, [sys.executable, "-c", "import refshift.cli"])
    inproc = [[_inprocess_op(ctx, op.cmd) for op in rnd] for rnd in rounds]
    tr = spans.Tracer()
    tally = closed_loop(inproc, tr, n_rounds=len(inproc))
    busy = tr.busy()
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.run.busy_s": busy["cli.run"][1] if "cli.run" in busy else 0.0,
        "tally": tally,
    }
