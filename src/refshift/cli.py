"""Command-line front door: text by default, JSON envelopes with --json.

Every subcommand is one row of ``COMMANDS``: its engine module, help, argument
specs and a handler that takes the engine and the parsed arguments and returns
``(result dict, text lines[, derivation])``; a row takes --trace only if it
returns a derivation.  Each row has a parser of its own, under its group's
for a grouped row, that takes that row's arguments after the command and
no other.  Only ``run`` imports an engine, the row's, when it
dispatches that row, so a command loads no other engine.

Exit codes: 0 on success, 1 on a domain error or an unreadable file, 2 on a
usage error. Each failure has a machine code (a ``DomainError`` code, ``io``
or ``usage``); with --json every outcome is one envelope.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import DomainError, InvalidDefinition, InvalidSymbol

if TYPE_CHECKING:
    from . import core, fixpoint, godel, lawvere, reflexive, smullyan


class UsageError(DomainError):
    """A command line argparse rejects; ``usage`` is argparse's own report of it."""

    code = "usage"

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    """The text of a model, table, arc or pair file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidDefinition(f"{path} is not UTF-8 text: {exc}") from exc


def _pair(core, args) -> core.CategoricalPair:
    if args.base and args.category:
        args.usage_error("argument --category: not allowed with argument --base")
    name = args.base or "simplest"
    pair = core.load_pair_text(_read(args.category)) if args.category else core.BUILTIN_PAIRS[name]()
    base = pair.base
    if args.fuel is not None:
        base = core.Category(base.objects, base.generators, base.rules, args.fuel)
    return core.CategoricalPair(base, pair.arrows, pair.is_lambda_pair or args.lambda_pair)


def _load_model(smullyan, path) -> smullyan.MachineModel:
    strings = [s for s in _read(path).split("\n") if s]
    for s in strings:
        foreign = smullyan.FOREIGN.search(s)
        if foreign:
            raise InvalidSymbol(f"model string {s!r} uses {foreign.group()!r}, outside {smullyan.ALPHABET}")
    return smullyan.MachineModel(frozenset(strings))


def _load_table(lawvere, path) -> lawvere.CurriedMap:
    try:
        data = json.loads(_read(path))
        dom, cod, rows = data["elements"], data["z_elements"], data["rows"]
        # a string would otherwise read as the list of its characters
        if not (all(type(v) is list for v in (dom, cod, rows)) and all(type(row) is list for row in rows)):
            raise InvalidDefinition("table elements, z_elements, rows and each row must be JSON lists")
        if not all(type(v) is str for v in itertools.chain(dom, cod, *rows)):
            raise InvalidDefinition("table elements, z_elements and row values must be strings")
        return lawvere.CurriedMap(lawvere.FinSet(dom), lawvere.FinSet(cod), rows)
    except json.JSONDecodeError as exc:
        raise InvalidDefinition(f"table file is not JSON: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise InvalidDefinition("table file needs elements, z_elements, rows") from exc


def _parse_alpha(lawvere, spec: str, z: lawvere.FinSet) -> lawvere.FinMap:
    if spec == "identity":
        return lawvere.identity_map(z)
    if spec == "negation":
        if z == lawvere.BOOL:
            return lawvere.bool_negation()
        if z == lawvere.TRI:
            return lawvere.tri_negation()
        raise InvalidDefinition("named negation exists only for {0,1} and {0,1,J}")
    mapping = {}
    for part in spec.split(","):
        src, _, dst = part.partition(":")
        if not dst:
            raise InvalidDefinition(f"bad alpha entry {part!r}; expected src:dst")
        src = src.strip()
        if src in mapping:
            raise InvalidDefinition(f"alpha maps {src} more than once")
        mapping[src] = dst.strip()
    return lawvere.FinMap.from_dict(z, z, mapping)


def _parse_definition(fixpoint, spec: str) -> tuple[str, str, fixpoint.Term]:
    head, _, body = spec.partition("=")
    if not body:
        raise InvalidDefinition(f"definition {spec!r} needs the form 'name var = body'")
    parts = head.split()
    if len(parts) != 2:
        raise InvalidDefinition(f"definition head {head.strip()!r} needs exactly 'name var'")
    name, var = parts
    return name, var, fixpoint.parse_term(body.strip(), var=var)


def _rewriter(fixpoint, args) -> fixpoint.Rewriter:
    rewriter = fixpoint.Rewriter(fuel=args.fuel)
    for spec in args.define or []:
        rewriter.define(*_parse_definition(fixpoint, spec))
    return rewriter


def _diagram(reflexive, args) -> reflexive.DiagramCategory:
    if args.builtin and args.table:
        args.usage_error("argument --table: not allowed with argument --builtin")
    if args.builtin:
        table = reflexive.BUILTIN_TABLES[args.builtin]
    elif args.table:
        table = reflexive.parse_arc_table(_read(args.table))
    else:
        raise InvalidDefinition("reflexive needs --builtin or --table")
    return reflexive.build(table)


def _wire(godel, *tokens: str) -> godel.GodelNumber:
    return godel.GodelNumber.from_wire(" ".join(tokens))


def _count(n: int):
    """A count for an envelope: the int below the interpreter's int/str digit limit,
    which json.dumps cannot print past, and its decimal text from there on."""
    from .runs import count_text  # loaded already by godel, the only engine with counts
    try:
        str(n)
    except ValueError:
        return count_text(n)
    return n


def _number(number: godel.GodelNumber, materialize: bool = False):
    result = {"number": number.wire(), "digit_length": _count(number.digit_length)}
    if materialize:
        result["digits"] = number.digits()
    return result, [result["digits"] if materialize else result["number"]]


def _at_least(args, name: str, low: int):
    """Refuse an integer option below low as a usage error, worded as argparse words one."""
    if getattr(args, name) < low:
        args.usage_error(f"argument --{name}: must be at least {low}, got {getattr(args, name)}")


def _shift(core, args):
    pair = _pair(core, args)
    arrow = core.parse_arrow(pair, args.arrow)
    shifted, rule = core.shift_step(pair, arrow)
    trace = core.shift_derivation(arrow, shifted, rule)
    result = {"arrow": str(shifted), "src": str(shifted.src), "dst": str(shifted.dst), "rule": rule}
    return result, [str(shifted)], trace


def _srt1(core, args):
    pair = _pair(core, args)
    derivation = core.srt1(pair, core.parse_arrow(pair, args.arrow))
    steps = derivation.to_json()["steps"]
    lines = [f"{i}. [{s['rule']}] {s['src_word']} -> {s['dst_word']}" for i, s in enumerate(steps, 1)]
    return {"final": str(derivation.final), "steps": steps}, lines, derivation


def _iterate(core, args):
    _at_least(args, "n", 1)
    pair = _pair(core, args)
    if args.arrow:
        arrow = core.parse_arrow(pair, args.arrow)
    elif len(pair.base.objects) == 1:
        ident = pair.base.identity(*pair.base.objects)
        arrow = core.RefArrow(ident, ident)
    else:
        raise InvalidDefinition("--arrow is required unless the base has exactly one object")
    seq = core.iterate_shift(pair, arrow, args.n)
    arrows = [str(a) for a in seq.arrows]
    stop = [f"stopped early: {seq.stop_reason}"] if seq.stop_reason else []
    trace = None
    if args.trace:  # one step per shifted arrow, so built only when asked for
        trace = core.Derivation([core.DerivationStep("axiom", arrow),
                                 *map(core.DerivationStep, seq.rules, seq.arrows)])
    result = {"arrows": arrows, "rules": list(seq.rules), "stop_reason": seq.stop_reason}
    return result, arrows + stop, trace


def _report(smullyan, args):
    derivation = smullyan.goedel_miniature_report()
    notes = [s.note for s in derivation.steps]
    lines = [f"{i}. {note}" for i, note in enumerate(notes, 1)]
    return {"steps": notes, "final_claim": notes[-1]}, lines, derivation


def _classify(smullyan, args):
    s, c = args.string, smullyan.classify(args.string)
    result = {"string": s, "interpretable": c is not None, "kind": c and c.kind, "body": c and c.body}
    return result, [f"{s}: {c.kind} with remainder {c.body!r}" if c else f"{s}: not interpretable"]


def _arrow(smullyan, args):
    arrow = smullyan.reference_arrow(args.string)
    text = str(arrow) if arrow else None
    return {"arrow": text}, [text or "no arrow (not interpretable)"]


def _semantics(smullyan, args):
    value = smullyan.semantics(args.string, _load_model(smullyan, args.model))
    text = {True: "true", False: "false", None: "no-meaning"}[value]
    return {"string": args.string, "value": value}, [text]


def _violations(smullyan, args):
    bad = sorted(smullyan.truthfulness_violations(_load_model(smullyan, args.model)))
    return {"violations": bad, "truthful": not bad}, bad or ["no violations: the model is truthful"]


def _godel_decode(godel, args):
    formula = godel.decode(_wire(godel, *args.number))
    result = {"formula": str(formula), "length": _count(formula.length)}
    if args.materialize:
        result["text"] = formula.text()
    return result, [result["text"] if args.materialize else result["formula"]]


def _self_refuter(godel, args):
    derivation = godel.self_refuter_derivation()
    result, _ = _number(derivation.final.src.number)
    result.update(formula=str(derivation.final.dst), verified=True)
    lines = [f"number:  {result['number']}", f"formula: {result['formula']}",
             "verified: the formula's code is the number it talks about"]
    return result, lines, derivation


def _lawvere(lawvere, args):
    F = _load_table(lawvere, args.table)
    report = lawvere.diagonal_report(F, _parse_alpha(lawvere, args.alpha, F.cod_base))
    diagonal = list(report.diagonal.table)
    result = {"diagonal": diagonal, "representation": None, "fixed_point": None,
              "not_surjective": not report.witnessed}
    if report.witnessed:
        value, witness = report.fixed_point
        result.update(representation=witness, fixed_point={"value": value, "witness": witness})
        line = f"represented by {witness}; alpha fixes {value}"
    else:
        line = "diagonal not represented: no surjection onto the map set"
    return result, [f"diagonal: {' '.join(diagonal)}", line]


def _threeval(lawvere, args):
    report = lawvere.three_valued_diagonal_analysis(_load_table(lawvere, args.table))
    reps = list(report.representations)
    result = {"diagonal": list(report.diagonal.table), "representations": reps,
              "witnessed": report.witnessed}
    line = ("represented by " + ", ".join(reps) + "; diagonal value J at each" if report.witnessed
            else "no representation for this table")
    return result, [f"diagonal: {' '.join(report.diagonal.table)}", line]


def _define(fixpoint, args):
    rewriter = _rewriter(fixpoint, args)
    name, var, body = _parse_definition(fixpoint, args.term)
    rewriter.define(name, var, body)
    return {"name": name, "var": var, "body": str(body)}, [f"{name} {var} = {body}"]


def _fixpoint(fixpoint, args):
    _at_least(args, "steps", 0)
    rewriter = _rewriter(fixpoint, args)
    rewriter.check_steps(args.steps)  # each stage below is one step of the same budget
    current = fixpoint.fixed_point(fixpoint.parse_term(args.term), rewriter)
    d = rewriter.defs[current.left.name]
    definition = {"name": current.left.name, "var": d.var, "body": str(d.body)}
    stages = [str(current)]
    for _ in range(args.steps):
        current = fixpoint.reduce(current, rewriter, 1).term
        stages.append(str(current))
    lines = ["{name} {var} = {body}".format(**definition)] + stages
    return {"definition": definition, "fixpoint": stages[0], "stages": stages}, lines


def _reduce(fixpoint, args):
    _at_least(args, "steps", 0)
    outcome = fixpoint.reduce(fixpoint.parse_term(args.term), _rewriter(fixpoint, args), args.steps)
    term = str(outcome.term)
    return {"term": term, "steps_used": outcome.steps_used, "exhausted": outcome.exhausted}, [term]


def _build(reflexive, args):
    diagram = _diagram(reflexive, args)
    gens = [{"name": g.name, "dom": g.dom, "cod": g.cod} for g in diagram.category.generators]
    ok = reflexive.is_reflexive(diagram)
    lines = [f"{g['name']}: {g['dom']} -> {g['cod']}" for g in gens] + [f"reflexive: {ok}"]
    return {"objects": sorted(diagram.category.objects), "generators": gens, "reflexive": ok}, lines


def _check(reflexive, args):
    ok = reflexive.is_reflexive(_diagram(reflexive, args))
    return {"reflexive": ok}, [f"reflexive: {ok}"]


def _enumerate(reflexive, args):
    words = reflexive.enumerate_composites(_diagram(reflexive, args), args.max_len)
    shown = [str(w) for w in sorted(words, key=lambda w: (len(w), str(w)))]
    return {"count": len(shown), "words": shown}, shown


def arg(name: str, **kwargs):
    """One argument spec: a positional's name or an option's flag, and add_argument's keywords."""
    return name, kwargs


class Command(NamedTuple):
    engine: str  # the module under refshift that run() imports and passes to the handler
    help: str
    args: tuple
    run: Callable


BASES = ("next-simplest", "russell", "simplest")  # sorted(core.BUILTIN_PAIRS)
DIAGRAMS = ("trefoil", "link")  # reflexive.BUILTIN_TABLES
OUTPUT = (arg("--json", action="store_true", help="emit a JSON envelope"),)
TRACE = arg("--trace", action="store_true", help="include the derivation trace")
PAIR = (
    arg("--base", choices=BASES, help="built-in base pair; simplest when no --category is given"),
    arg("--category", metavar="FILE", help="load the base pair from a file"),
    arg("--lambda-pair", action="store_true", help="treat self-morphisms a with #a = aa"),
    arg("--fuel", type=int, help="rewrite step budget"),
)
MODEL = arg("--model", metavar="FILE", required=True, help="printable set, one string per line")
STRING = (arg("string"),)
NUMBER = (
    arg("number", nargs="+", help="run-length tokens, e.g. 341 6x34152 2"),
    arg("--materialize", action="store_true", help="print the full digit or symbol string"),
)
TABLE = (arg("--table", metavar="FILE", required=True, help='JSON {"elements", "z_elements", "rows"}'),)
LAMBDA = (
    arg("term"),
    arg("--define", action="append", metavar="'name var = body'"),
    arg("--fuel", type=int, default=10_000),
)
STEPS = arg("--steps", type=int, default=1)
DIAGRAM = (
    arg("--table", metavar="FILE", help="lines 'name: dom -> cod'"),
    arg("--builtin", choices=DIAGRAMS),
)
GROUPS = {"smullyan": "printing-machine analysis", "lambda": "named maps and fixed points",
          "reflexive": "categories from arc tables"}

COMMANDS = {
    "shift": Command("core", "apply the shift to one arrow",
                     (TRACE, *PAIR, arg("arrow", help="reference arrow, e.g. 'g -> F'")), _shift),
    "srt1": Command("core", "derive (#g -> F#g) from (g -> F#)", (TRACE, *PAIR, arg("arrow")), _srt1),
    "iterate": Command("core", "iterate the shift", (
        TRACE, *PAIR,
        arg("--arrow", help="starting arrow; defaults to 1 -> 1"),
        arg("--n", type=int, required=True, help="number of shifts"),
    ), _iterate),
    "smullyan classify": Command("smullyan", "classify a machine string", STRING, _classify),
    "smullyan arrow": Command("smullyan", "its reference arrow", STRING, _arrow),
    "smullyan semantics": Command("smullyan", "its truth value in --model", STRING + (MODEL,), _semantics),
    "smullyan report": Command("smullyan", "the proof that ~R~R is true but unprintable", (TRACE,),
                               _report),
    "violations": Command("smullyan", "printed falsehoods of a model", (MODEL,), _violations),
    "godel-encode": Command("godel", "formula text to code number", (arg("text"),),
                            lambda godel, args: _number(godel.encode(godel.parse_compact(args.text)))),
    "godel-decode": Command("godel", "code number to formula", NUMBER, _godel_decode),
    "godel-sharp": Command("godel", "self-substitution on a code number", NUMBER,
                           lambda godel, args: _number(godel.sharp_decimal(_wire(godel, *args.number)),
                                                       args.materialize)),
    "godel-compose": Command("godel", "compose two code numbers", (arg("left"), arg("right")),
                             lambda godel, args: _number(godel.compose_numbers(_wire(godel, args.left),
                                                                               _wire(godel, args.right)))),
    "self-refuter": Command("godel", "the formula asserting its own code's unprintability", (TRACE,),
                            _self_refuter),
    "lawvere": Command("lawvere", "diagonal and fixed-point report", TABLE + (
        arg("--alpha", default="identity",
            help="'identity', 'negation', or src:dst pairs separated by commas"),
    ), _lawvere),
    "threeval": Command("lawvere", "three-valued diagonal analysis", TABLE, _threeval),
    "lambda define": Command("fixpoint", "one definition 'name var = body'", LAMBDA, _define),
    "lambda fixpoint": Command("fixpoint", "the fixed point of a term, unfolded --steps times",
                               LAMBDA + (STEPS,), _fixpoint),
    "lambda reduce": Command("fixpoint", "normal-order reduction for --steps steps", LAMBDA + (STEPS,),
                             _reduce),
    "reflexive build": Command("reflexive", "the category's objects and generators", DIAGRAM, _build),
    "reflexive check": Command("reflexive", "whether the category is reflexive", DIAGRAM, _check),
    "reflexive enumerate": Command("reflexive", "composites of at most --max-len generators",
                                   DIAGRAM + (arg("--max-len", type=int, default=2),), _enumerate),
}


def build_parser(argv) -> argparse.ArgumentParser:
    parser = _Parser(prog="refshift",
                     description="Categorical pairs, the indicative shift, and four self-reference engines.")
    _add_commands(parser, argv)
    return parser


def _add_commands(parser, argv, words=()):
    """One subparser per command under words, listed with its help, but only the first command argv
    names is built, and alone when argv starts with it: a row gets its arguments, a group its actions."""
    names = dict.fromkeys(k.split()[len(words)] for k in COMMANDS if k.split()[:len(words)] == [*words])
    chosen = next((token for token in argv if token in names), None)
    alone = argv[:1] == [chosen]  # then the usage line still lists every command, as argparse would
    sub = parser.add_subparsers(dest="action" if words else "command", required=True,
                                metavar="{" + ",".join(names) + "}" if alone else None)
    for name in [chosen] if alone else names:
        key = " ".join((*words, name))
        row = COMMANDS.get(key)
        p = sub.add_parser(name, help=row.help if row else GROUPS[key])
        if name != chosen:
            continue
        if row is None:  # a group, whose actions follow the same rule
            _add_commands(p, argv[argv.index(name) + 1:], (*words, name))
        else:
            p.set_defaults(row=row, usage_error=p.error)
            for flag, kwargs in OUTPUT + row.args:
                p.add_argument(flag, **kwargs)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    as_json = "--json" in argv
    try:
        args, extras = build_parser(argv).parse_known_args(argv)
        as_json = args.json or "--json" in extras  # --json before the command or action is an extra
        if extras:  # reported by the named row's parser, so its usage line is printed
            args.usage_error(f"unrecognized arguments: {' '.join(extras)}")
        row = args.row
        # __import__, unlike importlib.import_module, shows in python -X importtime
        result, lines, *trace = row.run(__import__(f"{__package__}.{row.engine}", fromlist=["*"]), args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except (DomainError, OSError) as exc:
        code = exc.code if isinstance(exc, DomainError) else "io"
        if as_json:
            envelope = {"status": "error", "result": {"code": code, "message": str(exc)}}
            print(json.dumps(envelope, sort_keys=True))
        else:
            sys.stderr.write(exc.usage if code == "usage" else f"error[{code}]: {exc}\n")
        return 2 if code == "usage" else 1
    trace = trace[0] if trace and args.trace else None
    if as_json:
        envelope = {"status": "ok", "result": result}
        if trace is not None:
            envelope["trace"] = trace.to_json()
        print(json.dumps(envelope, sort_keys=True))
    else:
        for line in lines:
            print(line)
        if trace is not None:
            for i, step in enumerate(trace.steps, 1):
                suffix = f"  ({step.note})" if step.note else ""
                print(f"trace {i}. [{step.rule}] {step.arrow}{suffix}")
    return 0


def main():
    sys.exit(run())
