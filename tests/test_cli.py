import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refshift
from refshift import cli, core, lawvere, reflexive
from refshift.cli import COMMANDS, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_godel_sharp_worked_example(capsys):
    code, out, _ = invoke(capsys, "godel-sharp", "34152")
    assert code == 0
    assert out == "341 6x34152 2\n"


def test_iterate_simplest_final_line(capsys):
    code, out, _ = invoke(capsys, "iterate", "--base", "simplest", "--n", "5")
    assert code == 0
    assert out.splitlines()[-1] == "#^5 -> #^10"


def test_iterate_reads_run_length_arrow(capsys):
    # the compact text iterate prints (F#^8) must be accepted back as input
    argv = ["iterate", "--base", "next-simplest", "--arrow", "F#^8 -> F", "--n", "1"]
    code, _, _ = invoke(capsys, *argv)
    assert code == 0


def test_smullyan_report_final_line(capsys):
    code, out, _ = invoke(capsys, "smullyan", "report")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("4. ")
    assert lines[-1].endswith("~R~R is true but unprintable")


def test_json_envelope_round_trips(capsys):
    code, payload, _ = invoke_json(capsys, "godel-sharp", "34152")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["result"]["number"] == "341 6x34152 2"
    assert payload["result"]["digit_length"] == 34156
    assert json.loads(json.dumps(payload)) == payload


def test_text_and_json_agree(capsys):
    _, text_out, _ = invoke(capsys, "godel-decode", "341", "6x34152", "2")
    _, payload, _ = invoke_json(capsys, "godel-decode", "341", "6x34152", "2")
    assert text_out.strip() == payload["result"]["formula"]
    _, text2, _ = invoke(capsys, "iterate", "--base", "simplest", "--n", "3")
    _, payload2, _ = invoke_json(capsys, "iterate", "--base", "simplest", "--n", "3")
    assert text2.splitlines() == payload2["result"]["arrows"]


def test_shift_and_srt1(capsys):
    code, out, _ = invoke(capsys, "shift", "1_O -> 1_O", "--base", "simplest")
    assert code == 0 and out.strip() == "# -> 1_O"
    code, out, _ = invoke(capsys, "srt1", "R -> ~ #", "--base", "russell")
    assert code == 0
    assert out.splitlines()[-1] == "2. [shift] #R -> ~#R"


def test_srt1_trace_in_json(capsys):
    code, payload, _ = invoke_json(capsys, "srt1", "R -> ~ #", "--base", "russell", "--trace")
    assert code == 0
    steps = payload["trace"]["steps"]
    assert [s["rule"] for s in steps] == ["axiom", "shift"]
    assert steps[-1]["src_word"] == "#R"


def test_domain_error_exit_code(capsys):
    code, out, err = invoke(capsys, "srt1", "R -> ~", "--base", "russell")
    assert code == 1
    assert "error[not-srt1-shape]" in err
    code, payload, _ = invoke_json(capsys, "srt1", "R -> ~", "--base", "russell")
    assert code == 1
    assert payload["status"] == "error"
    assert payload["result"]["code"] == "not-srt1-shape"


def test_godel_decode_rejects_non_ascii_digits(capsys):
    # str.isdigit() accepts '²' and '٣'; the wire format takes ASCII 0-9 only
    for token in ("²", "٣x4", "12 ٣"):
        code, payload, _ = invoke_json(capsys, "godel-decode", *token.split())
        assert code == 1
        assert payload["status"] == "error"
        assert payload["result"]["code"] == "invalid-symbol"


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0


def test_missing_file_exit_code(capsys):
    code, _, err = invoke(capsys, "violations", "--model", "/nonexistent/model.txt")
    assert code == 1 and "error[io]" in err


def test_smullyan_subcommands(capsys, tmp_path):
    code, out, _ = invoke(capsys, "smullyan", "classify", "~R~R")
    assert code == 0 and "~R" in out
    code, out, _ = invoke(capsys, "smullyan", "arrow", "RR")
    assert code == 0 and out.strip() == "RR -> P[RR]"
    model = tmp_path / "model.txt"
    model.write_text("RR\n")
    code, out, _ = invoke(capsys, "smullyan", "semantics", "~R~R", "--model", str(model))
    assert code == 0 and out.strip() == "true"
    code, payload, _ = invoke_json(capsys, "violations", "--model", str(model))
    assert code == 0 and payload["result"]["truthful"]
    model.write_text("RR\n~R~R\n")
    code, payload, _ = invoke_json(capsys, "violations", "--model", str(model))
    assert payload["result"]["violations"] == ["~R~R"]


def test_godel_encode_decode(capsys):
    code, out, _ = invoke(capsys, "godel-encode", "~P(x)")
    assert code == 0 and out.strip() == "34152"
    code, out, _ = invoke(capsys, "godel-decode", "34152")
    assert code == 0 and out.strip() == "~P(x)"
    code, out, _ = invoke(capsys, "godel-decode", "341", "6x5", "2", "--materialize")
    assert code == 0 and out.strip() == "~P(|||||)"


def test_godel_compose(capsys):
    code, out, _ = invoke(capsys, "godel-compose", "4152", "3")
    assert code == 0 and out.strip() == "41 6x3 2"


def test_materialize_cap(capsys):
    code, _, err = invoke(capsys, "godel-sharp", "5x7", "--materialize")
    assert code == 1
    assert "materialize-too-large" in err


def test_self_refuter(capsys):
    code, payload, _ = invoke_json(capsys, "self-refuter")
    assert code == 0
    assert payload["result"]["number"] == "3417 6x341752 2"
    assert payload["result"]["formula"] == "~P(#|^341752)"
    assert payload["result"]["verified"] is True


def _write_table(tmp_path, rows, z):
    path = tmp_path / "table.json"
    path.write_text(
        json.dumps({"elements": [f"x{i}" for i in range(len(rows))], "z_elements": z, "rows": rows})
    )
    return str(path)


def test_lawvere_negation_not_surjective(capsys, tmp_path):
    table = _write_table(tmp_path, [["0", "1"], ["1", "0"]], ["0", "1"])
    code, payload, _ = invoke_json(capsys, "lawvere", "--table", table, "--alpha", "negation")
    assert code == 0
    assert payload["result"]["not_surjective"] is True
    assert payload["result"]["fixed_point"] is None


def test_lawvere_negation_not_surjective_past_the_cap(capsys, tmp_path):
    rng = random.Random(21)
    rows = [[rng.choice("01") for _ in range(21)] for _ in range(21)]
    table = _write_table(tmp_path, rows, ["0", "1"])
    code, payload, _ = invoke_json(capsys, "lawvere", "--table", table, "--alpha", "negation")
    assert (code, payload["status"]) == (0, "ok")
    assert payload["result"]["not_surjective"] is True
    assert payload["result"]["fixed_point"] is None


def test_lawvere_identity_fixed_point(capsys, tmp_path):
    table = _write_table(tmp_path, [["0", "0"], ["0", "0"]], ["0", "1"])
    code, payload, _ = invoke_json(capsys, "lawvere", "--table", table, "--alpha", "identity")
    assert code == 0
    assert payload["result"]["fixed_point"] == {"value": "0", "witness": "x0"}


@pytest.mark.parametrize("alpha", ["identity", "negation"])
def test_lawvere_builds_one_diagonal_and_scans_the_rows_once(capsys, tmp_path, monkeypatch, alpha):
    calls = {"cantor_diagonal": 0, "_representations": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(lawvere, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(lawvere, name, counted)
    table = _write_table(tmp_path, [["0", "0"], ["0", "0"]], ["0", "1"])
    code, payload, _ = invoke_json(capsys, "lawvere", "--table", table, "--alpha", alpha)
    assert (code, payload["result"]["not_surjective"]) == (0, alpha == "negation")
    assert calls == {"cantor_diagonal": 1, "_representations": 1}


@st.composite
def lawvere_tables(draw):
    """Rows of 1-6 elements over Z = {0, .., k-1} with k in 1-3, and an alpha spec in random order."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    z = [str(i) for i in range(k)]
    rows = draw(st.lists(st.lists(st.sampled_from(z), min_size=n, max_size=n), min_size=n, max_size=n))
    pairs = draw(st.permutations([(src, draw(st.sampled_from(z))) for src in z]))
    return rows, z, ",".join(f"{src}:{dst}" for src, dst in pairs)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lawvere-tables")


@settings(max_examples=60, deadline=None)
@given(lawvere_tables())
def test_lawvere_report_is_coherent(table_dir, case):
    rows, z, spec = case
    table = _write_table(table_dir, rows, z)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["lawvere", "--table", table, "--alpha", spec, "--json"]) == 0
    result = json.loads(out.getvalue())["result"]
    F = lawvere.CurriedMap(lawvere.FinSet(tuple(f"x{i}" for i in range(len(rows)))),
                           lawvere.FinSet(tuple(z)), rows)
    alpha = lawvere.FinMap.from_dict(F.cod_base, F.cod_base, dict(p.split(":") for p in spec.split(",")))
    assert result["diagonal"] == list(lawvere.diagonal_via_delta(F, alpha).table)
    if result["diagonal"] in rows:
        assert result["representation"] == result["fixed_point"]["witness"]
    assert result["not_surjective"] == (result["representation"] is None)


def test_threeval(capsys, tmp_path):
    table = _write_table(tmp_path, [["J", "J"], ["J", "J"]], ["0", "1", "J"])
    code, payload, _ = invoke_json(capsys, "threeval", "--table", table)
    assert code == 0
    assert payload["result"]["witnessed"] is True
    assert payload["result"]["representations"] == ["x0", "x1"]


def test_threeval_without_representation(capsys, tmp_path):
    # one element with row 0: the diagonal is ~0 = 1, which is no row
    table = _write_table(tmp_path, [["0"]], ["0", "1", "J"])
    assert invoke(capsys, "threeval", "--table", table) == (
        0, "diagonal: 1\nno representation for this table\n", "")
    code, payload, err = invoke_json(capsys, "threeval", "--table", table)
    assert (code, err, payload["status"]) == (0, "", "ok")
    assert payload["result"] == {"diagonal": ["1"], "representations": [], "witnessed": False}


def test_lambda_subcommands(capsys):
    code, out, _ = invoke(capsys, "lambda", "fixpoint", "F", "--steps", "2")
    assert code == 0
    assert out.splitlines()[-1] == "(F (F (g0 g0)))"
    code, out, _ = invoke(
        capsys, "lambda", "reduce", "(q c)", "--define", "q x = a ((b x) x)", "--steps", "5"
    )
    assert code == 0
    assert out.strip() == "(a ((b c) c))"
    code, payload, _ = invoke_json(capsys, "lambda", "define", "q x = (x x)")
    assert code == 0
    assert payload["result"]["name"] == "q"


def test_lambda_deep_reductions_emit_envelopes(capsys):
    argv = ["lambda", "reduce", "g g", "--define", "g x = F (x x)", "--steps", "5000"]
    code, payload, _ = invoke_json(capsys, *argv)
    assert code == 0 and payload["status"] == "ok"
    result = payload["result"]
    assert (result["steps_used"], result["exhausted"]) == (5000, True)
    assert result["term"] == "(F " * 5000 + "(g g)" + ")" * 5000
    code, payload, _ = invoke_json(capsys, "lambda", "fixpoint", "F", "--steps", "1500")
    assert code == 0 and payload["status"] == "ok"
    stages = payload["result"]["stages"]
    assert len(stages) == 1501
    assert stages[-1] == "(F " * 1500 + "(g0 g0)" + ")" * 1500


def test_reflexive_subcommands(capsys, tmp_path):
    code, out, _ = invoke(capsys, "reflexive", "check", "--builtin", "trefoil")
    assert code == 0 and out.strip() == "reflexive: True"
    code, payload, _ = invoke_json(capsys, "reflexive", "enumerate", "--builtin", "link", "--max-len", "2")
    assert code == 0
    assert payload["result"]["words"] == ["A", "B", "AA", "BB"]
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("a: a -> a\n")
    code, payload, _ = invoke_json(capsys, "reflexive", "build", "--table", str(arcs))
    assert code == 0 and payload["result"]["reflexive"] is True


def test_category_file_loading(capsys, tmp_path):
    cat = tmp_path / "pair.cat"
    cat.write_text("object O\nsharp # : O\ngenerator R : O -> O\ngenerator ~ : O -> O\n")
    code, out, _ = invoke(capsys, "srt1", "R -> ~ #", "--category", str(cat))
    assert code == 0
    assert out.splitlines()[-1].endswith("#R -> ~#R")


# --- golden outputs: one case per COMMANDS row, text and --json ---

REPORT_NOTES = [
    "printing ~R~R asserts that ~R~R is not printable",
    "a machine whose printable set contains ~R~R prints a falsehood, witness ~R~R",
    "hence a truthful machine never prints ~R~R",
    "every truthful machine omits ~R~R, so ~R~R is true but unprintable",
]
RUSSELL_STEPS = [
    {"dst_word": "~#", "note": "", "rule": "axiom", "src_word": "R"},
    {"dst_word": "~#R", "note": "", "rule": "shift", "src_word": "#R"},
]
REPORT_STEPS = [
    {"dst_word": "~P[~R~R]", "note": note, "rule": rule, "src_word": "~R~R"}
    for rule, note in zip(["axiom", "violation", "unprintable", "true"], REPORT_NOTES)
]

# key: (argv, text stdout, --json result); {model}, {bool}, {tri}, {arcs} name fixture files
GOLDEN = {
    "shift": (["shift", "R -> ~ #", "--base", "russell"], "#R -> ~#R\n",
              {"arrow": "#R -> ~#R", "dst": "~#R", "rule": "shift", "src": "#R"}),
    "srt1": (["srt1", "R -> ~ #", "--base", "russell"], "1. [axiom] R -> ~#\n2. [shift] #R -> ~#R\n",
             {"final": "#R -> ~#R", "steps": RUSSELL_STEPS}),
    "iterate": (["iterate", "--base", "next-simplest", "--arrow", "1_O -> F", "--n", "4"],
                "# -> F\n## -> F#\n### -> F###\n#^4 -> F#^6\n",
                {"arrows": ["# -> F", "## -> F#", "### -> F###", "#^4 -> F#^6"],
                 "rules": ["shift"] * 4, "stop_reason": None}),
    "smullyan classify": (["smullyan", "classify", "P~R~R"], "P~R~R: P with remainder '~R~R'\n",
                          {"body": "~R~R", "interpretable": True, "kind": "P", "string": "P~R~R"}),
    "smullyan arrow": (["smullyan", "arrow", "~R~R"], "~R~R -> ~P[~R~R]\n", {"arrow": "~R~R -> ~P[~R~R]"}),
    "smullyan semantics": (["smullyan", "semantics", "~R~R", "--model", "{model}"], "false\n",
                           {"string": "~R~R", "value": False}),
    "smullyan report": (["smullyan", "report"],
                        "".join(f"{i}. {note}\n" for i, note in enumerate(REPORT_NOTES, 1)),
                        {"final_claim": REPORT_NOTES[-1], "steps": REPORT_NOTES}),
    "violations": (["violations", "--model", "{model}"], "~R~R\n",
                   {"truthful": False, "violations": ["~R~R"]}),
    "godel-encode": (["godel-encode", "~P(x)"], "34152\n", {"digit_length": 5, "number": "34152"}),
    "godel-decode": (["godel-decode", "341", "6x34152", "2"], "~P(|^34152)\n",
                     {"formula": "~P(|^34152)", "length": 34156}),
    "godel-sharp": (["godel-sharp", "34152"], "341 6x34152 2\n",
                    {"digit_length": 34156, "number": "341 6x34152 2"}),
    "godel-compose": (["godel-compose", "4152", "3"], "41 6x3 2\n",
                      {"digit_length": 6, "number": "41 6x3 2"}),
    "self-refuter": (["self-refuter"],
                     "number:  3417 6x341752 2\nformula: ~P(#|^341752)\n"
                     "verified: the formula's code is the number it talks about\n",
                     {"digit_length": 341757, "formula": "~P(#|^341752)", "number": "3417 6x341752 2",
                      "verified": True}),
    "lawvere": (["lawvere", "--table", "{bool}", "--alpha", "negation"],
                "diagonal: 1 1\ndiagonal not represented: no surjection onto the map set\n",
                {"diagonal": ["1", "1"], "fixed_point": None, "not_surjective": True,
                 "representation": None}),
    "threeval": (["threeval", "--table", "{tri}"],
                 "diagonal: J J\nrepresented by x0, x1; diagonal value J at each\n",
                 {"diagonal": ["J", "J"], "representations": ["x0", "x1"], "witnessed": True}),
    "lambda define": (["lambda", "define", "q x = (x x)"], "q x = (x x)\n",
                      {"body": "(x x)", "name": "q", "var": "x"}),
    "lambda fixpoint": (["lambda", "fixpoint", "F", "--steps", "2"],
                        "g0 x = (F (x x))\n(g0 g0)\n(F (g0 g0))\n(F (F (g0 g0)))\n",
                        {"definition": {"body": "(F (x x))", "name": "g0", "var": "x"},
                         "fixpoint": "(g0 g0)", "stages": ["(g0 g0)", "(F (g0 g0))", "(F (F (g0 g0)))"]}),
    "lambda reduce": (["lambda", "reduce", "(q c)", "--define", "q x = a ((b x) x)", "--steps", "5"],
                      "(a ((b c) c))\n", {"exhausted": False, "steps_used": 1, "term": "(a ((b c) c))"}),
    "reflexive build": (["reflexive", "build", "--builtin", "trefoil"],
                        "A: C -> B\nB: A -> C\nC: B -> A\nreflexive: True\n",
                        {"generators": [{"cod": "B", "dom": "C", "name": "A"},
                                        {"cod": "C", "dom": "A", "name": "B"},
                                        {"cod": "A", "dom": "B", "name": "C"}],
                         "objects": ["A", "B", "C"], "reflexive": True}),
    "reflexive check": (["reflexive", "check", "--table", "{arcs}"], "reflexive: True\n",
                        {"reflexive": True}),
    "reflexive enumerate": (["reflexive", "enumerate", "--builtin", "link", "--max-len", "2"],
                            "A\nB\nAA\nBB\n", {"count": 4, "words": ["A", "B", "AA", "BB"]}),
}

# key: (text stdout with --trace, the --json envelope's trace)
TRACED = {
    "shift": ("#R -> ~#R\ntrace 1. [axiom] R -> ~#\ntrace 2. [shift] #R -> ~#R\n", {"steps": RUSSELL_STEPS}),
    "srt1": ("1. [axiom] R -> ~#\n2. [shift] #R -> ~#R\n"
             "trace 1. [axiom] R -> ~#\ntrace 2. [shift] #R -> ~#R\n", {"steps": RUSSELL_STEPS}),
    "iterate": ("# -> F\n## -> F#\n### -> F###\n#^4 -> F#^6\n"
                "trace 1. [axiom] 1_O -> F\ntrace 2. [shift] # -> F\ntrace 3. [shift] ## -> F#\n"
                "trace 4. [shift] ### -> F###\ntrace 5. [shift] #^4 -> F#^6\n",
                {"steps": [{"dst_word": dst, "note": "", "rule": rule, "src_word": src}
                           for rule, src, dst in [("axiom", "1_O", "F"), ("shift", "#", "F"),
                                                  ("shift", "##", "F#"), ("shift", "###", "F###"),
                                                  ("shift", "#^4", "F#^6")]]}),
    "self-refuter": ("number:  3417 6x341752 2\nformula: ~P(#|^341752)\n"
                     "verified: the formula's code is the number it talks about\n"
                     "trace 1. [axiom] 341752 -> ~P(#x)\ntrace 2. [shift] 3417 6x341752 2 -> ~P(#|^341752)\n",
                     {"steps": [{"dst_word": "~P(#x)", "note": "", "rule": "axiom", "src_word": "341752"},
                                {"dst_word": "~P(#|^341752)", "note": "", "rule": "shift",
                                 "src_word": "3417 6x341752 2"}]}),
    "smullyan report": (
        "".join(f"{i}. {note}\n" for i, note in enumerate(REPORT_NOTES, 1))
        + "".join(f"trace {i}. [{s['rule']}] ~R~R -> ~P[~R~R]  ({s['note']})\n"
                  for i, s in enumerate(REPORT_STEPS, 1)),
        {"steps": REPORT_STEPS}),
}


@pytest.fixture
def golden_files(tmp_path):
    files = {
        "model": ("model.txt", "RR\n~R~R\nP~R~R\n"),
        "bool": ("bool.json", '{"elements": ["a", "b"], "z_elements": ["0", "1"], '
                              '"rows": [["0", "1"], ["1", "0"]]}'),
        "tri": ("tri.json", '{"elements": ["x0", "x1"], "z_elements": ["0", "1", "J"], '
                            '"rows": [["J", "J"], ["J", "J"]]}'),
        "arcs": ("arcs.txt", "A: A -> B\nB: B -> A\nC: A -> A\n"),
    }
    for key, (name, text) in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return {key: str(tmp_path / name) for key, (name, _) in files.items()}


def test_golden_covers_every_row():
    assert set(GOLDEN) == set(COMMANDS)
    assert len(COMMANDS) == 21


@pytest.mark.parametrize("key", list(GOLDEN))
def test_golden_output(key, capsys, golden_files):
    argv, text, result = GOLDEN[key]
    argv = [a.format(**golden_files) for a in argv]
    assert invoke(capsys, *argv) == (0, text, "")
    code, out, err = invoke(capsys, *argv, "--json")
    assert (code, err, out.count("\n")) == (0, "", 1)
    assert json.loads(out) == {"status": "ok", "result": result}
    if key in TRACED:
        traced_text, trace = TRACED[key]
        assert invoke(capsys, *argv, "--trace") == (0, traced_text, "")
        code, payload, _ = invoke_json(capsys, *argv, "--trace")
        assert payload == {"status": "ok", "result": result, "trace": trace}


# --- every failure is typed, and with --json it is an envelope ---


def assert_error(capsys, argv, code, exit_code):
    got, payload, err = invoke_json(capsys, *argv)
    assert (got, err) == (exit_code, "")
    assert payload["status"] == "error" and payload["result"]["code"] == code
    return payload["result"]["message"]


def test_usage_errors_are_envelopes(capsys):
    assert_error(capsys, ["nosuch"], "usage", 2)
    message = assert_error(capsys, ["shift"], "usage", 2)
    assert message == "the following arguments are required: arrow"
    # in text mode argparse's usage report stays on stderr
    code, out, err = invoke(capsys, "shift")
    assert (code, out) == (2, "")
    assert err.startswith("usage: refshift shift [-h]")
    assert err.endswith("refshift shift: error: the following arguments are required: arrow\n")


def test_the_parser_builds_the_arguments_of_the_named_command_only(capsys):
    # every command is listed with its help whichever is named, but only the named one takes arguments
    full = cli.build_parser([])
    assert invoke(capsys, "-h") == (0, full.format_help(), "")
    with pytest.raises(cli.UsageError, match="^unrecognized arguments: 1_O -> 1_O$"):
        cli.build_parser(["--json", "godel-sharp"]).parse_args(["shift", "1_O -> 1_O"])
    # a command that argv starts with is built alone, under the usage line of them all
    alone = cli.build_parser(["godel-sharp"])
    assert alone.format_usage() == full.format_usage()
    with pytest.raises(cli.UsageError, match="invalid choice") as refused:
        alone.parse_args(["shift", "1_O -> 1_O"])
    assert str(refused.value).partition("(choose from ")[2].strip("'\")") == "godel-sharp"
    with pytest.raises(SystemExit):  # the help of shift as the parser of every command prints it
        cli.build_parser(["--json", "shift"]).parse_args(["shift", "-h"])
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: refshift shift [-h] [--json] [--trace]")
    assert invoke(capsys, "shift", "-h") == (0, help_text, "")


@pytest.mark.parametrize("argv,name", [
    (["smullyan", "classify"], "string"),
    (["smullyan", "semantics", "--model", "m.txt"], "string"),
    (["lambda", "reduce"], "term"),
    (["lambda", "define", "--define", "q x = x"], "term"),
])
def test_missing_positional_is_a_usage_error(capsys, argv, name):
    message = assert_error(capsys, argv, "usage", 2)
    assert message == f"the following arguments are required: {name}"
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: refshift {argv[0]} ") and err.endswith(f"required: {name}\n")


def test_missing_file_is_an_io_envelope(capsys):
    message = assert_error(capsys, ["violations", "--model", "/nonexistent/model.txt"], "io", 1)
    assert "/nonexistent/model.txt" in message


def test_unreadable_files_are_invalid_definitions(capsys, tmp_path):
    binary = tmp_path / "binary.bin"
    binary.write_bytes(b"\xff\xfe\x00bin\n")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"elements": [', encoding="utf-8")
    for argv in (["violations", "--model", str(binary)],
                 ["smullyan", "semantics", "RR", "--model", str(binary)],
                 ["lawvere", "--table", str(binary)],
                 ["threeval", "--table", str(binary)],
                 ["reflexive", "check", "--table", str(binary)],
                 ["shift", "# -> #", "--category", str(binary)]):
        assert "is not UTF-8 text" in assert_error(capsys, argv, "invalid-definition", 1)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error[invalid-definition]: ")
    for argv in (["lawvere", "--table", str(bad_json)], ["threeval", "--table", str(bad_json)]):
        assert assert_error(capsys, argv, "invalid-definition", 1).startswith("table file is not JSON")


@pytest.mark.parametrize("command", ["lawvere", "threeval"])
def test_non_string_table_labels_are_invalid_definitions(capsys, tmp_path, command):
    path = tmp_path / "table.json"
    for table in ({"elements": ["a"], "z_elements": ["0"], "rows": [[["x"]]]},
                  {"elements": [["a"]], "z_elements": ["0"], "rows": [["0"]]},
                  {"elements": ["a"], "z_elements": [0], "rows": [[0]]}):
        path.write_text(json.dumps(table))
        message = assert_error(capsys, [command, "--table", str(path)], "invalid-definition", 1)
        assert message == "table elements, z_elements and row values must be strings"


def test_reflexive_without_source_stays_typed(capsys):
    message = assert_error(capsys, ["reflexive", "check"], "invalid-definition", 1)
    assert message == "reflexive needs --builtin or --table"


def test_fuel_zero_is_honoured(capsys, tmp_path):
    cat = tmp_path / "loop.cat"
    cat.write_text("object O\nsharp # : O\ngenerator u : O -> O\ngenerator v : O -> O\n"
                   "rule u v => v u\nrule v u => u v\n")
    argv = ["shift", "u v -> 1_O", "--category", str(cat)]
    message = assert_error(capsys, argv + ["--fuel", "0"], "rewrite-budget-exceeded", 1)
    assert message.endswith("exceeded the budget of 0 steps")
    message = assert_error(capsys, argv, "rewrite-budget-exceeded", 1)
    assert message.endswith("exceeded the budget of 10000 steps")


def test_a_placeholder_rule_fires_and_terminates(capsys, tmp_path):
    # # ?a => ?a ?a is #a = aa, so the lambda shift turns g -> F# into gg -> F(gg)
    cat = tmp_path / "sharp.cat"
    cat.write_text("object O\nsharp # : O\ngenerator g : O -> O\ngenerator F : O -> O\nrule # ?a => ?a ?a\n")
    code, payload, _ = invoke_json(capsys, "shift", "g -> F #", "--category", str(cat), "--lambda-pair")
    assert code == 0
    assert (payload["result"]["arrow"], payload["result"]["rule"]) == ("gg -> Fgg", "shift-lambda")


def test_an_identity_placeholder_rule_takes_no_step(capsys, tmp_path):
    # ?a => ?a never makes progress, so even no fuel at all is enough
    cat = tmp_path / "still.cat"
    cat.write_text("object O\nsharp # : O\ngenerator u : O -> O\nrule ?a => ?a\n")
    code, payload, _ = invoke_json(capsys, "shift", "u u -> u", "--category", str(cat), "--fuel", "0")
    assert (code, payload["result"]["arrow"]) == (0, "#uu -> uuu")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_iterate_rejects_nonpositive_n(capsys, n):
    message = assert_error(capsys, ["iterate", "--n", n], "usage", 2)
    assert message == f"argument --n: must be at least 1, got {n}"
    code, out, err = invoke(capsys, "iterate", "--n", n)
    assert (code, out) == (2, "") and err.startswith("usage: refshift iterate")


def test_two_category_flag_is_gone(capsys):
    message = assert_error(capsys, ["shift", "1_O -> 1_O", "--two-category"], "usage", 2)
    assert message == "unrecognized arguments: --two-category"


@pytest.mark.parametrize("argv,canonical", [
    (["smullyan", "--json", "report"], ["smullyan", "report", "--json"]),
    (["smullyan", "report", "extra"], ["smullyan", "report"]),
    (["reflexive", "--builtin", "link", "enumerate"], ["reflexive", "enumerate", "--builtin", "link"]),
    (["reflexive", "build", "--builtin", "link", "--max-len", "3"],
     ["reflexive", "build", "--builtin", "link"]),
    (["lambda", "--steps", "2", "fixpoint", "F"], ["lambda", "fixpoint", "F", "--steps", "2"]),
])
def test_action_arguments_in_any_order(capsys, argv, canonical):
    # one parser per command takes the options of all its actions, before or after the action
    assert invoke(capsys, *argv) == invoke(capsys, *canonical)
    assert invoke(capsys, *argv)[0] == 0


def test_counts_past_the_int_str_limit_are_decimal_text(capsys):
    # json.dumps cannot print an int past the interpreter's 4300-digit limit
    code, payload, err = invoke_json(capsys, "godel-sharp", "5x100000")
    assert (code, err, payload["status"]) == (0, "", "ok")
    digit_length = payload["result"]["digit_length"]
    assert isinstance(digit_length, str) and len(digit_length) == 100005
    assert digit_length == "5" * 100000 + "00000"  # 10**5 fives, each 55...5 (10**5 digits) sixes long
    huge = "1" * 5001
    code, payload, err = invoke_json(capsys, "godel-decode", f"5x{huge}")
    assert (code, err) == (0, "")
    assert payload["result"]["length"] == huge
    code, payload, _ = invoke_json(capsys, "godel-decode", "5x" + "1" * 4300)
    assert payload["result"]["length"] == int("1" * 4300)


def test_enumeration_cap_is_a_typed_error(capsys, tmp_path):
    arcs = tmp_path / "fan.txt"
    arcs.write_text("".join(f"a{i}: a0 -> a0\n" for i in range(400)))
    argv = ["reflexive", "enumerate", "--table", str(arcs)]
    code, payload, _ = invoke_json(capsys, *argv, "--max-len", "1")
    assert code == 0 and payload["result"]["count"] == 400
    message = assert_error(capsys, argv + ["--max-len", "2"], "enumeration-cap-exceeded", 1)
    assert message == "160400 composites of length at most 2 exceed the cap of 100000"
    code, out, err = invoke(capsys, *argv, "--max-len", "2")
    assert (code, out) == (1, "") and err.startswith("error[enumeration-cap-exceeded]: ")


def test_enumeration_stops_when_no_word_extends(capsys, tmp_path):
    # an acyclic table has no composite longer than its longest path, whatever --max-len says
    arcs = tmp_path / "acyclic.txt"
    arcs.write_text("a: b -> c\nb: a -> c\nc: a -> b\n")
    code, payload, _ = invoke_json(capsys, "reflexive", "enumerate", "--table", str(arcs), "--max-len", "1000000000")
    assert code == 0 and payload["result"] == {"count": 4, "words": ["a", "b", "c", "ac"]}


def test_fixpoint_steps_are_bounded_by_fuel(capsys):
    argv = ["lambda", "fixpoint", "F", "--steps", "5", "--fuel", "2"]
    message = assert_error(capsys, argv, "invalid-definition", 1)
    assert message == "requested 5 steps but the fuel budget is 2"
    reduce_argv = ["lambda", "reduce", "g g", "--define", "g x = F (x x)", "--steps", "5", "--fuel", "2"]
    assert assert_error(capsys, reduce_argv, "invalid-definition", 1) == message
    code, payload, _ = invoke_json(capsys, "lambda", "fixpoint", "F", "--steps", "2", "--fuel", "2")
    assert code == 0 and len(payload["result"]["stages"]) == 3


@pytest.mark.parametrize("alpha,message", [
    ("0:1", "the map assigns no value to 1"),
    ("0:1,1:0,2:0", "2 not in the domain 0, 1"),
])
def test_alpha_must_assign_exactly_the_base_codomain(capsys, tmp_path, alpha, message):
    table = _write_table(tmp_path, [["0", "1"], ["1", "0"]], ["0", "1"])
    argv = ["lawvere", "--table", table, "--alpha", alpha]
    assert assert_error(capsys, argv, "invalid-definition", 1) == message
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (1, "", f"error[invalid-definition]: {message}\n")


def test_alpha_must_not_map_a_source_twice(capsys, tmp_path):
    table = _write_table(tmp_path, [["0", "1"], ["1", "0"]], ["0", "1"])
    argv = ["lawvere", "--table", table, "--alpha", "0:1,1:0,0:0"]
    message = "alpha maps 0 more than once"
    assert assert_error(capsys, argv, "invalid-definition", 1) == message
    assert invoke(capsys, *argv) == (1, "", f"error[invalid-definition]: {message}\n")


@pytest.mark.parametrize("argv", [
    ["godel-sharp", "5x99999999999"],
    ["godel-compose", "5", "6x99999999999"],
    ["godel-sharp", "5x" + "1" * 5001],
])
def test_oversized_values_are_typed_errors(capsys, argv):
    # value() would build an integer of 10**11 digits or more
    assert assert_error(capsys, argv, "materialize-too-large", 1).startswith("a value of ")


def test_oversized_materialized_text_is_a_typed_error(capsys):
    # the symbol count is past the int/str digit limit, and the message still prints it
    message = assert_error(capsys, ["godel-decode", "5x" + "1" * 5001, "--materialize"],
                           "materialize-too-large", 1)
    assert message == "1" * 5001 + " symbols exceed the materialize cap of 1000000"


@pytest.mark.parametrize("argv", [
    ["shift", "1_O -> 1_O"],
    ["srt1", "R -> ~ #", "--base", "russell"],
    ["iterate", "--n", "2"],
    ["lambda", "reduce", "(q c)"],
])
def test_negative_fuel_is_an_invalid_definition(capsys, argv):
    message = assert_error(capsys, argv + ["--fuel", "-1"], "invalid-definition", 1)
    assert message == "fuel must be non-negative"


@pytest.mark.parametrize("action", ["reduce", "fixpoint"])
def test_lambda_steps_must_not_be_negative(capsys, action):
    argv = ["lambda", action, "F", "--steps", "-3"]
    assert assert_error(capsys, argv, "usage", 2) == "argument --steps: must be at least 0, got -3"
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("usage: refshift lambda")
    code, payload, _ = invoke_json(capsys, "lambda", action, "F", "--steps", "0")
    assert code == 0 and payload["status"] == "ok"


PAIR_HEAD = "object O\nsharp # : O\n"
SHIFT_PAIR_FILE = ["shift", "1_O -> 1_O", "--category", "FILE"]
ALPHA = ["lawvere", "--table", "FILE", "--alpha"]


def _table(z, rows):
    return json.dumps({"elements": ["a", "b"], "z_elements": z, "rows": rows})


# argv (FILE is a file holding text), text, then the error code and message; "ok" for a success
FAILURES = {
    "table-without-rows": (["lawvere", "--table", "FILE"], '{"elements": ["a"], "z_elements": ["0"]}',
                           "invalid-definition", "table file needs elements, z_elements, rows"),
    "negation-over-pq": (ALPHA + ["negation"], _table(["p", "q"], [["p", "q"], ["q", "p"]]),
                         "invalid-definition", "named negation exists only for {0,1} and {0,1,J}"),
    "negation-over-01J": (ALPHA + ["negation"], _table(["0", "1", "J"], [["J", "J"], ["J", "J"]]),
                          "ok", None),
    "alpha-entry-without-colon": (ALPHA + ["p"], _table(["0", "1"], [["0", "1"], ["1", "0"]]),
                                  "invalid-definition", "bad alpha entry 'p'; expected src:dst"),
    "definition-without-var": (["lambda", "define", "q = x"], "",
                               "invalid-definition", "definition head 'q' needs exactly 'name var'"),
    "definition-var-not-free": (["lambda", "define", "q x = a"], "",
                                "var-not-free", "variable 'x' does not occur in the body"),
    "definition-repeated": (["lambda", "reduce", "q c", "--define", "q x = x", "--define", "q y = y"], "",
                            "invalid-definition", "'q' is already defined"),
    "empty-parentheses": (["lambda", "reduce", "()"], "", "invalid-definition", "unexpected ')' in term"),
    "generator-without-name": (SHIFT_PAIR_FILE, PAIR_HEAD + "generator : O -> O\n",
                               "invalid-definition", "generator name must be nonempty"),
    "empty-word-spec": (["shift", " -> F", "--base", "next-simplest"], "",
                        "invalid-definition", "empty word spec; use 1_<object> for an identity"),
    "generator-name-with-caret": (SHIFT_PAIR_FILE, PAIR_HEAD + "generator a^b : O -> O\n",
                                  "invalid-definition", "generator name 'a^b' may not contain spaces or '^'"),
    "generator-unknown-object": (SHIFT_PAIR_FILE, PAIR_HEAD + "generator a : O -> Q\n",
                                 "invalid-definition", "generator a: O -> Q uses unknown objects"),
    "two-sharps": (SHIFT_PAIR_FILE, PAIR_HEAD + "sharp % : O\n",
                   "invalid-definition", "object O has more than one sharp generator"),
    "rule-empty-pattern": (SHIFT_PAIR_FILE, PAIR_HEAD + "rule =>\n",
                           "invalid-definition", "rewrite pattern must be nonempty"),
    "rule-past-the-binding-cap": (SHIFT_PAIR_FILE, PAIR_HEAD
                                  + "".join(f"generator g{i} : O -> O\n" for i in range(100))
                                  + "rule ?a ?b => 1\n",
                                  "invalid-definition",
                                  "rule ?a ?b => 1 takes the category past 10000 placeholder bindings"),
    "rule-without-arrow": (SHIFT_PAIR_FILE, PAIR_HEAD + "rule\n",
                           "invalid-definition", "line 3: cannot parse 'rule'"),
    "flag-lambda-pair": (SHIFT_PAIR_FILE, PAIR_HEAD + "flags lambda-pair\n",
                         "invalid-definition", "unknown flag 'lambda-pair'"),
    "iterate-without-objects": (["iterate", "--n", "1", "--category", "FILE"], "; no objects\n",
                                "invalid-definition", "--arrow is required unless the base has exactly one object"),
    "unknown-generator": (["shift", "x -> 1_O", "--base", "simplest"], "",
                          "invalid-definition", "unknown generator 'x'"),
    "unknown-object": (["shift", "1_Q -> 1_O", "--base", "simplest"], "",
                       "invalid-definition", "unknown object 'Q'"),
    # a second separator stays in the last field, which then names nothing known
    "arrow-with-two-arrows": (["shift", "1_O -> 1_O -> 1_O", "--base", "simplest"], "",
                              "invalid-definition", "unknown object 'O -> 1_O'"),
    "generator-with-two-arrows": (SHIFT_PAIR_FILE, PAIR_HEAD + "generator a : O -> O -> O\n",
                                  "invalid-definition", "generator a: O -> O -> O uses unknown objects"),
    "generator-with-two-colons": (SHIFT_PAIR_FILE, PAIR_HEAD + "generator a : b : O -> O\n",
                                  "invalid-definition", "generator a: b : O -> O uses unknown objects"),
    "sharp-with-two-colons": (SHIFT_PAIR_FILE, PAIR_HEAD + "sharp % : O : O\n",
                              "invalid-definition", "generator %: O : O -> O : O uses unknown objects"),
    "rule-with-two-arrows": (SHIFT_PAIR_FILE, PAIR_HEAD + "generator u : O -> O\nrule u => u => u\n",
                             "invalid-definition", "rule u => u => u names no generator '=>'"),
    "chain-mismatch": (["shift", "f f -> f", "--category", "FILE"], "object A B\ngenerator f : A -> B\n",
                       "chain-mismatch", "generators f:A->B and f:A->B do not chain"),
    "fuel-zero-no-steps": (["lambda", "reduce", "F", "--fuel", "0", "--steps", "0"], "", "ok", None),
    "fuel-zero-one-step": (["lambda", "reduce", "F", "--fuel", "0", "--steps", "1"], "",
                           "invalid-definition", "requested 1 steps but the fuel budget is 0"),
}


@pytest.mark.parametrize("key", list(FAILURES))
def test_each_reachable_failure_is_one_typed_envelope(capsys, tmp_path, key):
    argv, text, code, message = FAILURES[key]
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if a == "FILE" else a for a in argv]
    if code == "ok":
        got, payload, err = invoke_json(capsys, *argv)
        assert (got, err, payload["status"]) == (0, "", "ok")
    else:
        assert assert_error(capsys, argv, code, 1) == message


# --- a command imports only the engine it runs ---


def test_parser_choices_name_the_engines_tables():
    assert cli.BASES == tuple(sorted(core.BUILTIN_PAIRS))
    assert cli.DIAGRAMS == tuple(reflexive.BUILTIN_TABLES)
    engines = {"core", "smullyan", "godel", "lawvere", "fixpoint", "reflexive"}
    assert {row.engine for row in COMMANDS.values()} == engines


def test_package_names_resolve_on_first_use():
    for name in refshift.__all__:
        assert getattr(refshift, name) is not None
    assert set(refshift.__all__) <= set(dir(refshift))
    assert refshift.Word is core.Word and refshift.DomainError.code == "domain-error"
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        refshift.nosuch


def loaded_modules(tmp_path, code, *argv):
    """refshift's submodules, decimal and dataclasses that `python -c code argv...` has loaded at its end."""
    probe = code + ("\nprint(' '.join(sorted(m for m in sys.modules"
                    " if m.startswith('refshift.') or m in ('decimal', 'dataclasses'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(refshift.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60).stdout
    return out.splitlines()[-1].split()


# core keeps one dataclass (CategoricalPair), so dataclasses comes with core and only with it
@pytest.mark.parametrize("argv,engines", [
    (["shift", "1_O -> 1_O"], ["core", "runs", "value", "dataclasses"]),
    (["godel-encode", "~P(x)"], ["godel", "runs", "value"]),
    (["smullyan", "classify", "~R~R"], ["core", "runs", "smullyan", "value", "dataclasses"]),
    (["lawvere", "--table", "bool.json"], ["lawvere", "value"]),
    (["threeval", "--table", "tri.json"], ["lawvere", "value"]),
    (["lambda", "define", "q x = x"], ["fixpoint", "value"]),
    (["lambda", "fixpoint", "F", "--steps", "2"], ["fixpoint", "value"]),
    (["lambda", "reduce", "(q c)", "--define", "q x = a ((b x) x)"], ["fixpoint", "value"]),
    (["reflexive", "build", "--builtin", "link"], ["core", "reflexive", "runs", "value", "dataclasses"]),
    (["--help"], []),
    (["godel-sharp", "34152"], ["godel", "runs", "value"]),
    # the self-refuter is srt1 in the Goedel pair; its arrows and the shift live in value, not core
    (["self-refuter"], ["godel", "runs", "value"]),
    (["godel-decode", "341752"], ["godel", "runs", "value"]),
    (["godel-compose", "341752", "34152"], ["godel", "runs", "value"]),
])
def test_a_command_loads_only_its_engine(tmp_path, argv, engines):
    (tmp_path / "bool.json").write_text('{"elements": ["a", "b"], "z_elements": ["0", "1"], '
                                        '"rows": [["0", "1"], ["1", "0"]]}')
    (tmp_path / "tri.json").write_text('{"elements": ["x0"], "z_elements": ["0", "1", "J"], "rows": [["J"]]}')
    probe = "import sys\nfrom refshift.cli import run\nassert run(sys.argv[1:]) == 0"
    loaded = loaded_modules(tmp_path, probe, *argv, "--json")
    # decimal is absent too: counts within the int/str digit limit never need it
    expected = [m if m == "dataclasses" else f"refshift.{m}" for m in ["cli", "errors", *engines]]
    assert loaded == sorted(expected)


def test_decimal_is_loaded_only_past_the_int_str_digit_limit(tmp_path):
    # the commands above load no decimal, which takes about 2 ms to import; a count past it does
    probe = "import sys\nfrom refshift.cli import run\nassert run(sys.argv[1:]) == 0"
    loaded = loaded_modules(tmp_path, probe, "godel-sharp", "5x100000", "--json")
    assert "decimal" in loaded and "refshift.runs" in loaded


def test_importing_the_package_loads_no_engine(tmp_path):
    assert loaded_modules(tmp_path, "import sys, refshift") == []


def test_the_second_level_names_load_value_alone(tmp_path):
    # reference arrows, derivations and the shift need no word category, so no core and no dataclasses
    code = "import sys, refshift\nrefshift.RefArrow, refshift.Derivation, refshift.DerivationStep, refshift.shift"
    assert loaded_modules(tmp_path, code) == ["refshift.value"]


def test_the_engine_import_shows_in_the_import_time_log(tmp_path):
    # -X importtime logs what goes through __import__, not importlib.import_module
    env = dict(os.environ, PYTHONPATH=str(Path(refshift.__file__).parents[1]))
    err = subprocess.run([sys.executable, "-X", "importtime", "-m", "refshift", "shift", "1_O -> 1_O"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60).stderr
    assert "refshift.core" in {line.rpartition("|")[2].strip() for line in err.splitlines()}
