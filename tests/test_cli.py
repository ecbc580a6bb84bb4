import json

from refshift.cli import run


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


def test_lawvere_identity_fixed_point(capsys, tmp_path):
    table = _write_table(tmp_path, [["0", "0"], ["0", "0"]], ["0", "1"])
    code, payload, _ = invoke_json(capsys, "lawvere", "--table", table, "--alpha", "identity")
    assert code == 0
    assert payload["result"]["fixed_point"] == {"value": "0", "witness": "x0"}


def test_threeval(capsys, tmp_path):
    table = _write_table(tmp_path, [["J", "J"], ["J", "J"]], ["0", "1", "J"])
    code, payload, _ = invoke_json(capsys, "threeval", "--table", table)
    assert code == 0
    assert payload["result"]["witnessed"] is True
    assert payload["result"]["representations"] == ["x0", "x1"]


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
