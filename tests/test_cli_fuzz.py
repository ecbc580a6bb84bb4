"""Argv fuzz drawn from the CLI's own command table.

Each example picks a row of ``COMMANDS``, some of its arguments and values
from a small bounded pool (bad numbers, odd digits, missing, binary and
malformed files among them), and one time in ten ``--trace``, which most rows
refuse as a usage error. Whatever the argv, the CLI must exit 0, 1 or 2,
print no traceback, and with --json print exactly one envelope.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from refshift.cli import COMMANDS, OUTPUT, run

TEXT = ["0", "-1", "²", "5x0", "F#^8", "1_O -> 1_O", "R -> ~ #", "F -> F#", "#^3 -> #", "~R~R", "P[]",
        "(a", "g g", "(q c)", "q x = (x x)", "341 6x5 2", "34152", "identity", "negation", "0:1,1:0",
        "0:1", "0:1,1:0,2:0", "0:1,1:0,0:0", ""]
DEFINITIONS = ["g x = F (x x)", "q x = a ((b x) x)", "d x = (F x)", "bad", "q = x"]
# bounds keep every example to milliseconds: counts and steps of at most 50
INTS = st.integers(-2, 50).map(str) | st.sampled_from(["x", "²", "5x0"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv-fuzz")
    contents = {
        "model.txt": "RR\n~R~R\nP~R~R\n",
        "outside.txt": "RR\nQQ\n",
        "bool.json": '{"elements": ["a", "b"], "z_elements": ["0", "1"], "rows": [["0", "1"], ["1", "0"]]}',
        "tri.json": '{"elements": ["x0"], "z_elements": ["0", "1", "J"], "rows": [["J"]]}',
        "shape.json": '{"rows": 3}',
        "bad.json": '{"elements": [',
        "arcs.txt": "A: B -> C\nB: C -> A\nC: A -> B\n",
        # three loops branch threefold, so a large --max-len ends at the enumeration cap
        "loops.txt": "A: A -> A\nB: A -> A\nC: A -> A\n",
        "pair.cat": "object O\nsharp # : O\ngenerator R : O -> O\ngenerator ~ : O -> O\n",
        "loop.cat": "object O\nsharp # : O\ngenerator u : O -> O\ngenerator v : O -> O\n"
                    "rule u v => v u\nrule v u => u v\n",
    }
    for name, text in contents.items():
        (d / name).write_text(text, encoding="utf-8")
    (d / "binary.bin").write_bytes(b"\xff\xfe\x00bin\n")
    return [str(d / name) for name in [*contents, "binary.bin"]] + [str(d / "missing.txt")]


def values(flag, kwargs, files):
    """Strategy for the argv tokens one argument spec contributes."""
    if kwargs.get("action") == "store_true":
        return st.just([flag])
    if "choices" in kwargs:
        one = st.sampled_from([*kwargs["choices"], "bogus"])
    elif kwargs.get("type") is int:
        one = INTS
    elif kwargs.get("metavar") == "FILE":
        one = st.sampled_from(files)
    elif kwargs.get("action") == "append":
        one = st.sampled_from(DEFINITIONS)
    else:
        one = st.sampled_from(TEXT)
    many = st.lists(one, min_size=1, max_size=3) if kwargs.get("nargs") == "+" else one.map(lambda v: [v])
    return many if flag[0] != "-" else many.map(lambda vs: [flag, *vs])


@st.composite
def argvs(draw, files):
    key = draw(st.sampled_from(sorted(COMMANDS)))
    argv = key.split()
    for flag, kwargs in OUTPUT + COMMANDS[key].args:
        # a positional is left out one time in ten, an option half the time
        if draw(st.integers(0, 9)) > 0 if flag[0] != "-" else draw(st.booleans()):
            argv += draw(values(flag, kwargs, files))
    # one time in ten --trace, which only the rows that build a derivation (and their groups) accept
    if draw(st.integers(0, 9)) == 0:
        argv.append("--trace")
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_argv_exits_cleanly(files, data):
    argv = data.draw(argvs(files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if "--json" in argv:
        envelope = json.loads(out.getvalue())
        assert out.getvalue().count("\n") == 1
        assert envelope["status"] == ("ok" if code == 0 else "error")
        assert err.getvalue() == ""
