"""Which src/ functions only unit tests reach, checked against a keep list.

    python devtools/reach.py

Runs tier-1 and the benchmark's smoke test in one pytest process under a
sys.setprofile hook, and records, for every function defined in
src/refshift, the test files that were running when it was called.  The
files that stand for real use are the CLI tests, the argv fuzz, the
acceptance gate and the benchmark smoke test (REACHERS); every other test
file is a unit test.  A function that no reacher calls is flagged, whether
unit tests call it or nothing does.

Each flagged function needs one line in devtools/reach_keep.txt, its
dotted name and the reason it stays.  The run fails when the tests fail,
when a flagged function has no line (delete it, or reach it, or give the
reason it stays) and when a line names a function that is no longer
flagged.  Needs Python 3.11 or later (code.co_qualname), pytest and
hypothesis; nothing else.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "refshift"
KEEP = Path(__file__).resolve().parent / "reach_keep.txt"
TESTS = ["tests", "perfbench/test_smoke.py"]
REACHERS = frozenset({
    "tests/test_cli.py",
    "tests/test_cli_fuzz.py",
    "tests/test_acceptance.py",
    "perfbench/test_smoke.py",
})


def defined_functions() -> dict[tuple[str, str], str]:
    """(file, qualname) -> dotted name, for every def in the package.

    Module bodies, lambdas and comprehensions are not functions a caller
    names, so they are left out.
    """
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "refshift" if path.stem == "__init__" else f"refshift.{path.stem}"
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if not code.co_name.startswith("<"):
                names[str(path), code.co_qualname] = f"{module}.{code.co_qualname}"
    return names


class Probe:
    """Per test file, the src/ code objects called while that file was running."""

    def __init__(self, files: set[str]):
        self.files = files
        self.calls: dict[str, set] = {}
        self.running = self.calls.setdefault("", set())  # calls outside any test file

    def enter(self, path) -> None:
        key = Path(path).resolve().relative_to(ROOT).as_posix()
        self.running = self.calls.setdefault(key, set())

    def hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in self.files:
                self.running.add(code)

    # pytest hooks: attribute each test, and each test module's import, to its file

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.enter(item.path)

    @pytest.hookimpl(tryfirst=True)
    def pytest_make_collect_report(self, collector):
        if isinstance(collector, pytest.Module):
            self.enter(collector.path)


def run_tests(probe: Probe) -> int:
    sys.path.insert(0, str(SRC))
    sys.setprofile(probe.hook)
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider", *(str(ROOT / t) for t in TESTS)], plugins=[probe])
    finally:
        sys.setprofile(None)


def flagged(defined: dict[tuple[str, str], str], calls: dict[str, set]) -> dict[str, list[str]]:
    """Dotted name -> the test files that reach it, for each function no reacher reaches."""
    by_file: dict[str, set[str]] = {name: set() for name in defined.values()}
    for test_file, codes in calls.items():
        for code in codes:
            name = defined.get((code.co_filename, code.co_qualname))
            if name is not None:
                by_file[name].add(test_file or "(outside any test)")
    return {name: sorted(files) for name, files in sorted(by_file.items()) if not files & REACHERS}


def read_keep(text: str) -> dict[str, str]:
    """Dotted name -> reason, one per line; blank lines and # comments are skipped."""
    keep = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            raise SystemExit(f"{KEEP.name}:{number}: {name} needs a reason")
        if name in keep:
            raise SystemExit(f"{KEEP.name}:{number}: {name} is listed twice")
        keep[name] = reason.strip()
    return keep


def main() -> int:
    if sys.version_info < (3, 11):
        raise SystemExit("reach.py needs Python 3.11 or later (code.co_qualname)")
    keep = read_keep(KEEP.read_text(encoding="utf-8"))
    defined = defined_functions()
    probe = Probe({path for path, _ in defined})
    status = run_tests(probe)
    if status != 0:
        print(f"reach: the tests failed (pytest exit {status}), so the reach list is incomplete")
        return 1
    flags = flagged(defined, probe.calls)
    unlisted, stale = sorted(set(flags) - set(keep)), sorted(set(keep) - set(flags))
    print(f"\nreach: {len(flags)} of {len(defined)} src/ functions run outside the CLI, "
          "the acceptance gate and the benchmark")
    for name, files in flags.items():
        where = ", ".join(Path(f).name for f in files) or "no test"
        print(f"  {name}  [{where}]  {keep.get(name, 'UNLISTED')}")
    for name in unlisted:
        print(f"reach: {name} is not reached by real use and has no line in {KEEP.name}")
    for name in stale:
        print(f"reach: {KEEP.name} lists {name}, which is not flagged; drop the line")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
