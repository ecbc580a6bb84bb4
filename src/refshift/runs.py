"""Run-length runs and text: the one format for words, formulas and code numbers.

A run is a (name, count) pair, count >= 1.  merge_runs alone fuses
neighbouring runs and check_runs alone checks runs that must already be
maximal: core.Word builds its runs with merge_runs, and godel's Formula
and GodelNumber with both.  Runs of RLE_MIN or more print as name^N,
shorter ones as the name repeated.  Pieces sit side by side when every
name is one non-digit character ("F#^6", "~P(#|^341752)") and are spaced
tokens otherwise ("#Z a", "a^4 2"), so no digit follows a count.
Functions that reject input take the DomainError subclass to raise.
"""

from __future__ import annotations

import itertools
import operator
import re

RLE_MIN = 4

_DIGITS = "0123456789"
_GLUED = re.compile(r"(.)(\^([0-9]*))?", re.DOTALL)


def runs_of(items) -> tuple:
    """Maximal (item, count) runs of a sequence."""
    return tuple((key, len(list(group))) for key, group in itertools.groupby(items))


def merge_runs(runs, error, same=operator.eq) -> tuple[tuple, int]:
    """Maximal runs, fusing neighbours whose names are same(), and their total length; counts >= 1."""
    out = []
    length = 0
    for name, count in runs:
        if count < 1:
            raise error(f"run count must be >= 1, got {count}")
        length += count
        if out and same(out[-1][0], name):
            out[-1] = (out[-1][0], out[-1][1] + count)
        else:
            out.append((name, count))
    return tuple(out), length


def check_runs(runs, names, error) -> tuple:
    """The runs as a tuple of pairs, already maximal: each name in names, each count >= 1."""
    out = []
    previous = None
    for name, count in runs:
        if name not in names:
            raise error(f"{name!r} is outside the alphabet {' '.join(map(str, names))}")
        if count < 1 or name == previous:
            raise error(f"bad run {name!r}^{count}: counts must be >= 1, adjacent names differ")
        out.append((name, count))
        previous = name
    return tuple(out)


def count_text(n: int) -> str:
    """Decimal text of a count of any size, leaving the process-wide digit limit alone."""
    try:
        return str(n)
    except ValueError:  # over the interpreter's int/str digit limit
        from decimal import Decimal  # about 2 ms to import, so loaded only past the limit
        return str(Decimal(n))


def read_count(digits: str, token: str, error) -> int:
    """The count written as ASCII digits after '^' in token; at least 1."""
    if digits.strip(_DIGITS) or not digits.strip("0"):  # a non-digit, or no count above 0
        raise error(f"bad repetition count in {token!r}")
    try:
        return int(digits)
    except ValueError:  # over the interpreter's int/str digit limit
        from decimal import Decimal  # about 2 ms to import, so loaded only past the limit
        return int(Decimal(digits))


def render(runs) -> str:
    """Text of a run list, spaced once any name is not one non-digit character."""
    sep = ""
    pieces = []
    for name, count in runs:
        if len(name) != 1 or name in _DIGITS:
            sep = " "
        if count >= RLE_MIN:
            pieces.append(f"{name}^{count_text(count)}")
        else:
            pieces.extend([name] * count)
    return sep.join(pieces)


def parse_token(token: str, error) -> tuple:
    """One spaced token, name or name^N, as a run."""
    name, caret, digits = token.partition("^")
    return name, read_count(digits, token, error) if caret else 1


def parse_glued(text: str, error) -> list:
    """Side-by-side single-character names, each optionally ^N, as runs."""
    if "^" not in text:
        return list(runs_of(text))
    return [(name, read_count(digits, text, error) if caret else 1)
            for name, caret, digits in _GLUED.findall(text)]


def parse(text: str, is_name, error) -> list:
    """Runs of spaced tokens, or side-by-side names when a lone token is no known name[^N]."""
    tokens = text.split()
    if len(tokens) == 1:
        name, _, digits = tokens[0].partition("^")
        if not is_name(name) or digits.strip(_DIGITS):
            return parse_glued(tokens[0], error)
    return [parse_token(token, error) for token in tokens]
