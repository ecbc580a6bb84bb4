"""Run-length runs and text: the one format for words, formulas and code numbers.

A run is a (name, count) pair, count >= 1.  runs_of groups a sequence at C
speed, merge_runs fuses runs and check_runs checks runs that must already
be maximal, each in one step per run.  Runs of RLE_MIN or more print as
name^N, shorter ones as the name repeated.  Pieces sit side by side when
every name is one non-digit character ("F#^6", "~P(#|^341752)") and are
spaced tokens otherwise ("#Z a", "a^4 2"), so no digit follows a count.
Functions that reject input take the DomainError subclass to raise.
"""

from __future__ import annotations

import itertools
import re

RLE_MIN = 4

_DIGITS = "0123456789"
# a run of one name (as many copies as follow, the last maybe ^N), or a lone "^" (never grouped)
_GLUED = re.compile(r"(?:([^^])(\1*)|(\^))(\^([0-9]*))?")


def runs_of(items) -> tuple:
    """Maximal (item, count) runs of a sequence, grouped at C speed: one step per run."""
    return tuple([(key, len(list(group))) for key, group in itertools.groupby(items)])


def merge_runs(runs, error) -> tuple[tuple, int]:
    """Maximal runs, fusing equal neighbours, and their total length; counts >= 1."""
    out = []
    length = 0
    for name, count in runs:
        if count < 1:
            raise error(f"run count must be >= 1, got {count}")
        length += count
        if out and out[-1][0] == name:
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


def parse_tokens(tokens, names, error) -> tuple:
    """Maximal runs of spaced tokens, name or name^N, each name as names[name] once every count is read."""
    runs = []
    for token, copies in runs_of(tokens):
        name, caret, digits = token.partition("^")
        runs.append((name, read_count(digits, token, error) * copies if caret else copies))
    return tuple([(names[name], count) for name, count in merge_runs(runs, error)[0]])


def parse_glued(text: str, error) -> tuple:
    """Side-by-side single-character names, each optionally ^N, as maximal runs, one step per run."""
    if "^" not in text:
        return runs_of(text)
    return merge_runs([(name or hat, len(more) + (read_count(digits, text, error) if caret else 1))
                       for name, more, hat, caret, digits in _GLUED.findall(text)], error)[0]


def parse(text: str, names, error) -> tuple:
    """As parse_tokens, or side-by-side names when a lone token is no name[^N] in names."""
    tokens = text.split()
    if len(tokens) == 1:
        name, _, digits = tokens[0].partition("^")
        if name not in names or digits.strip(_DIGITS):
            return tuple([(names[key], count) for key, count in parse_glued(tokens[0], error)])
    return parse_tokens(tokens, names, error)
