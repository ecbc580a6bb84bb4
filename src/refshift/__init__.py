"""Categorical pairs, the indicative shift, and four self-reference engines.

Subpackages:

- core: word categories, reference arrows, the shift, and both
  self-reference derivations;
- smullyan: the printing machine whose string ~R~R is true but unprintable;
- godel: a seven-symbol language with decimal coding and a self-refuting
  formula, all run-length encoded;
- lawvere: Cantor/Lawvere diagonal arguments over explicit finite sets;
- fixpoint: a free applicative algebra where every term has a fixed point;
- reflexive: categories from knot and link arc tables;
- runs: the run-length text shared by printed words and formulas;
- cli: the command-line front door.

Importing the package loads no engine: each name in ``__all__`` is read
from its module on first use (PEP 562), so ``refshift.Word`` loads core
and ``from refshift import lawvere`` loads lawvere alone.
"""

__all__ = [
    "BUILTIN_PAIRS",
    "CategoricalPair",
    "Category",
    "Derivation",
    "DerivationStep",
    "DomainError",
    "Generator",
    "RefArrow",
    "RewriteRule",
    "ShiftSequence",
    "Word",
    "category_from_digraph",
    "compose",
    "iterate_shift",
    "load_pair_text",
    "parse_arrow",
    "shift",
    "shift_step",
    "srt1",
    "vertical_compose",
]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = "errors" if name == "DomainError" else "core"
    return getattr(__import__(f"{__name__}.{module}", fromlist=["*"]), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
