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
"""

from .core import (
    BUILTIN_PAIRS,
    CategoricalPair,
    Category,
    Derivation,
    DerivationStep,
    Generator,
    RefArrow,
    RewriteRule,
    ShiftSequence,
    Word,
    category_from_digraph,
    check_interchange,
    compose,
    horizontal_compose,
    indicative_shift,
    is_composable_reference,
    iterate_shift,
    load_pair_text,
    parse_arrow,
    shift,
    shift_step,
    srt1,
    vertical_compose,
)
from .errors import DomainError

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
    "check_interchange",
    "compose",
    "horizontal_compose",
    "indicative_shift",
    "is_composable_reference",
    "iterate_shift",
    "load_pair_text",
    "parse_arrow",
    "shift",
    "shift_step",
    "srt1",
    "vertical_compose",
]
