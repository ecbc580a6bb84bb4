"""``Value``, the base of the engines' immutable records, and the second level they share.

Reference arrows, derivations and the indicative ``shift`` live beside ``Value``,
so an engine shifts its own morphisms without loading ``core``'s word categories."""

from operator import attrgetter
from typing import Iterable

# Value.__setattr__ refuses every assignment, so an __init__ stores each field with this, once
setfield = object.__setattr__


class _ValueType(type):
    """Makes the parameters of a class's own ``__init__`` its fields and slots.

    The ``__slots__`` a class declares are private: state derived from the fields.
    """

    def __new__(mcs, name, bases, namespace):
        init = namespace.get("__init__")
        if init is not None:
            namespace["_fields"] = init.__code__.co_varnames[1:init.__code__.co_argcount]
        namespace["__slots__"] = namespace.get("_fields", ()) + tuple(namespace.get("__slots__", ()))
        cls = super().__new__(mcs, name, bases, namespace)
        # the type is part of the key, so values of two types with equal fields hash apart
        cls._key = attrgetter("__class__", *cls._fields)
        return cls


class Value(metaclass=_ValueType):
    """An immutable record, equal to a value of its own type with equal fields.

    The fields are the parameters of ``__init__``, which stores each of them
    under its own name; no code is generated for a value class.  A value
    hashes by its type and fields, prints as ``Name(field=value, ...)``, and
    copies and pickles by calling its class with its fields.  Assigning or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ("_hash",)  # set at the first hash: the fields never change
    _fields = ()

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            setfield(self, "_hash", hash(self._key(self)))
            return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RefArrow(Value):
    """A reference arrow src -> dst between two morphisms of one base category."""

    def __init__(self, src, dst):
        setfield(self, "src", src)
        setfield(self, "dst", dst)

    def __str__(self):
        return f"{self.src} -> {self.dst}"


class DerivationStep(Value):
    def __init__(self, rule: str, arrow: RefArrow, note: str = ""):
        setfield(self, "rule", rule)
        setfield(self, "arrow", arrow)
        setfield(self, "note", note)


class Derivation(Value):
    """An audit trail of reference arrows, one named inference per step."""

    def __init__(self, steps: Iterable[DerivationStep]):
        setfield(self, "steps", tuple(steps))

    @property
    def final(self):
        return self.steps[-1].arrow

    def to_json(self) -> dict:
        return {
            "steps": [
                {
                    "rule": s.rule,
                    "src_word": str(s.arrow.src),
                    "dst_word": str(s.arrow.dst),
                    "note": s.note,
                }
                for s in self.steps
            ]
        }


def shift(compose, sharp, r: RefArrow) -> RefArrow:
    """The indicative shift (a -> b) => (#a -> ba) of a composable reference.

    compose(f, g) is "f after g" and sharp is the # at a's codomain; the
    caller checks that the shift applies.
    """
    return RefArrow(compose(sharp, r.src), compose(r.dst, r.src))


def shift_derivation(axiom: RefArrow, shifted: RefArrow, rule: str) -> Derivation:
    """The two-step derivation: the axiom, then its shift under the named rule."""
    return Derivation((DerivationStep("axiom", axiom), DerivationStep(rule, shifted)))
