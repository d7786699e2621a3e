"""Bitmask words over GF(2)^n: the public value type, with XOR and printing.

Also the frozen base that the package's value types share.
"""

from __future__ import annotations

__all__ = ["MAX_DIM", "Word"]

from typing import Optional

# The whole-buffer paths pack one word per 32-bit lane of an array('I')
# (see the lane check in sequences.py), and a lift shifts each value left
# for its two-bit tag: 30 bits plus the tag is all that fits in a lane.
MAX_DIM = 30


class _Frozen:
    """Base of the package's immutable value types, over the attribute names in _fields.

    A subclass's fields are its own class annotations, in order, read from
    its __dict__ when the class is made (every module imports annotations
    from __future__, so they are stored there as strings), and a field's
    class-level value, if any, is its default.  __init__ binds positional
    arguments to the fields in order, then keywords, then defaults; a type
    that checks its arguments does so in its own __init__ and passes them
    on.  repr, equality and hash go by the fields in order, as for a frozen
    dataclass: equal only to an instance of the same class, hash the hash
    of the tuple of fields.  Any later assignment or deletion raises
    dataclasses.FrozenInstanceError, and that error path alone imports
    dataclasses: importing it (it brings inspect, ast, dis and tokenize)
    and generating eight classes' methods was about 40% of import time.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        type_name = type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{type_name} has {len(fields)} fields, got {len(args)} positional arguments")
        values = dict(zip(fields, args))
        if kwargs or len(args) < len(fields):  # bind the rest by name or default, in field order
            for name in kwargs:
                if name not in fields:
                    raise TypeError(f"{type_name} has no field {name!r}")
                if name in values:
                    raise TypeError(f"{type_name} got field {name!r} twice")
            values = {**self._defaults, **values, **kwargs}
            for name in fields:
                if name not in values:
                    raise TypeError(f"{type_name} is missing field {name!r}")
            values = {name: values[name] for name in fields}
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _check_int(name: str, value: object, lo: int, hi: Optional[int] = None) -> None:
    """Refuse a value that is not an int in [lo, hi], or at least lo when hi is None.

    A bool is not an int here: TypeError("{name} must be an int, got bool").
    Out of range is ValueError("{name} must be in [lo, hi], got v"), or
    "must be at least lo" without hi.  The exact type is tested first, so
    a plain int, by far the commonest argument, skips the subclass tests.
    """
    if type(value) is not int and (type(value) is bool or not isinstance(value, int)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < lo or hi is not None and value > hi:
        bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bound}, got {value}")


class Word(_Frozen):
    """An n-bit vector stored as an unsigned bitmask.

    Bit j holds coordinate j.  The string form reads most significant bit
    first, so the decimal value of a word equals its 0/1 string read as a
    binary number.
    """

    bits: int
    dim: int

    def __init__(self, bits: int, dim: int):
        _check_int("dim", dim, 1, MAX_DIM)
        _check_int("bits", bits, 0, (1 << dim) - 1)
        super().__init__(bits, dim)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def to_string(self) -> str:
        """0/1 string, most significant bit first."""
        return format(self.bits, f"0{self.dim}b")

    def __str__(self) -> str:
        return self.to_string()

    def __xor__(self, other: "Word") -> "Word":
        """Coordinatewise XOR of two words of the same dimension."""
        if not isinstance(other, Word):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Word(self.bits ^ other.bits, self.dim)
