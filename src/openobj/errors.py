"""The base class of every error openobj raises for bad input, and the one
field rule by which every parameter record checks itself when built."""

import math
from dataclasses import fields

import numpy as np


class OpenobjError(ValueError):
    """Malformed input or an invalid request: a file, a config value or an
    argument the library cannot work with. The CLI reports these as
    ``error: ...`` and exits 1; anything else is a bug and keeps its
    traceback."""


def finite_number(value) -> bool:
    """A finite real number, never a bool; an integer too large for a float
    is not finite. Concrete types, as the ``numbers`` ABCs are slower."""
    real = (int, float, np.integer, np.floating)
    try:
        return isinstance(value, real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def check_fields(record, error) -> None:
    """Raise ``error`` naming the first field of the dataclass ``record``
    that breaks its annotation: an ``int`` field holds an integer (a numpy
    one too, never a bool), a ``float`` field a finite number and a
    ``float | None`` field one or None. The annotations are strings, as
    every module here imports ``annotations`` from ``__future__``."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
            raise error(f"{f.name} must be an integer")
        if f.type == "float" and not finite_number(value):
            raise error(f"{f.name} must be a finite number")
        if f.type == "float | None" and not (value is None or finite_number(value)):
            raise error(f"{f.name} must be a finite number or none")
