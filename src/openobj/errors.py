"""The base class of every error openobj raises for bad input, one intake
rule per input kind (count, seed, real, rotation, array nesting, text or
JSON file), and the field and JSON rules by which records check and load."""

import json
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


def integer(value) -> bool:
    """An integer, a numpy one too, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, least: int, error) -> None:
    """Raise ``error`` unless ``value`` is an integer of at least ``least``."""
    if not integer(value) or value < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")


def check_finite(name: str, value, error) -> None:
    """Raise ``error`` unless ``value`` is a finite real number."""
    if not finite_number(value):
        raise error(f"{name} must be a finite number, got {value!r}")


def check_positive(name: str, value, error) -> None:
    """Raise ``error`` unless ``value`` is a positive finite real number."""
    if not (finite_number(value) and value > 0):
        raise error(f"{name} must be positive and finite, got {value!r}")


def check_fraction(name: str, value, error) -> None:
    """Raise ``error`` unless ``value`` is a real number in the open interval (0, 1)."""
    if not (finite_number(value) and 0 < value < 1):
        raise error(f"{name} must be a number in (0, 1), got {value!r}")


def seeded(seed, error) -> np.random.Generator:
    """The random stream of ``seed``, an integer of at least 0, or raise ``error``."""
    check_count("seed", seed, 0, error)
    return np.random.default_rng(seed)


def as_array(value) -> np.ndarray:
    """``np.asarray(value)``, or the 0-d array of None for a ragged nesting."""
    try:
        return np.asarray(value)
    except ValueError:  # a ragged nesting
        return np.asarray(None)


def read_text(path, error) -> str:
    """The text of the ASCII file at ``path``, or raise ``error``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise error(f"{path}: not an ASCII file") from None


def read_json(path, error):
    """The JSON value in the ASCII file at ``path``, or raise ``error``."""
    text = read_text(path, error)  # outside the try: its error is a ValueError
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"{path}: not a JSON file: {exc}") from None


def finite_array(value, ndims: tuple, error, message: str) -> np.ndarray:
    """``value`` as a finite float64 array of ``ndims`` dimensions, or raise."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # not numbers, or ragged
        raise error(message) from None
    if array.ndim not in ndims or not np.all(np.isfinite(array)):
        raise error(message)
    return array


def check_pose(record, error) -> None:
    """Store the frozen ``record``'s ``rotation`` (9 finite numbers) and
    ``translation`` (3) as float64 arrays of shape (3, 3) and (3,)."""
    for name, shape in (("rotation", (3, 3)), ("translation", (3,))):
        message = f"{name} must hold {math.prod(shape)} finite numbers"
        array = finite_array(getattr(record, name), (1, 2), error, message)
        if array.size != math.prod(shape):
            raise error(message)
        object.__setattr__(record, name, array.reshape(shape))


def check_rotation(matrix, error, name: str) -> np.ndarray:
    """``matrix`` as a finite (3, 3) float64 rotation to 1e-9, or raise ``error``."""
    message = f"{name} must be orthonormal with determinant +1, 3 x 3 and finite"
    rotation = finite_array(matrix, (2,), error, message)
    if (rotation.shape != (3, 3) or np.max(np.abs(rotation.T @ rotation - np.eye(3))) > 1e-9
            or abs(np.linalg.det(rotation) - 1.0) > 1e-9):
        raise error(message)
    return rotation


# annotation -> (test, what a value must be)
_FIELD_RULES = {
    "int": (integer, "an integer"),
    "float": (finite_number, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "bool": (lambda value: isinstance(value, (bool, np.bool_)), "a bool"),
}


def check_fields(record, error) -> None:
    """Raise ``error`` naming the first field of the dataclass ``record``
    that breaks its annotation's rule; a ``T | None`` field may be None. The
    annotations are strings: every module imports ``annotations``."""
    for f in fields(record):
        base = f.type.removesuffix(" | None")
        test, what = _FIELD_RULES.get(base, (None, ""))
        value = getattr(record, f.name)
        if test and not (test(value) or (value is None and base != f.type)):
            raise error(f"{f.name} must be {what}" + (" or none" if base != f.type else ""))


def _plain(value):
    """``value`` as plain JSON: arrays as lists, records by their fields."""
    if isinstance(value, JsonRecord):
        return value.to_json_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class JsonRecord:
    """A dataclass record's JSON form, one key per init field. A load takes
    exactly those keys and builds the record, so it runs a construction's
    checks; a stray ``TypeError`` or ``ValueError`` becomes ``error``."""

    error = OpenobjError

    def to_json_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.init}

    @classmethod
    def from_json_dict(cls, data):
        names = {f.name for f in fields(cls) if f.init}
        if not isinstance(data, dict) or data.keys() != names:
            raise cls.error(f"{cls.__name__} JSON needs exactly the keys {sorted(names)}")
        try:
            return cls(**data)
        except OpenobjError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise cls.error(f"malformed {cls.__name__} JSON: {exc}") from None
