"""Error types shared across the package, and the key and type check of
configuration blocks."""

import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from numbers import Integral, Real


class GgmError(Exception):
    """Base class for all package errors."""


class InvalidParameter(GgmError, ValueError):
    """A caller-supplied parameter is out of range or inconsistent."""


class GenerationFailed(GgmError, RuntimeError):
    """A randomized generator exhausted its retry budget."""


class NumericFailure(GgmError, RuntimeError):
    """A numeric routine diverged or produced an unusable result."""


class NotPositiveDefinite(NumericFailure):
    """A matrix required to be positive definite is not."""


class SynthesisFailed(GgmError, RuntimeError):
    """Model synthesis could not meet the requested target."""


def _fits(value, hint) -> bool:
    """Whether a value fits a field annotation.  An integer fits a float, a
    list fits a tuple, and a bool fits neither an int nor a float."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        return any(_fits(value, h) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if origin is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(_fits(v, h) for v, h in zip(value, args))
    if hint in (int, float):
        return isinstance(value, Integral if hint is int else Real) and not isinstance(value, bool)
    return isinstance(value, hint)


def check_type(label: str, value, hint) -> None:
    """Raise InvalidParameter naming ``label`` unless ``value`` fits ``hint``."""
    if not _fits(value, hint):
        expected = hint.__name__ if isinstance(hint, type) else str(hint)
        raise InvalidParameter(f"{label} must be {expected}, got {type(value).__name__} {value!r}")


def check_nonnegative_int(label: str, value) -> None:
    """Raise InvalidParameter naming ``label`` unless ``value`` is an integer
    (not a bool) at least 0."""
    check_type(label, value, int)
    if value < 0:
        raise InvalidParameter(f"{label} must be nonnegative, got {value!r}")


@cache
def _field_hints(cls) -> dict:
    return typing.get_type_hints(cls)


def check_fields(config) -> None:
    """Raise InvalidParameter naming the first field of the dataclass
    instance ``config`` whose value does not fit its annotation; the
    configuration blocks call it when they are built."""
    for name, hint in _field_hints(type(config)).items():
        check_type(name, getattr(config, name), hint)


def config_kwargs(cls, data) -> dict:
    """A configuration block as keyword arguments of the dataclass ``cls``;
    a non-object block, unknown key, missing required field or value that
    does not fit the field's annotation raises InvalidParameter naming it,
    with the value as the block holds it, before ``from_dict`` converts any
    (a nested block is checked when it is built)."""
    name = cls.__name__
    if not isinstance(data, dict):
        raise InvalidParameter(f"{name} block must be an object, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    for key in data:
        if key not in known:
            raise InvalidParameter(f"{name} block has unknown key {key!r}; known keys: {', '.join(known)}")
    for key, f in known.items():
        if key not in data and f.default is MISSING and f.default_factory is MISSING:
            raise InvalidParameter(f"{name} block is missing the required key {key!r}")
    hints = _field_hints(cls)
    for key, value in data.items():
        if not is_dataclass(hints[key]):
            check_type(f"{name} block key {key!r}", value, hints[key])
    return dict(data)
