"""Error types shared across the package, and the key check of
configuration blocks."""

from dataclasses import MISSING, fields


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


class ConditioningFailure(NumericFailure):
    """A linear system was too ill conditioned to solve reliably."""


class SynthesisFailed(GgmError, RuntimeError):
    """Model synthesis could not meet the requested target."""


def config_kwargs(cls, data, ignore=()) -> dict:
    """A configuration block as keyword arguments of the dataclass ``cls``,
    minus ``ignore``; a non-object block, unknown key or missing required
    field raises InvalidParameter naming it."""
    name = cls.__name__
    if not isinstance(data, dict):
        raise InvalidParameter(f"{name} block must be an object, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    for key in data:
        if key not in known and key not in ignore:
            raise InvalidParameter(f"{name} block has unknown key {key!r}; known keys: {', '.join(known)}")
    for key, f in known.items():
        if key not in data and f.default is MISSING and f.default_factory is MISSING:
            raise InvalidParameter(f"{name} block is missing the required key {key!r}")
    return {k: v for k, v in data.items() if k not in ignore}
