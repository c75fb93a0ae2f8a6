"""Exception types shared across the package, and the typed reader that
raises them for malformed outside input.

The CLI maps these onto process exit codes: ConfigError exits with 2,
DataError with 3. Everything else is a plain bug and propagates.
"""

import dataclasses
import enum
import functools
import sys
import types
import typing


class BevProbeError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(BevProbeError):
    """Invalid configuration: bad flag combinations, malformed config files."""


class DataError(BevProbeError):
    """Invalid input data: corrupt files, inconsistent dumps, infeasible scenes."""


_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false", dict: "an object"}
# One entry per dataclass read, shared by every caller: treat it as read-only.
_type_hints = functools.cache(typing.get_type_hints)


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def typed(tp, value, path: str, err: type[BevProbeError]):
    """Check one JSON value against a field annotation. Lists become tuples
    or frozensets and strings become enum members; all else passes as is."""
    origin = typing.get_origin(tp)
    if origin is types.UnionType:  # ``T | None``, the only union in use
        return None if value is None else typed(typing.get_args(tp)[0], value, path, err)
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise err(f"{path}: expected a list, got {value!r}")
        args = typing.get_args(tp)
        if origin is frozenset or args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise err(f"{path}: expected {len(args)} entries, got {len(value)}")
        return origin(
            typed(t, v, f"{path}[{i}]", err) for i, (t, v) in enumerate(zip(args, value))
        )
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, path, err)
    if issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            valid = ", ".join(m.value for m in tp)
            raise err(f"{path}: expected one of {valid}, got {value!r}") from None
    # JSON true/false is not a number, though bool subclasses int. A float
    # must be finite, and an int given for one must fit the float range.
    if isinstance(value, bool):
        ok = tp is bool
    elif tp is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, tp)
    if not ok:
        raise err(f"{path}: expected {_EXPECTED[tp]}, got {value!r}")
    return value


def from_json(cls, raw, path: str, err: type[BevProbeError] = ConfigError, **given):
    """Build dataclass ``cls`` from a parsed JSON object.

    Each field not in ``given`` is read from ``raw`` and checked against
    its annotation: ``int`` takes a JSON integer, ``float`` a finite
    number, ``bool`` true or false, ``dict`` and a nested dataclass an
    object, ``tuple`` and ``frozenset`` a list (of fixed length for a fixed
    tuple) whose entries are checked in turn, an enum its exact value, and
    ``T | None`` null or a ``T``.
    Unknown keys, missing required keys and ``cls``'s own range checks (a
    ValueError or OverflowError) all raise ``err`` naming the key path; a
    range check names its key by opening its message with the field name.
    """
    if not isinstance(raw, dict):
        raise err(f"{path or 'config'}: expected an object, got {raw!r}")
    hints = _type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in given}
    for key in raw:
        if key not in fields:
            raise err(f"{_at(path, key)}: unknown key")
    kwargs = dict(given)
    for name, f in fields.items():
        if name in raw:
            kwargs[name] = typed(hints[name], raw[name], _at(path, name), err)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise err(f"{_at(path, name)}: required key is missing")
    try:
        return cls(**kwargs)
    except (ValueError, OverflowError) as exc:
        msg = str(exc)
        sep = "." if msg.split(" ", 1)[0] in fields else ": "
        raise err(f"{path}{sep}{msg}" if path else msg) from exc
