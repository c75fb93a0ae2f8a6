"""Exception types shared across the package, and the JSON decoder, typed
reader and column reader that raise them for malformed outside input.

The CLI maps these onto process exit codes: ConfigError exits with 2,
DataError with 3. Everything else is a plain bug and propagates.
"""

import dataclasses
import enum
import functools
import json
import sys
import typing

import numpy as np

from .columns import RowColumns


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


def decode_json(doc, where: str, err: type[BevProbeError]):
    """Parse outside JSON from text, strict UTF-8 bytes or a text file; any
    document the decoder rejects raises ``err`` as ``{where}: {reason}``."""
    try:
        if isinstance(doc, bytes):
            doc = doc.decode("utf-8")
        return json.loads(doc if isinstance(doc, str) else doc.read())
    except (ValueError, RecursionError) as exc:
        raise err(f"{where}: {exc}") from exc


def typed(tp, value, path: str, err: type[BevProbeError]):
    """Check one JSON value against a field annotation: lists become tuples,
    frozensets or ``RowColumns`` (by :func:`read_columns`), ``dict[str, T]``
    values are checked as ``T``, strings become enums, and all else passes."""
    origin = typing.get_origin(tp)
    if origin is dict:
        value = typed(dict, value, path, err)
        vt = typing.get_args(tp)[1]
        return {k: typed(vt, v, _at(path, k), err) for k, v in value.items()}
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
    if issubclass(tp, RowColumns):
        return read_columns(tp, value, path, err)
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
    tuple) whose entries are checked in turn, and an enum its exact value.
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


def read_columns(cls, records, path: str, err: type[BevProbeError]):
    """Read a JSON list of records into ``cls``, a ``RowColumns``, one field
    of ``cls._record`` at a time. A record is an object of those fields, the
    ones without a default required. An ``int`` field takes integers within
    64 bits, a ``float`` field finite numbers, and one whose default is None
    also null, read as NaN; true and false are no numbers. Then ``cls``'s
    own rules run. On a fault the list is read again one record at a time,
    to name the first bad one by its key path, such as ``{path}[1].x``."""
    if not isinstance(records, list):
        raise err(f"{path}: expected a list, got {records!r}")
    try:
        return _columns(cls, records, path, err)
    except err:
        for j, record in enumerate(records):
            _columns(cls, [record], f"{path}[{j}]", err)
        raise


def _columns(cls, records: list, path: str, err: type[BevProbeError]):
    """``cls`` of ``records``; a fault's message is worded for ``records[0]``."""
    hints = _type_hints(cls._record)
    if not set(map(type, records)) <= {dict}:
        raise err(f"{path}: expected an object, got {records[0]!r}")
    unknown = set().union(*records).difference(hints)
    if unknown:
        raise err(f"{_at(path, next(k for r in records for k in r if k in unknown))}: unknown key")
    columns = []
    for f in dataclasses.fields(cls._record):
        if f.default is dataclasses.MISSING:
            try:
                values = [r[f.name] for r in records]
            except KeyError:
                raise err(f"{_at(path, f.name)}: required key is missing") from None
        else:
            values = [r.get(f.name, f.default) for r in records]
        kinds = set(map(type, values))
        tp = int if hints[f.name] is int else float
        if tp is int:
            column = values
            ok = kinds <= {int} and (not values or -(2**63) <= min(values) and max(values) < 2**63)
        else:
            ok = kinds <= ({int, float, type(None)} if f.default is None else {int, float})
            if ok and int in kinds:  # checked before the float conversion rounds it
                ok = max(abs(v) for v in values if type(v) is int) <= sys.float_info.max
            if ok:  # a null reads as NaN, and only a null may
                column = np.array(values, dtype=np.float64)
                nulls = values.count(None) if type(None) in kinds else 0
                ok = np.count_nonzero(np.isfinite(column)) == len(values) - nulls
        if not ok:
            want = "a 64-bit integer" if tp is int and type(values[0]) is int else _EXPECTED[tp]
            raise err(f"{_at(path, f.name)}: expected {want}, got {values[0]!r}")
        columns.append(column)
    try:
        return cls(*columns)
    except ValueError as exc:
        raise err(f"{path}: {exc}") from None
