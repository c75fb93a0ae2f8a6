"""Runs of dataclass rows held as one read-only numpy array per field."""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter

import numpy as np


class RowColumns(Sequence):
    """A run of rows held as one read-only numpy array per field.

    A subclass lists its fields in ``_fields`` (and ``__slots__``) and sets
    ``_dtypes``, the dtypes :meth:`of` reads rows into, ``_row``, which
    builds one row from Python scalars, and ``_noun``, what its repr counts.
    A subclass read from JSON sets ``_record``, the dataclass of one record.

    Indexing and iteration build rows whose fields are Python scalars; a
    slice or an integer index array stays columnar. Two instances of one
    class are equal when every column holds the same values, NaN equal to
    NaN. Pickling ships the arrays.
    """

    __slots__ = ()
    __hash__ = None
    _fields: tuple[str, ...]
    _dtypes: tuple
    _noun: str

    def __init__(self, *columns, dtypes=None) -> None:
        n = len(columns[0])
        dtypes = dtypes or (None,) * len(columns)
        for name, col, dtype in zip(self._fields, columns, dtypes, strict=True):
            arr = np.asarray(col, dtype=dtype).view()
            if arr.shape != (n,):
                raise ValueError(f"column {name} has shape {arr.shape}, expected ({n},)")
            arr.setflags(write=False)
            setattr(self, name, arr)

    @classmethod
    def of(cls, rows: Sequence):
        """Columns of ``rows``; an instance of this class is returned as is.
        A ``None`` field reads as NaN in a float column."""
        if isinstance(rows, cls):
            return rows
        n = len(rows)
        return cls(*(
            np.fromiter(map(attrgetter(f), rows), dtype, n)
            for f, dtype in zip(cls._fields, cls._dtypes)
        ))

    def rows(self) -> tuple:
        return tuple(map(self._row, *(getattr(self, f).tolist() for f in self._fields)))

    def records(self, keys: Sequence[str] = ()) -> list[dict]:
        """One dict of Python scalars per row, of the fields in ``keys`` (all by default)."""
        keys = keys or self._fields
        return [dict(zip(keys, row)) for row in zip(*(getattr(self, k).tolist() for k in keys))]

    def __len__(self) -> int:
        return len(getattr(self, self._fields[0]))

    def __getitem__(self, index):
        if isinstance(index, slice) or np.ndim(index) == 1:
            return type(self)(*(getattr(self, f)[index] for f in self._fields))
        return self._row(*(getattr(self, f)[index].item() for f in self._fields))

    def __iter__(self):
        return iter(self.rows())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f), equal_nan=True)
            for f in self._fields
        )

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} {self._noun}>)"
