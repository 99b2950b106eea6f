"""Record-array layout helpers.

The benchmarks store their tables as fixed-size record arrays packed
into the database region. :class:`DatabaseLayout` parcels the region
into named :class:`Table` areas; a table knows its record size, its
field offsets, and how to read/update integer fields through a
transaction target (so every access goes through the engine API and is
instrumented like any other transaction work).

A field access is one frame on the way to the target: the table keeps
each field's offset and its ``struct`` codec, and
:meth:`Table.read_field`, :meth:`~Table.write_field` and
:meth:`~Table.add_to_field` check the record index and compute the
field's offset in their own body (``add_to_field`` once, for its read
and its write). An index out of range is a ``ConfigurationError``
before the target is called.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from repro.errors import ConfigurationError

_I64 = struct.Struct("<q")
_I32 = struct.Struct("<i")


class Table:
    """A fixed-record array at a base offset of the database."""

    def __init__(
        self,
        name: str,
        base: int,
        record_bytes: int,
        records: int,
        fields: Dict[str, Tuple[int, int]],
    ):
        if records < 1:
            raise ConfigurationError(f"table {name!r} needs at least one record")
        self.name = name
        self.base = base
        self.record_bytes = record_bytes
        self.records = records
        # Per field, its offset in the record and its codec: 4 or 8
        # bytes, signed little-endian.
        self.fields: Dict[str, Tuple[int, struct.Struct]] = {}
        for field_name, (offset, size) in fields.items():
            if offset + size > record_bytes:
                raise ConfigurationError(
                    f"field {field_name!r} overflows record of table {name!r}"
                )
            self.fields[field_name] = (offset, _I32 if size == 4 else _I64)

    @property
    def size_bytes(self) -> int:
        return self.record_bytes * self.records

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    def record_offset(self, index: int) -> int:
        if index < 0 or index >= self.records:
            raise self._no_record(index)
        return self.base + index * self.record_bytes

    def field_offset(self, index: int, field_name: str) -> int:
        return self.record_offset(index) + self.fields[field_name][0]

    def _no_record(self, index: int) -> ConfigurationError:
        return ConfigurationError(
            f"record {index} out of range for table {self.name!r} "
            f"({self.records} records)"
        )

    # -- instrumented access through a transaction target ---------------

    def read_field(self, target, index: int, field_name: str) -> int:
        offset, codec = self.fields[field_name]
        if index < 0 or index >= self.records:
            raise self._no_record(index)
        offset += self.base + index * self.record_bytes
        return codec.unpack(target.read(offset, codec.size))[0]

    def write_field(self, target, index: int, field_name: str, value: int) -> None:
        offset, codec = self.fields[field_name]
        if index < 0 or index >= self.records:
            raise self._no_record(index)
        offset += self.base + index * self.record_bytes
        target.write(offset, codec.pack(value))

    def add_to_field(self, target, index: int, field_name: str, delta: int) -> int:
        """Read-modify-write of one field; returns the new value."""
        offset, codec = self.fields[field_name]
        if index < 0 or index >= self.records:
            raise self._no_record(index)
        offset += self.base + index * self.record_bytes
        value = codec.unpack(target.read(offset, codec.size))[0] + delta
        target.write(offset, codec.pack(value))
        return value


class DatabaseLayout:
    """Parcels the database region into tables and raw areas."""

    def __init__(self, db_bytes: int):
        self.db_bytes = db_bytes
        self._cursor = 0
        self.tables: Dict[str, Table] = {}
        self.areas: Dict[str, Tuple[int, int]] = {}

    def add_table(
        self,
        name: str,
        record_bytes: int,
        records: int,
        fields: Dict[str, Tuple[int, int]],
    ) -> Table:
        table = Table(name, self._cursor, record_bytes, records, fields)
        if table.end > self.db_bytes:
            raise ConfigurationError(
                f"table {name!r} ({table.size_bytes} bytes at {table.base}) "
                f"does not fit in a {self.db_bytes}-byte database"
            )
        self._cursor = table.end
        self.tables[name] = table
        return table

    def add_area(self, name: str, size_bytes: int) -> Tuple[int, int]:
        """Reserve a raw (base, size) area, e.g. the audit trail."""
        if self._cursor + size_bytes > self.db_bytes:
            raise ConfigurationError(
                f"area {name!r} of {size_bytes} bytes does not fit"
            )
        area = (self._cursor, size_bytes)
        self._cursor += size_bytes
        self.areas[name] = area
        return area
