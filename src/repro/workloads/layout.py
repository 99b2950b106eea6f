"""Record-array layout helpers.

The benchmarks store their tables as fixed-size record arrays packed
into the database region. :class:`DatabaseLayout` parcels the region
into named :class:`Table` areas; a table knows its record size, its
field offsets, and how to read/update integer fields through a
transaction target (so every access goes through the engine API and is
instrumented like any other transaction work).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError

_I64 = struct.Struct("<q")
_I32 = struct.Struct("<i")


@dataclass(frozen=True)
class Field:
    """One integer field inside a record."""

    offset: int
    size: int  # 4 or 8 bytes, signed little-endian

    def pack(self, value: int) -> bytes:
        return (_I32 if self.size == 4 else _I64).pack(value)

    def unpack(self, data: bytes) -> int:
        return (_I32 if self.size == 4 else _I64).unpack(data)[0]


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
        self.fields = {
            field_name: Field(offset, size)
            for field_name, (offset, size) in fields.items()
        }
        for field_name, field in self.fields.items():
            if field.offset + field.size > record_bytes:
                raise ConfigurationError(
                    f"field {field_name!r} overflows record of table {name!r}"
                )

    @property
    def size_bytes(self) -> int:
        return self.record_bytes * self.records

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    def record_offset(self, index: int) -> int:
        if index < 0 or index >= self.records:
            raise ConfigurationError(
                f"record {index} out of range for table {self.name!r} "
                f"({self.records} records)"
            )
        return self.base + index * self.record_bytes

    def field_offset(self, index: int, field_name: str) -> int:
        return self.record_offset(index) + self.fields[field_name].offset

    # -- instrumented access through a transaction target ---------------

    def read_field(self, target, index: int, field_name: str) -> int:
        field = self.fields[field_name]
        data = target.read(self.field_offset(index, field_name), field.size)
        return field.unpack(data)

    def write_field(self, target, index: int, field_name: str, value: int) -> None:
        field = self.fields[field_name]
        target.write(self.field_offset(index, field_name), field.pack(value))

    def add_to_field(self, target, index: int, field_name: str, delta: int) -> int:
        """Read-modify-write of one field; returns the new value."""
        value = self.read_field(target, index, field_name) + delta
        self.write_field(target, index, field_name, value)
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
