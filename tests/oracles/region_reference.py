"""The memory region's bulk operations as first written: the oracle
for :class:`repro.memory.region.MemoryRegion`.

Production moves bytes with memoryview slice assignments over an
anonymous ``mmap``. This subclass keeps what that replaced — a plain
``bytearray`` backing, ``copy_from`` (and so ``copy_within``, which is
``copy_from(self, …)``) as the semantics-defining read-then-write pair
(one intermediate ``bytes``), ``fill`` as a loop over a fixed-size
page, and ``load_snapshot`` as one copy of the whole image — and
inherits everything else, so the two differ in exactly the code under
test.
``tests/properties/test_region_properties.py`` drives both with random
operation sequences and requires identical bytes, observer streams,
statistics and errors.
"""

from __future__ import annotations

from repro.memory.region import MemoryRegion, WriteCategory

_FILL_PAGE_BYTES = 1 << 16


class ReferenceMemoryRegion(MemoryRegion):
    """A ``bytearray``-backed region with read-then-write copies."""

    __slots__ = ()

    def __init__(self, name: str, size: int):
        super().__init__(name, size)
        self.data = bytearray(size)

    def copy_from(
        self,
        src: MemoryRegion,
        src_offset: int,
        dst_offset: int,
        length: int,
        category: WriteCategory = WriteCategory.UNDO,
    ) -> None:
        self.write(dst_offset, src.read(src_offset, length), category)

    def fill(self, value: int = 0) -> None:
        if not 0 <= value <= 255:
            raise ValueError(f"fill value {value} is not a byte")
        size = self.size
        page = bytes((value,)) * min(size, _FILL_PAGE_BYTES)
        step = len(page)
        whole = size - size % step
        for start in range(0, whole, step):
            self.data[start : start + step] = page
        if whole < size:
            self.data[whole:size] = page[: size - whole]

    def load_snapshot(self, image) -> None:
        if self._crashed:
            self._check_bounds(0, 0)
        image = memoryview(image).cast("B")
        if len(image) != self.size:
            raise ValueError(
                f"image of {len(image)} bytes does not match region "
                f"{self.name!r} of size {self.size}"
            )
        self.data[:] = image
