"""Linear memory: a contiguous, growable, byte-addressed buffer.

WebAssembly's linear memory never shrinks — the mechanism behind the paper's
memory findings (Tables 4, 6, 8): once ``memory.grow`` has been called the
pages stay committed, whereas the JS engine's GC keeps the JS heap flat.

Backing storage is a sparse page table (64 KiB frames materialised on first
touch), so experiments can commit paper-scale memories — PolyBench
EXTRALARGE arrays reach ~100 MB — while the scaled kernels only touch a
small corner.  All C-level accesses are naturally aligned (the code
generators 8-align every array base), so no access spans a frame boundary.
"""

from __future__ import annotations

import struct

from repro.errors import TrapError

#: The real WebAssembly page size (64 KiB); Cheerp's growth granularity.
WASM_PAGE_SIZE = 65536

_FRAME_BITS = 16
_FRAME_SIZE = 1 << _FRAME_BITS
_FRAME_MASK = _FRAME_SIZE - 1

_PACK_I32 = struct.Struct("<i")
_PACK_U32 = struct.Struct("<I")
_PACK_I64 = struct.Struct("<q")
_PACK_U64 = struct.Struct("<Q")
_PACK_F64 = struct.Struct("<d")

# Pre-bound codec methods: one attribute lookup at import time instead of
# two (`Struct.pack_into` / `Struct.unpack_from`) per memory access.  The
# codegen tier's generated loads and stores bind these directly.
UNPACK_I32 = _PACK_I32.unpack_from
UNPACK_I64 = _PACK_I64.unpack_from
UNPACK_F64 = _PACK_F64.unpack_from
PACK_U32 = _PACK_U32.pack_into
PACK_U64 = _PACK_U64.pack_into
PACK_F64 = _PACK_F64.pack_into


class LinearMemory:
    """A growable linear memory with sparse, lazily materialised frames."""

    def __init__(self, min_pages=1, max_pages=32768, page_size=WASM_PAGE_SIZE):
        if min_pages < 0 or max_pages < min_pages:
            raise ValueError("invalid memory limits")
        self.page_size = page_size
        self.max_pages = max_pages
        self._pages = min_pages
        self._limit = min_pages * page_size
        self._frames = {}
        #: Number of successful ``grow`` operations (a §4.2.2 metric).
        self.grow_count = 0
        #: High-water mark of committed pages.
        self.peak_pages = min_pages

    @property
    def pages(self):
        return self._pages

    @property
    def byte_size(self):
        """Committed size in bytes — what DevTools reports for the
        ``WebAssembly.Memory`` ArrayBuffer."""
        return self._limit

    @property
    def resident_bytes(self):
        """Bytes actually materialised by the simulator (diagnostics)."""
        return len(self._frames) * _FRAME_SIZE

    def grow(self, delta_pages):
        """Grow by ``delta_pages``; returns the old page count, or -1 on
        failure (mirroring ``memory.grow`` semantics)."""
        if delta_pages < 0:
            return -1
        new_pages = self._pages + delta_pages
        if new_pages > self.max_pages:
            return -1
        old = self._pages
        self._pages = new_pages
        self._limit = new_pages * self.page_size
        if new_pages > self.peak_pages:
            self.peak_pages = new_pages
        return old

    def _frame(self, addr, size):
        end = addr + size
        if addr < 0 or end > self._limit:
            raise TrapError(
                f"out-of-bounds memory access at {addr} "
                f"(committed {self._limit} bytes)")
        index = addr >> _FRAME_BITS
        frame = self._frames.get(index)
        if frame is None:
            frame = bytearray(_FRAME_SIZE)
            self._frames[index] = frame
        return frame, addr & _FRAME_MASK

    # Typed accessors. Loads return canonical Python values: i32 as a signed
    # int in [-2^31, 2^31), i64 as signed 64-bit, f64 as float.

    def load_i32(self, addr):
        frame, off = self._frame(addr, 4)
        return UNPACK_I32(frame, off)[0]

    def load_u8(self, addr):
        frame, off = self._frame(addr, 1)
        return frame[off]

    def load_s8(self, addr):
        frame, off = self._frame(addr, 1)
        value = frame[off]
        return value - 256 if value >= 128 else value

    def load_u16(self, addr):
        frame, off = self._frame(addr, 2)
        return frame[off] | (frame[off + 1] << 8)

    def load_i64(self, addr):
        frame, off = self._frame(addr, 8)
        return UNPACK_I64(frame, off)[0]

    def load_f64(self, addr):
        frame, off = self._frame(addr, 8)
        return UNPACK_F64(frame, off)[0]

    def store_i32(self, addr, value):
        frame, off = self._frame(addr, 4)
        PACK_U32(frame, off, value & 0xFFFFFFFF)

    def store_u8(self, addr, value):
        frame, off = self._frame(addr, 1)
        frame[off] = value & 0xFF

    def store_u16(self, addr, value):
        frame, off = self._frame(addr, 2)
        value &= 0xFFFF
        frame[off] = value & 0xFF
        frame[off + 1] = value >> 8

    def store_i64(self, addr, value):
        frame, off = self._frame(addr, 8)
        PACK_U64(frame, off, value & 0xFFFFFFFFFFFFFFFF)

    def store_f64(self, addr, value):
        frame, off = self._frame(addr, 8)
        PACK_F64(frame, off, value)

    def write_bytes(self, addr, data):
        for i in range(0, len(data), _FRAME_SIZE):
            chunk = data[i:i + _FRAME_SIZE]
            pos = addr + i
            # A chunk may straddle two frames.
            frame, off = self._frame(pos, 1)
            room = _FRAME_SIZE - off
            frame[off:off + min(room, len(chunk))] = chunk[:room]
            if len(chunk) > room:
                frame2, off2 = self._frame(pos + room, 1)
                frame2[off2:off2 + len(chunk) - room] = chunk[room:]

    def read_bytes(self, addr, size):
        out = bytearray()
        pos = addr
        remaining = size
        while remaining > 0:
            frame, off = self._frame(pos, 1)
            take = min(_FRAME_SIZE - off, remaining)
            out += frame[off:off + take]
            pos += take
            remaining -= take
        return bytes(out)
