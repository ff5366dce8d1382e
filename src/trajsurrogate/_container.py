"""Byte-level helpers shared by the binary dataset and model containers."""

from __future__ import annotations

import struct
from pathlib import Path


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("string too long for container")
    return struct.pack("<H", len(raw)) + raw


class Reader:
    """Sequential reader over a file's bytes with bounds checking.  As a
    context manager it turns a ValueError raised while objects are built
    from the fields (text that is not UTF-8, broken JSON, a value the object
    refuses) into its error, naming the path."""

    def __init__(self, path, error: type):
        self.path = path
        self.buf = Path(path).read_bytes()
        self.pos = 0
        self.error = error

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, ValueError):
            raise self.error(f"{self.path}: {exc}") from exc

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise self.error(f"{self.path}: truncated file")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (n,) = self.unpack("<H")
        return self.take(n).decode("utf-8")

    def expect_end(self) -> None:
        if self.pos != len(self.buf):
            raise self.error(f"{self.path}: {len(self.buf) - self.pos} trailing bytes")
