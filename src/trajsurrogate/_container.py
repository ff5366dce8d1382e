"""The program's file formats.  The binary container of the dataset and
model files: a magic tag and a version, then fields; float64 payloads are
little-endian, C-ordered and finite, on save and on load.  Every CSV file:
lines end in LF, and a float is the shortest text that reads back to the
same double."""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("string too long for container")
    return struct.pack("<H", len(raw)) + raw


def f64(arr: np.ndarray) -> bytes:
    """The payload bytes of an array; a non-finite entry is a ValueError."""
    if not np.isfinite(arr).all():
        raise ValueError("non-finite values")
    return np.asarray(arr, dtype="<f8").tobytes(order="C")


def write(path, magic: bytes, version: int, parts) -> None:
    """Write the header, then the parts' bytes, all at once."""
    Path(path).write_bytes(b"".join([magic, struct.pack("<H", version), *parts]))


class Reader:
    """Sequential reader over a file's bytes with bounds checking, opened
    past a header it has checked.  As a context manager it turns a ValueError
    raised while objects are built from the fields (text that is not UTF-8,
    broken JSON, a value the object refuses) into its error, naming the path."""

    def __init__(self, path, error: type, magic: bytes, version: int, kind: str):
        self.path = path
        self.buf = Path(path).read_bytes()
        self.pos = 0
        self.error = error
        if self.take(len(magic)) != magic:
            raise error(f"{path}: not a {kind} file (bad magic)")
        (found,) = self.unpack("<H")
        if found != version:
            raise error(f"{path}: unsupported version {found}")

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

    def take_f64(self, *shape: int) -> np.ndarray:
        """The next float64 payload of this shape; sizes count in Python ints,
        so a corrupt size is a truncated file, never an overflow."""
        arr = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise self.error(f"{self.path}: non-finite values")
        return arr.copy()

    def expect_end(self) -> None:
        if self.pos != len(self.buf):
            raise self.error(f"{self.path}: {len(self.buf) - self.pos} trailing bytes")


def write_csv(path, header, rows, footer=()) -> None:
    """Write the header row, one line per row, then the footer lines as given.
    A Python int is written with str, every other value with repr(float(v))
    (NumPy 2's repr of a float64 is "np.float64(...)"); lines end in LF on
    every platform."""

    def text(v) -> str:
        return str(v) if isinstance(v, int) else repr(float(v))

    lines = [",".join(header), *(",".join(map(text, row)) for row in rows), *footer]
    Path(path).write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
