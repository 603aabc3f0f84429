"""Conversions between int bitmaps and numpy bool arrays (LSB = index 0)."""

from ._numpy import np


def to_bool(bits, n):
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


def from_bool(arr):
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")
