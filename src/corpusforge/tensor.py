"""Dense weight arrays and their binary container.

File format ("WTSR", little-endian):
  magic "WTSR", u16 version = 1, u8 dtype (0 = f32), u8 ndim,
  ndim x u64 dims, then the payload as f32 row-major.

Round-trips are bit-exact for f32 data.  The container holds an array of any
rank >= 1 with every dim >= 1 and finite values; the rank a weight must have
is checked by its consumer (``NetSpec``, ``inflate``, ``load_net``).
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

from ._lazy import np
from .records import ValidationError, read_exact, write_file

_WTSR_MAGIC = b"WTSR"
_WTSR_VERSION = 1
_WTSR_HEADER = struct.Struct("<4sHBB")


def check_finite(data: np.ndarray, what: str) -> None:
    """Raise unless every value of ``data`` is finite; the error names ``what``."""
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{what} contain non-finite values")


def _check(data: np.ndarray) -> None:
    check_finite(data, "weights")
    if data.ndim < 1 or any(d < 1 for d in data.shape):
        raise ValidationError(f"bad dims {data.shape}")


def save_weights(array: np.ndarray, path: str | Path) -> None:
    data = np.ascontiguousarray(array, dtype=np.float32)
    _check(data)
    header = _WTSR_HEADER.pack(_WTSR_MAGIC, _WTSR_VERSION, 0, data.ndim)
    write_file(path, b"".join((header, struct.pack(f"<{data.ndim}Q", *data.shape), data)))


def load_weights(path: str | Path) -> np.ndarray:
    """The float32 array stored in a WTSR file."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic, version, dtype, ndim = _WTSR_HEADER.unpack(
            read_exact(fh, _WTSR_HEADER.size, path, "header")
        )
        if (magic, version, dtype) != (_WTSR_MAGIC, _WTSR_VERSION, 0):
            raise ValidationError(f"{path}: bad magic {magic!r}, version {version}, dtype {dtype}")
        dims = struct.unpack(f"<{ndim}Q", read_exact(fh, 8 * ndim, path, "header"))
        payload = read_exact(fh, 4 * math.prod(dims), path, "payload")
    try:
        data = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        _check(data)
    except ValueError as exc:  # a ValidationError, or dims numpy cannot shape
        raise ValidationError(f"{path}: {exc}") from exc
    return data
