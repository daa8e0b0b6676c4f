"""Dense weight tensors and their binary container.

File format ("WTSR", little-endian):
  magic "WTSR", u16 version = 1, u8 dtype (0 = f32), u8 ndim,
  ndim x u64 dims, then the payload as f32 row-major.

Round-trips are bit-exact for f32 data.
"""
from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .records import ValidationError, read_exact, write_file

_WTSR_MAGIC = b"WTSR"
_WTSR_VERSION = 1
_WTSR_HEADER = struct.Struct("<4sHBB")


class Layout(enum.Enum):
    CONV2D = "conv2d"  # (out, in, h, w)
    CONV3D = "conv3d"  # (out, in, t, h, w)
    DENSE = "dense"    # (out, in)
    VECTOR = "vector"  # (n,), used for biases


_NDIM_TO_LAYOUT = {1: Layout.VECTOR, 2: Layout.DENSE, 4: Layout.CONV2D, 5: Layout.CONV3D}


@dataclass
class WeightTensor:
    data: np.ndarray
    layout: Layout

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if not np.all(np.isfinite(self.data)):
            raise ValidationError("weight tensor contains non-finite values")
        if _NDIM_TO_LAYOUT.get(self.data.ndim) is not self.layout:
            raise ValidationError(f"{self.layout.value} tensor cannot have shape {self.data.shape}")
        if any(d < 1 for d in self.data.shape):
            raise ValidationError(f"bad dims {self.data.shape}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.data.shape)


def save_weights(tensor: WeightTensor, path: str | Path) -> None:
    data = np.ascontiguousarray(tensor.data, dtype=np.float32)
    header = _WTSR_HEADER.pack(_WTSR_MAGIC, _WTSR_VERSION, 0, data.ndim)
    write_file(path, b"".join((header, struct.pack(f"<{data.ndim}Q", *data.shape), data)))


def load_weights(path: str | Path, layout: Layout | None = None) -> WeightTensor:
    path = Path(path)
    with open(path, "rb") as fh:
        magic, version, dtype, ndim = _WTSR_HEADER.unpack(
            read_exact(fh, _WTSR_HEADER.size, path, "header")
        )
        if (magic, version, dtype) != (_WTSR_MAGIC, _WTSR_VERSION, 0):
            raise ValidationError(f"{path}: bad magic {magic!r}, version {version}, dtype {dtype}")
        dims = struct.unpack(f"<{ndim}Q", read_exact(fh, 8 * ndim, path, "header"))
        payload = read_exact(fh, 4 * math.prod(dims), path, "payload")
    layout = layout or _NDIM_TO_LAYOUT.get(ndim)
    if layout is None:
        raise ValidationError(f"{path}: cannot infer layout for ndim {ndim}")
    try:
        data = np.frombuffer(payload, dtype="<f4").reshape(dims)
        return WeightTensor(data=data.copy(), layout=layout)
    except ValueError as exc:  # a ValidationError, or dims numpy cannot shape
        raise ValidationError(f"{path}: {exc}") from exc
