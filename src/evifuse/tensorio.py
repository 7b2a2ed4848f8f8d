"""Binary tensor dump format.

Layout, all little-endian: magic b"EIFT", u32 version=1, u32 rank,
u64 dims[rank], then raw IEEE-754 32-bit values in row-major order.
Round-trips of float32 tensors are bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .tensor import Tensor

MAGIC = b"EIFT"
VERSION = 1
MAX_RANK = 32
MAX_ELEMENTS = 1 << 40


class TensorFormatError(ValueError):
    """Malformed EIFT payload."""


def write_tensor(path, tensor):
    data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    dims = data.shape
    if len(dims) > MAX_RANK:
        raise TensorFormatError(f"rank {len(dims)} exceeds limit {MAX_RANK}")
    payload = np.ascontiguousarray(data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(dims)))
        fh.write(struct.pack(f"<{len(dims)}Q", *dims) if dims else b"")
        fh.write(payload.tobytes())


def read_tensor(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise TensorFormatError(f"{path}: truncated header")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise TensorFormatError(f"{path}: unsupported version {version}")
    if rank > MAX_RANK:
        raise TensorFormatError(f"{path}: rank {rank} exceeds limit {MAX_RANK}")
    offset = 12
    if len(raw) < offset + 8 * rank:
        raise TensorFormatError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{rank}Q", raw, offset) if rank else ()
    offset += 8 * rank
    count = 1
    for d in dims:
        if d == 0:
            raise TensorFormatError(f"{path}: zero extent")
        count *= d
        if count > MAX_ELEMENTS:
            raise TensorFormatError(f"{path}: dim overflow")
    if len(raw) - offset != 4 * count:
        raise TensorFormatError(
            f"{path}: payload holds {(len(raw) - offset) // 4} values, header says {count}"
        )
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(dims)
    finite = np.isfinite(data)
    if not finite.all():
        index = tuple(int(i) for i in np.unravel_index(np.argmin(finite), dims))
        raise TensorFormatError(f"{path}: non-finite value {data[index]} at index {index}")
    return Tensor(data.astype(np.float32))
