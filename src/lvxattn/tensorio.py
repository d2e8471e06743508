"""Dense tensor plumbing: deterministic random generation and the LVXT file format.

Tensors are plain numpy arrays (float32 or float64, 1 to 3 axes). Attention
code uses the layout [heads, rows, cols] with the head axis outermost so that
per-head work stays sliceable. Arrays are treated as immutable once built.

LVXT binary layout (all integers little-endian):

    offset  size        field
    0       4           magic  b"LVXT"
    4       4           version, u32 (currently 1)
    8       1           dtype code, u8 (0 = f32, 1 = f64)
    9       1           ndim, u8
    10      8 * ndim    dims, u64 each
    ...     prod(dims)  payload, little-endian row-major scalars

Random tensors come from Philox, a counter-based 64-bit generator, so the
same (seed, stream) pair yields the same tensor on every platform and worker
i can draw its own stream (seed, i) without coordination.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"LVXT"
FORMAT_VERSION = 1

# dtype code on the wire -> little-endian numpy dtype
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

DTYPE_NAMES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


class LvxtError(ValueError):
    """Base class for LVXT parse/encode failures."""


class BadMagicError(LvxtError):
    pass


class UnknownDtypeError(LvxtError):
    pass


class TruncatedPayloadError(LvxtError):
    pass


def dtype_from_name(name: str) -> np.dtype:
    try:
        return DTYPE_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown dtype name {name!r}, expected one of {sorted(DTYPE_NAMES)}")


def seeded_random_tensor(seed: int, shape, dtype=np.float64, scale: float = 1.0,
                         stream: int = 0) -> np.ndarray:
    """Uniform i.i.d. elements in [-scale, +scale], reproducible from (seed, stream).

    Philox keyed with (seed, stream) makes independent per-worker streams
    derivable without coordination. Draws happen in f64 and are cast to the
    requested dtype, so the f32 tensor is the rounding of the f64 one.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ValueError("empty shape")
    if any(s < 0 for s in shape):
        raise ValueError(f"negative axis in shape {shape}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    dt = np.dtype(dtype)
    if dt not in _CODE_FOR_KIND:
        raise ValueError(f"unsupported dtype {dt}")
    gen = np.random.Generator(np.random.Philox(key=[int(seed) & (2**64 - 1), int(stream)]))
    data = gen.uniform(-scale, scale, size=shape)
    return data.astype(dt, copy=False)


def store_tensor(t: np.ndarray, path) -> None:
    """Write one tensor in LVXT form; round-trips bit-exactly with load_tensor.

    The header is written first and then the array's own buffer, so a
    contiguous little-endian array is written without a copy."""
    t = np.asarray(t)
    if np.dtype(t.dtype) not in _CODE_FOR_KIND:
        raise LvxtError(f"unsupported dtype {t.dtype}")
    if t.ndim < 1 or t.ndim > 3:
        raise LvxtError(f"rank must be 1..3, got {t.ndim}")
    code = _CODE_FOR_KIND[np.dtype(t.dtype)]
    header = MAGIC + struct.pack("<IBB", FORMAT_VERSION, code, t.ndim)
    header += b"".join(struct.pack("<Q", int(d)) for d in t.shape)
    payload = np.ascontiguousarray(t, dtype=_DTYPE_CODES[code])
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.reshape(-1).view(np.uint8))


def load_tensor(path) -> np.ndarray:
    """Read an LVXT file; raises distinct errors for bad magic, unknown dtype,
    and truncated payloads. The payload is read straight into the result."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(10)
        if len(head) < 4 or head[:4] != MAGIC:
            raise BadMagicError(f"bad magic: expected {MAGIC!r}, got {head[:4]!r}")
        if len(head) < 10:
            raise TruncatedPayloadError(f"truncated header: {size} bytes")
        version, code, ndim = struct.unpack_from("<IBB", head, 4)
        if version != FORMAT_VERSION:
            raise LvxtError(f"unsupported version {version}")
        if code not in _DTYPE_CODES:
            raise UnknownDtypeError(f"unknown dtype code {code}")
        if ndim < 1 or ndim > 3:
            raise LvxtError(f"rank must be 1..3, got {ndim}")
        dims_end = 10 + 8 * ndim
        raw_dims = f.read(8 * ndim)
        if len(raw_dims) < 8 * ndim:
            raise TruncatedPayloadError(f"truncated header: {size} bytes, need {dims_end}")
        dims = struct.unpack("<" + "Q" * ndim, raw_dims)
        dt = _DTYPE_CODES[code]
        count = 1
        for d in dims:
            count *= d
        expected = dims_end + count * dt.itemsize
        if size < expected:
            raise TruncatedPayloadError(
                f"truncated payload: have {size - dims_end} bytes, "
                f"expected {expected - dims_end}")
        if size > expected:
            raise LvxtError(f"trailing data: {size - expected} extra bytes")
        out = np.empty(dims, dtype=dt)
        got = f.readinto(out.reshape(-1).view(np.uint8))
        if got != count * dt.itemsize:
            raise TruncatedPayloadError(
                f"truncated payload: have {got} bytes, expected {count * dt.itemsize}")
    # native byte order going forward; a no-op on little-endian hosts
    return out.astype(dt.newbyteorder("="), copy=False)
