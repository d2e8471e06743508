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

import struct
from pathlib import Path

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
    if any(s <= 0 for s in shape):
        raise ValueError("empty shape: all axes must be positive")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    dt = np.dtype(dtype)
    if dt not in _CODE_FOR_KIND:
        raise ValueError(f"unsupported dtype {dt}")
    gen = np.random.Generator(np.random.Philox(key=[int(seed) & (2**64 - 1), int(stream)]))
    data = gen.uniform(-scale, scale, size=shape)
    return data.astype(dt, copy=False)


def store_tensor(t: np.ndarray, path) -> None:
    """Write one tensor in LVXT form; round-trips bit-exactly with load_tensor."""
    t = np.asarray(t)
    if np.dtype(t.dtype) not in _CODE_FOR_KIND:
        raise LvxtError(f"unsupported dtype {t.dtype}")
    if t.ndim < 1 or t.ndim > 3:
        raise LvxtError(f"rank must be 1..3, got {t.ndim}")
    code = _CODE_FOR_KIND[np.dtype(t.dtype)]
    header = MAGIC + struct.pack("<IBB", FORMAT_VERSION, code, t.ndim)
    header += b"".join(struct.pack("<Q", int(d)) for d in t.shape)
    payload = np.ascontiguousarray(t, dtype=_DTYPE_CODES[code]).tobytes()
    Path(path).write_bytes(header + payload)


def load_tensor(path) -> np.ndarray:
    """Read an LVXT file; raises distinct errors for bad magic, unknown dtype,
    and truncated payloads."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagicError(f"bad magic: expected {MAGIC!r}, got {raw[:4]!r}")
    if len(raw) < 10:
        raise TruncatedPayloadError(f"truncated header: {len(raw)} bytes")
    version, code, ndim = struct.unpack_from("<IBB", raw, 4)
    if version != FORMAT_VERSION:
        raise LvxtError(f"unsupported version {version}")
    if code not in _DTYPE_CODES:
        raise UnknownDtypeError(f"unknown dtype code {code}")
    if ndim < 1 or ndim > 3:
        raise LvxtError(f"rank must be 1..3, got {ndim}")
    dims_end = 10 + 8 * ndim
    if len(raw) < dims_end:
        raise TruncatedPayloadError(f"truncated header: {len(raw)} bytes, need {dims_end}")
    dims = struct.unpack_from("<" + "Q" * ndim, raw, 10)
    dt = _DTYPE_CODES[code]
    count = 1
    for d in dims:
        count *= d
    expected = dims_end + count * dt.itemsize
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"truncated payload: have {len(raw) - dims_end} bytes, expected {expected - dims_end}")
    if len(raw) > expected:
        raise LvxtError(f"trailing data: {len(raw) - expected} extra bytes")
    flat = np.frombuffer(raw, dtype=dt, count=count, offset=dims_end)
    # native byte order going forward; copy so the result is writable/owned
    return flat.astype(dt.newbyteorder("="), copy=True).reshape(dims)
