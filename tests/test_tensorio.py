import struct
import tracemalloc

import numpy as np
import pytest

from lvxattn.tensorio import (BadMagicError, LvxtError, TruncatedPayloadError,
                              UnknownDtypeError, load_tensor, seeded_random_tensor,
                              store_tensor)


def test_same_seed_same_tensor():
    a = seeded_random_tensor(1, (2, 2), np.float64, 1.0)
    b = seeded_random_tensor(1, (2, 2), np.float64, 1.0)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = seeded_random_tensor(1, (4, 4), np.float64, 1.0)
    b = seeded_random_tensor(2, (4, 4), np.float64, 1.0)
    assert not np.array_equal(a, b)


def test_different_streams_differ():
    a = seeded_random_tensor(1, (4, 4), stream=0)
    b = seeded_random_tensor(1, (4, 4), stream=1)
    assert not np.array_equal(a, b)


def test_scale_zero_rejected():
    with pytest.raises(ValueError, match="scale"):
        seeded_random_tensor(1, (2, 2), np.float64, 0.0)


def test_empty_shape_rejected():
    with pytest.raises(ValueError, match="empty shape"):
        seeded_random_tensor(1, (), np.float64, 1.0)
    with pytest.raises(ValueError, match="negative axis"):
        seeded_random_tensor(1, (3, -1), np.float64, 1.0)
    # a zero-length axis is a legal empty draw (a zero-frame video)
    t = seeded_random_tensor(1, (3, 0), np.float32, 1.0)
    assert t.shape == (3, 0) and t.dtype == np.float32


def test_values_within_scale():
    t = seeded_random_tensor(9, (1000,), np.float64, 0.25)
    assert np.all(np.abs(t) <= 0.25)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
def test_roundtrip_bit_exact(tmp_path, dtype, shape):
    t = seeded_random_tensor(42, shape, dtype, 3.0)
    path = tmp_path / "t.lvxt"
    store_tensor(t, path)
    back = load_tensor(path)
    assert back.dtype == t.dtype
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()


def test_file_layout():
    # golden header for a 2x3 f32 tensor
    t = np.arange(6, dtype=np.float32).reshape(2, 3)
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as td:
        path = pathlib.Path(td) / "t.lvxt"
        store_tensor(t, path)
        raw = path.read_bytes()
    assert raw[:4] == b"LVXT"
    version, code, ndim = struct.unpack_from("<IBB", raw, 4)
    assert (version, code, ndim) == (1, 0, 2)
    assert struct.unpack_from("<QQ", raw, 10) == (2, 3)
    assert raw[26:] == t.astype("<f4").tobytes()
    assert len(raw) == 26 + 24


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.lvxt"
    path.write_bytes(b"XXXX" + b"\x00" * 30)
    with pytest.raises(BadMagicError, match="bad magic"):
        load_tensor(path)


def test_truncated_payload(tmp_path):
    # header says 2x3 f32 (24 payload bytes) but only 20 present
    header = b"LVXT" + struct.pack("<IBB", 1, 0, 2) + struct.pack("<QQ", 2, 3)
    path = tmp_path / "trunc.lvxt"
    path.write_bytes(header + b"\x00" * 20)
    with pytest.raises(TruncatedPayloadError, match="expected 24"):
        load_tensor(path)


def test_unknown_dtype(tmp_path):
    header = b"LVXT" + struct.pack("<IBB", 1, 7, 1) + struct.pack("<Q", 1)
    path = tmp_path / "dtype.lvxt"
    path.write_bytes(header + b"\x00" * 8)
    with pytest.raises(UnknownDtypeError, match="unknown dtype"):
        load_tensor(path)


def test_trailing_data_rejected(tmp_path):
    t = np.ones((2,), dtype=np.float64)
    path = tmp_path / "t.lvxt"
    store_tensor(t, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(LvxtError, match="trailing"):
        load_tensor(path)


def test_unsupported_version(tmp_path):
    header = b"LVXT" + struct.pack("<IBB", 2, 0, 1) + struct.pack("<Q", 1)
    path = tmp_path / "v2.lvxt"
    path.write_bytes(header + b"\x00" * 4)
    with pytest.raises(LvxtError, match="version"):
        load_tensor(path)


def test_store_and_load_hold_one_copy(tmp_path):
    t = seeded_random_tensor(7, (4, 1000, 400), np.float32)     # 6.4 MB
    path = tmp_path / "big.lvxt"
    tracemalloc.start()
    try:
        store_tensor(t, path)
        store_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_tensor(path)
        load_peak = tracemalloc.get_traced_memory()[1]     # the result is the one copy
    finally:
        tracemalloc.stop()
    assert back.tobytes() == t.tobytes()
    assert store_peak <= 1.1 * t.nbytes
    assert load_peak <= 1.1 * t.nbytes


def test_empty_axis_roundtrip(tmp_path):
    t = np.zeros((2, 0, 3), dtype=np.float32)
    path = tmp_path / "empty.lvxt"
    store_tensor(t, path)
    assert path.stat().st_size == 10 + 3 * 8
    back = load_tensor(path)
    assert back.shape == (2, 0, 3) and back.dtype == np.float32
