"""Tests for the shared-memory data plane.

The broker must round-trip arrays exactly, address them by content,
and leave no segment behind after ``unlink`` — on clean and failing
paths alike.  The inline fallback is exercised through the
``shm_publish_fail`` fault point in ``tests/test_faults.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import dataplane
from repro.experiments.dataplane import (
    ArrayRef,
    DataPlane,
    SEGMENT_PREFIX,
    active_segments,
    content_key,
    resolve_refs,
)

SHARED_MEMORY = dataplane._shm_module is not None


class TestContentKey:
    def test_identical_content_identical_key(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        assert content_key(a) == content_key(a.copy())

    def test_key_covers_values_shape_and_dtype(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        assert content_key(a) != content_key(a + 1)
        assert content_key(a) != content_key(a.reshape(4, 3))
        assert content_key(a) != content_key(a.astype(np.float32))

    @pytest.mark.parametrize("make", [
        lambda: np.arange(12, dtype=float).reshape(3, 4),
        lambda: np.asfortranarray(np.arange(12, dtype=float).reshape(3, 4)),
        lambda: np.arange(40, dtype=np.int32).reshape(5, 8)[1:4, ::3],
        lambda: np.zeros((0, 3)),
        lambda: np.array([True, False, False, True]).reshape(2, 2),
        lambda: np.array(2.5),
    ], ids=["c_order", "fortran", "sliced", "empty", "bool", "zero_d"])
    def test_digest_is_the_dtype_shape_bytes_hash(self, make):
        """Hashing the buffer in place keeps every digest of the copying
        formula, ``sha256(dtype + shape + tobytes())`` of the C-order
        array."""
        a = make()
        c = np.ascontiguousarray(a)
        old = hashlib.sha256(c.dtype.str.encode() + repr(c.shape).encode()
                             + c.tobytes()).hexdigest()
        assert content_key(a) == old


class TestDataPlane:
    def test_roundtrip_and_readonly(self):
        with DataPlane() as plane:
            a = np.arange(30, dtype=float).reshape(5, 6)
            ref = plane.publish(a)
            out = ref.resolve()
            np.testing.assert_array_equal(out, a)
            assert not out.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                out[0, 0] = 1.0

    def test_publish_is_idempotent_per_key(self):
        with DataPlane() as plane:
            a = np.arange(8.0)
            assert plane.publish(a) is plane.publish(a.copy())
            assert len(plane.segment_names()) <= 1

    def test_ref_is_content_addressed(self):
        with DataPlane() as plane:
            a = np.arange(8.0)
            assert plane.publish(a).key == content_key(a)

    def test_unlink_removes_segments(self):
        plane = DataPlane()
        plane.publish(np.arange(100.0))
        names = plane.segment_names()
        if SHARED_MEMORY:
            assert names and all(n.startswith(SEGMENT_PREFIX) for n in names)
        plane.unlink()
        assert plane.segment_names() == []
        assert not set(names) & set(active_segments())
        # Idempotent, and a dead plane refuses new work.
        plane.unlink()
        with pytest.raises(RuntimeError):
            plane.publish(np.arange(3.0))

    @pytest.mark.skipif(not SHARED_MEMORY, reason="no shared memory")
    def test_unlinked_segment_name_is_gone(self):
        from multiprocessing import shared_memory

        plane = DataPlane()
        ref = plane.publish(np.arange(16.0))
        plane.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.segment)

    def test_empty_array_roundtrip(self):
        with DataPlane() as plane:
            a = np.empty((0, 4))
            np.testing.assert_array_equal(plane.publish(a).resolve(), a)


class TestResolveRefs:
    def test_nested_structures(self):
        with DataPlane() as plane:
            a = np.arange(4.0)
            b = np.arange(6.0).reshape(2, 3)
            obj = {"x": plane.publish(a), "nest": [plane.publish(b), 7],
                   "pair": (plane.publish(a), "s")}
            out = resolve_refs(obj)
            np.testing.assert_array_equal(out["x"], a)
            np.testing.assert_array_equal(out["nest"][0], b)
            assert out["nest"][1] == 7
            assert isinstance(out["pair"], tuple)
            assert out["pair"][1] == "s"

    def test_passthrough(self):
        assert resolve_refs(42) == 42
        assert resolve_refs("abc") == "abc"

    def test_ref_without_segment_or_data_fails(self):
        ref = ArrayRef(key="k", shape=(2,), dtype="<f8")
        with pytest.raises(ValueError, match="neither"):
            ref.resolve()
