"""Tests for repro.runtime.task."""

import numpy as np
import pytest

from repro.runtime.task import (
    DataHandle,
    DataRegion,
    Direction,
    TaskArgument,
    TaskDescriptor,
    arg_in,
    arg_inout,
    arg_out,
    arg_value,
)


class TestDirection:
    def test_in_reads_not_writes(self):
        assert Direction.IN.reads and not Direction.IN.writes

    def test_out_writes_not_reads(self):
        assert Direction.OUT.writes and not Direction.OUT.reads

    def test_inout_reads_and_writes(self):
        assert Direction.INOUT.reads and Direction.INOUT.writes

    def test_value_reads_only(self):
        assert Direction.VALUE.reads and not Direction.VALUE.writes


class TestDataHandle:
    def test_size_from_storage(self):
        h = DataHandle("a", storage=np.zeros(10, dtype=np.float64))
        assert h.size_bytes == 80

    def test_explicit_size(self):
        h = DataHandle("a", size_bytes=4096)
        assert h.size_bytes == 4096
        assert h.storage is None

    def test_requires_size_or_storage(self):
        with pytest.raises(ValueError):
            DataHandle("a")

    def test_unique_ids(self):
        a = DataHandle("a", size_bytes=1)
        b = DataHandle("b", size_bytes=1)
        assert a.handle_id != b.handle_id

    def test_whole_region_covers_handle(self):
        h = DataHandle("a", size_bytes=100)
        r = h.whole()
        assert r.offset == 0 and r.size_bytes == 100

    def test_partial_region(self):
        h = DataHandle("a", size_bytes=100)
        r = h.region(offset=10, size_bytes=20)
        assert r.end == 30

    def test_region_default_size_extends_to_end(self):
        h = DataHandle("a", size_bytes=100)
        assert h.region(offset=40).size_bytes == 60


class TestDataRegion:
    def test_overlap_same_handle(self):
        h = DataHandle("a", size_bytes=100)
        assert h.region(0, 50).overlaps(h.region(25, 50))

    def test_no_overlap_disjoint(self):
        h = DataHandle("a", size_bytes=100)
        assert not h.region(0, 50).overlaps(h.region(50, 50))

    def test_no_overlap_different_handles(self):
        a = DataHandle("a", size_bytes=100)
        b = DataHandle("b", size_bytes=100)
        assert not a.whole().overlaps(b.whole())

    def test_zero_size_never_overlaps(self):
        h = DataHandle("a", size_bytes=100)
        assert not h.region(10, 0).overlaps(h.whole())

    def test_negative_offset_rejected(self):
        h = DataHandle("a", size_bytes=100)
        with pytest.raises(ValueError):
            DataRegion(h, -1, 10)


_CHECKED_FIELDS = {
    "region-offset": ("offset", lambda v: DataRegion(DataHandle("a", size_bytes=8.0), v, 1.0)),
    "region-size": ("size_bytes", lambda v: DataRegion(DataHandle("a", size_bytes=8.0), 0.0, v)),
    "argument-size": ("size_bytes", lambda v: TaskArgument("x", Direction.VALUE, size_bytes=v)),
    "task-duration": ("duration_s", lambda v: TaskDescriptor(0, "t", duration_s=v)),
}


@pytest.mark.parametrize("field", sorted(_CHECKED_FIELDS))
def test_non_float_values_still_take_the_full_check(field):
    # Plain floats >= 0 skip check_non_negative; everything else keeps its
    # errors and messages.
    name, make = _CHECKED_FIELDS[field]
    for bad in (True, "1", None):
        with pytest.raises(TypeError, match=f"^{name} must be a number"):
            make(bad)
    for negative, shown in ((-1.5, "-1.5"), (-2, "-2"), (np.float64(-0.5), "")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {shown}"):
            make(negative)
    for good in (0.0, -0.0, 3, np.float64(2.0), float("inf")):
        make(good)


class TestTaskArgument:
    def test_size_inferred_from_region(self):
        h = DataHandle("a", size_bytes=256)
        arg = TaskArgument("x", Direction.IN, region=h.whole())
        assert arg.size_bytes == 256

    def test_value_argument_not_dependency_bearing(self):
        assert not arg_value(42).is_dependency_bearing

    def test_region_argument_is_dependency_bearing(self):
        h = DataHandle("a", size_bytes=8)
        assert arg_in(h.whole()).is_dependency_bearing

    def test_helpers_set_directions(self):
        h = DataHandle("a", size_bytes=8)
        assert arg_in(h.whole()).direction is Direction.IN
        assert arg_out(h.whole()).direction is Direction.OUT
        assert arg_inout(h.whole()).direction is Direction.INOUT
        assert arg_value(1).direction is Direction.VALUE


class TestTaskDescriptor:
    def _task(self):
        a = DataHandle("a", size_bytes=100)
        b = DataHandle("b", size_bytes=200)
        c = DataHandle("c", size_bytes=400)
        return TaskDescriptor(
            task_id=1,
            task_type="gemm",
            args=[arg_in(a.whole()), arg_in(b.whole()), arg_inout(c.whole())],
            duration_s=2.0,
        )

    def test_argument_bytes_sums_all(self):
        assert self._task().argument_bytes == 700

    def test_input_bytes(self):
        assert self._task().input_bytes == 700  # in + in + inout

    def test_output_bytes(self):
        assert self._task().output_bytes == 400  # only the inout

    def test_read_write_regions(self):
        t = self._task()
        assert len(t.read_regions()) == 3
        assert len(t.write_regions()) == 1

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TaskDescriptor(task_id=0, task_type="x", duration_s=-1.0)

    def test_clone_as_replica(self):
        t = self._task()
        r = t.clone_as_replica(99)
        assert r.is_replica and r.replica_of == t.task_id
        assert r.task_id == 99
        assert r.task_type == t.task_type
        assert r.argument_bytes == t.argument_bytes

    def test_original_is_not_replica(self):
        assert not self._task().is_replica

    def test_value_argument_contributes_size_when_given(self):
        t = TaskDescriptor(
            task_id=0,
            task_type="x",
            args=[TaskArgument("v", Direction.VALUE, value=3, size_bytes=8)],
        )
        assert t.argument_bytes == 8
        assert t.output_bytes == 0
