"""Task descriptors and data regions.

In Nanos++ a *task descriptor* is the internal structure representing one task
instance: it wraps the task's inputs and outputs plus a pointer to its code.
The replication design of the paper duplicates exactly this structure, so the
reproduction mirrors it closely.

Two pieces of metadata matter for the paper's heuristic:

* the **direction** of every argument (``in`` / ``out`` / ``inout``), which the
  dataflow model already requires the programmer to annotate, and
* the **size in bytes** of every argument, from which per-task failure rates
  are estimated (Section IV-A).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.util.validation import check_non_negative


class Direction(enum.Enum):
    """Dataflow direction of a task argument (OmpSs ``in``/``out``/``inout``)."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"
    #: Plain by-value argument: carries no dependency and no failure-rate weight
    #: beyond its own size.
    VALUE = "value"

    @property
    def reads(self) -> bool:
        """Whether the task reads the argument's previous contents."""
        return self in (Direction.IN, Direction.INOUT, Direction.VALUE)

    @property
    def writes(self) -> bool:
        """Whether the task produces the argument's new contents."""
        return self in (Direction.OUT, Direction.INOUT)


class DataHandle:
    """A named, sized piece of application data managed by the runtime.

    In functional mode the handle owns a NumPy array (``storage``); in
    simulation mode it only carries a size.  Handles are identity-hashable so
    they can key the dependency tracker's readers/writers maps.
    """

    _ids = itertools.count()

    def __init__(
        self,
        name: str,
        size_bytes: float | None = None,
        storage: Optional[np.ndarray] = None,
    ) -> None:
        if storage is None and size_bytes is None:
            raise ValueError("a DataHandle needs either a storage array or a size")
        self.handle_id: int = next(DataHandle._ids)
        self.name = name
        self.storage = storage
        if size_bytes is None:
            size_bytes = float(storage.nbytes)  # type: ignore[union-attr]
        self.size_bytes = check_non_negative(size_bytes, "size_bytes")
        self._whole: Optional[DataRegion] = None

    def region(self, offset: float = 0.0, size_bytes: float | None = None) -> "DataRegion":
        """A region covering ``[offset, offset+size)`` of this handle."""
        if size_bytes is None:
            size_bytes = self.size_bytes - offset
        return DataRegion(self, offset, size_bytes)

    def whole(self) -> "DataRegion":
        """The region covering the entire handle (cached — regions are frozen)."""
        if self._whole is None:
            self._whole = DataRegion(self, 0.0, self.size_bytes)
        return self._whole

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataHandle({self.name!r}, {self.size_bytes:.0f} B)"


@dataclass(frozen=True)
class DataRegion:
    """A byte range of a :class:`DataHandle`, the unit of dependency analysis."""

    handle: DataHandle
    offset: float
    size_bytes: float

    def __post_init__(self) -> None:
        # A plain float >= 0 is valid as is; graph builds create hundreds of
        # thousands of regions, so only other values pay for the full check.
        if type(self.offset) is not float or not self.offset >= 0.0:
            check_non_negative(self.offset, "offset")
        if type(self.size_bytes) is not float or not self.size_bytes >= 0.0:
            check_non_negative(self.size_bytes, "size_bytes")

    @property
    def end(self) -> float:
        """Exclusive end offset of the region."""
        return self.offset + self.size_bytes

    def overlaps(self, other: "DataRegion") -> bool:
        """Whether two regions reference overlapping bytes of the same handle."""
        if self.handle is not other.handle:
            return False
        if self.size_bytes == 0 or other.size_bytes == 0:
            return False
        return self.offset < other.end and other.offset < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataRegion({self.handle.name}, off={self.offset:.0f}, "
            f"size={self.size_bytes:.0f})"
        )


@dataclass
class TaskArgument:
    """One annotated argument of a task."""

    name: str
    direction: Direction
    region: Optional[DataRegion] = None
    value: Any = None
    size_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.region is not None and self.size_bytes == 0.0:
            self.size_bytes = self.region.size_bytes
        if type(self.size_bytes) is not float or not self.size_bytes >= 0.0:
            check_non_negative(self.size_bytes, "size_bytes")

    @property
    def is_dependency_bearing(self) -> bool:
        """Whether the argument participates in dataflow dependency analysis."""
        return self.region is not None and self.direction is not Direction.VALUE


def arg_in(region: DataRegion, name: str = "in") -> TaskArgument:
    """Shorthand for an ``in`` argument over ``region``."""
    return TaskArgument(name=name, direction=Direction.IN, region=region)


def arg_out(region: DataRegion, name: str = "out") -> TaskArgument:
    """Shorthand for an ``out`` argument over ``region``."""
    return TaskArgument(name=name, direction=Direction.OUT, region=region)


def arg_inout(region: DataRegion, name: str = "inout") -> TaskArgument:
    """Shorthand for an ``inout`` argument over ``region``."""
    return TaskArgument(name=name, direction=Direction.INOUT, region=region)


def arg_value(value: Any, name: str = "value", size_bytes: float = 0.0) -> TaskArgument:
    """Shorthand for a by-value argument."""
    return TaskArgument(name=name, direction=Direction.VALUE, value=value, size_bytes=size_bytes)


@dataclass
class TaskDescriptor:
    """An instance of a task, mirroring a Nanos++ task descriptor.

    Attributes
    ----------
    task_id:
        Unique id within a :class:`~repro.runtime.graph.TaskGraph`.
    task_type:
        The task's "code pointer": a label such as ``"gemm"`` or ``"lu0"``.
    args:
        Annotated arguments (directions, regions and sizes).
    func:
        Optional Python callable executed in functional mode.  It receives the
        arguments' backing NumPy arrays (for region-bearing arguments) and the
        plain values (for VALUE arguments) in declaration order.
    duration_s:
        Estimated (or measured) execution time used by the machine simulator.
    node:
        Target node for distributed benchmarks (``None`` means any node).
    replica_of:
        For replica descriptors, the id of the original task.
    metadata:
        Free-form per-task annotations (e.g. benchmark-specific indices).
    """

    task_id: int
    task_type: str
    args: List[TaskArgument] = field(default_factory=list)
    func: Optional[Callable[..., Any]] = None
    duration_s: float = 0.0
    node: Optional[int] = None
    replica_of: Optional[int] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if type(self.duration_s) is not float or not self.duration_s >= 0.0:
            check_non_negative(self.duration_s, "duration_s")

    # -- size accounting (what the heuristic consumes) ----------------------

    @property
    def argument_bytes(self) -> float:
        """Total size of all arguments (the paper's per-task exposure)."""
        return float(sum(a.size_bytes for a in self.args))

    @property
    def input_bytes(self) -> float:
        """Bytes the task reads (``in`` + ``inout`` + values)."""
        return float(sum(a.size_bytes for a in self.args if a.direction.reads))

    @property
    def output_bytes(self) -> float:
        """Bytes the task writes (``out`` + ``inout``)."""
        return float(sum(a.size_bytes for a in self.args if a.direction.writes))

    @property
    def is_replica(self) -> bool:
        """Whether this descriptor is a replica of another task."""
        return self.replica_of is not None

    # -- dependency-bearing argument views ----------------------------------

    def read_regions(self) -> List[DataRegion]:
        """Regions the task reads (for dependency analysis)."""
        return [
            a.region
            for a in self.args
            if a.is_dependency_bearing and a.direction.reads and a.region is not None
        ]

    def write_regions(self) -> List[DataRegion]:
        """Regions the task writes (for dependency analysis)."""
        return [
            a.region
            for a in self.args
            if a.is_dependency_bearing and a.direction.writes and a.region is not None
        ]

    def clone_as_replica(self, new_id: int) -> "TaskDescriptor":
        """Duplicate this descriptor as a replica (paper Figure 2, step 2)."""
        return TaskDescriptor(
            task_id=new_id,
            task_type=self.task_type,
            args=list(self.args),
            func=self.func,
            duration_s=self.duration_s,
            node=self.node,
            replica_of=self.task_id,
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = f" replica_of={self.replica_of}" if self.is_replica else ""
        return f"Task#{self.task_id}({self.task_type}{suffix})"
