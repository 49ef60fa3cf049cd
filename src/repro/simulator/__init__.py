"""Discrete-event machine simulator.

The paper's overhead and scalability numbers (Figures 4-6) come from runs on
Marenostrum III (16 cores/node, up to 64 nodes).  This package provides the
substitute: a discrete-event simulator that replays a task graph against a
machine model with

* per-node cores and *spare cores* for replicas (the paper executes replicas on
  spare cores),
* a shared per-node memory bandwidth (so memory-bound benchmarks such as
  Stream stop scaling, as they do in the paper),
* a replication cost model (input checkpointing, output comparison, recovery
  re-executions),
* an inter-node network for the distributed benchmarks.

Two interchangeable executions of the same model exist:
:func:`~repro.simulator.execution.simulate_graph` is the scalar reference
loop over a task graph, and :func:`~repro.simulator.fastpath.simulate_compiled`
is the fast path over a compiled graph's
:class:`~repro.simulator.fastpath.SimGraphCache` (per-graph replay terms,
chunked fault draws), which produces bit-identical results.  The experiment
cells pick one per cell (their ``fast`` flag).

The fast path runs on one of two bit-identical *backends*, selected via
``$REPRO_SIM_BACKEND`` (see :mod:`repro.simulator.backend`): a self-compiled
C kernel, or the one Python event loop, which computes its replay terms a
task chunk at a time and so also runs out of core.
:func:`~repro.simulator.fastpath.simulate_compiled_batch` replays a whole
batch of fault seeds over shared replay arrays in one kernel invocation.
"""

from repro.simulator.machine import MachineSpec, shared_memory_node, marenostrum_cluster
from repro.simulator.costs import ReplicationCostModel
from repro.simulator.engine import EventQueue
from repro.simulator.execution import (
    SimulatedTaskRecord,
    SimulationConfig,
    SimulationResult,
    simulate_graph,
)
from repro.simulator.fastpath import (
    SimGraphCache,
    simulate_compiled,
    simulate_compiled_batch,
)

__all__ = [
    "EventQueue",
    "MachineSpec",
    "ReplicationCostModel",
    "SimGraphCache",
    "SimulatedTaskRecord",
    "SimulationConfig",
    "SimulationResult",
    "marenostrum_cluster",
    "shared_memory_node",
    "simulate_compiled",
    "simulate_compiled_batch",
    "simulate_graph",
]
