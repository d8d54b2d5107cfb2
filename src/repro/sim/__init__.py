"""Deterministic discrete-event simulation kernel.

A small, from-scratch, SimPy-like kernel: processes are Python generators
that ``yield`` :class:`SimEvent` instances (timeouts, resource requests,
store gets, ``all_of`` conditions) and are resumed when those events trigger.

The kernel is fully deterministic: the event heap is ordered by
``(time, priority, sequence)`` and all randomness must flow through named,
seeded streams obtained from :meth:`Simulator.rng`.
"""

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, SimEvent, Timeout
from repro.sim.process import Process
from repro.sim.resources import PriorityStore, Resource, Store
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "PriorityStore",
    "Process",
    "Resource",
    "SimEvent",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
