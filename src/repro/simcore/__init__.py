"""A small deterministic discrete-event simulation engine.

The engine is in the style of SimPy but purpose-built: processes are Python
generators that yield *events* (timeouts, bare events, other processes, or
combinators) and are resumed when those events trigger.  Everything the
reproduction simulates -- disks, NICs, CPU cores, the distributed-futures
runtime, failures -- is built from these primitives.

Determinism: pending entries run in the order they were scheduled at each
simulated time (a sequence number on the heap, arrival order in the
same-time FIFO beside it), and no wall-clock or OS randomness is consulted
anywhere, so a simulation with the same inputs always produces the same
trace.
"""

from repro.simcore.engine import Environment, Process
from repro.simcore.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.simcore.resources import BandwidthResource, Resource

__all__ = [
    "Environment",
    "Process",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Resource",
    "BandwidthResource",
]
