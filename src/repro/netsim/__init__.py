"""Flow-level network simulation substrate.

Two models of the same tree-shaped fabric, cross-validated in the tests:

- :class:`~repro.netsim.fabric.Fabric` -- the structures of a fast,
  vectorized *synchronized-round* model: a communication round is a batch
  of flows; each flow's rate is its bottleneck fair share (link capacity
  divided by the number of flows traversing the link) and the round lasts
  until the slowest flow finishes.  Collective algorithms are sequences of
  rounds, so a whole collective on 2048 ranks costs a handful of NumPy
  passes.  The ``round`` backend (:mod:`repro.ir.backends`) prices
  programs with it.
- :class:`~repro.netsim.flows.FlowNetwork` -- exact progressive-filling
  max-min fairness over the same links, used by the discrete-event MPI
  runtime (:mod:`repro.simmpi`) where flows start and end asynchronously.

Both derive link structure from a
:class:`~repro.topology.machine.MachineTopology`: one full-duplex up-link
per component per level, so a message crossing level ``j`` occupies the
source-side up-links and destination-side down-links of levels
``j .. depth-1``.
"""

from repro.netsim.engine import EventQueue
from repro.netsim.fabric import Fabric
from repro.netsim.flows import Flow, FlowNetwork

__all__ = [
    "EventQueue",
    "Fabric",
    "Flow",
    "FlowNetwork",
]
