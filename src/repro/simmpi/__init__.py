"""Simulated MPI.

A cooperative, discrete-event MPI look-alike: every rank is a Python
generator that yields communication/compute *operations*
(:mod:`repro.simmpi.ops`), and the :class:`~repro.simmpi.runtime.Simulator`
advances virtual time using the exact max-min flow model of
:mod:`repro.netsim.flows`.  Messages carry real payloads (NumPy arrays) so
collective algorithms built on top (:mod:`repro.collectives`) are
functionally verifiable, not just timed.

The API mirrors the mpi4py conventions the paper's benchmarks rely on:
communicators with ranks, ``Comm_split(color, key)``,
``Comm_split_type`` over hardware levels, sendrecv, and tags scoped per
communicator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.simmpi.datatypes": ("BYTE", "DOUBLE", "FLOAT", "INT", "Datatype"),
        "repro.simmpi.communicator": ("Comm", "Group"),
        "repro.simmpi.ops": (
            "Compute",
            "Irecv",
            "Isend",
            "Recv",
            "Request",
            "Send",
            "Sendrecv",
            "Wait",
        ),
        "repro.simmpi.errors": ("CommRevokedError", "RankFailedError", "SimTimeout"),
        "repro.simmpi.runtime": ("DeadlockError", "Simulator"),
    },
)
