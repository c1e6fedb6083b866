"""Workload frontends: typed traffic producers behind one registry.

Importing this package registers every builtin workload (collective,
stencil, nascg, splatt, rounds, dnn); see :mod:`repro.workloads.base`
for the protocol and :func:`lower_workload` for the single validated
lowering path.
"""

from __future__ import annotations

from repro.workloads import (  # noqa: F401  (imported for registration)
    collective as _collective,
    dnn as _dnn,
    nascg as _nascg,
    rounds as _rounds,
    splatt as _splatt,
    stencil as _stencil,
)
from repro.workloads.base import (
    REQUIRED,
    Cell,
    ParamSpec,
    UnknownWorkloadError,
    Workload,
    WorkloadError,
    canonical_params,
    describe_workloads,
    get_workload,
    lower_workload,
    register_workload,
    workload_cell,
    workload_names,
)
from repro.workloads.collective import collective_cells, collective_params

__all__ = [
    "REQUIRED",
    "Cell",
    "ParamSpec",
    "UnknownWorkloadError",
    "Workload",
    "WorkloadError",
    "canonical_params",
    "collective_cells",
    "collective_params",
    "describe_workloads",
    "get_workload",
    "lower_workload",
    "register_workload",
    "workload_cell",
    "workload_names",
]
