"""Slurm-like process launcher substrate.

Models the mapping machinery of Section 3.4: ``--distribution``
block/cyclic/plane policies (:mod:`repro.launcher.slurm`), explicit
``--cpu-bind=map_cpu`` core lists, OpenMPI-style rankfiles
(:mod:`repro.launcher.rankfile`), and the resulting process-to-core
mappings (:mod:`repro.launcher.mapping`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.launcher.mapping": ("ProcessMapping",),
        "repro.launcher.slurm": (
            "SlurmJob",
            "distribution_to_order",
            "expressible_distributions",
            "order_to_distribution",
        ),
        "repro.launcher.rankfile": ("emit_rankfile", "parse_rankfile"),
    },
)
