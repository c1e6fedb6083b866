"""Benchmark harness reproducing the paper's evaluation (Section 4).

- :mod:`repro.bench.microbench` -- the four-step protocol of Section 4.1:
  reorder ``MPI_COMM_WORLD``, carve equal subcommunicators, run a
  collective in the first subcommunicator only, then in all of them
  simultaneously; report collective bandwidth per data size.
- :mod:`repro.bench.figures` -- one data generator per paper figure,
  returning structured series the benchmark files print and check.
- :mod:`repro.bench.report` -- ASCII tables and shape assertions
  ("who wins, by what factor") used by EXPERIMENTS.md.
"""

from repro.bench.microbench import (
    MicrobenchPoint,
    MicrobenchSeries,
    run_microbench,
    size_sweep,
)

__all__ = [
    "MicrobenchPoint",
    "MicrobenchSeries",
    "run_microbench",
    "size_sweep",
]
