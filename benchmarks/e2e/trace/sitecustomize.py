"""Start the layer tracer in every process of a traced benchmark run.

``run.py --trace 1`` puts this directory first on ``PYTHONPATH`` and sets
``REPRO_BENCH_TRACE`` to the span directory, so the job process, its
forked pipe workers, ``-c``-spawned socket workers and the ``serve``
process all trace.  Without the variable this module does nothing.
"""

import os

if os.environ.get("REPRO_BENCH_TRACE"):
    import e2e_trace

    e2e_trace.activate(os.environ["REPRO_BENCH_TRACE"])
