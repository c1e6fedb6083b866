"""Engine test helpers: the ``pool`` fixture (one dispatcher, either way
a worker joins) and :func:`swap_evaluator`."""

from __future__ import annotations

import multiprocessing as mp
import time

import pytest

from repro.engine import evaluators
from repro.engine.supervisor import TaskSupervisor, run_worker


def swap_evaluator(monkeypatch, model: str, fn) -> None:
    """Make ``fn`` the evaluator of ``model`` on both registries.

    A worker-less engine scores ``round``/``logp`` through the batch
    registry and every other path through the per-request one, so a fake
    swapped into only one of them would be bypassed.  The batch stand-in
    applies ``fn`` request by request; if it raises, the engine's
    vectorized pass falls back to the supervisor, which calls ``fn``
    per request with retries and quarantine.
    """
    monkeypatch.setitem(evaluators.EVALUATORS, model, fn)
    monkeypatch.setitem(
        evaluators.BATCH_EVALUATORS, model, lambda reqs: [fn(r) for r in reqs]
    )


class Pools:
    """Factory for :class:`TaskSupervisor` pools whose workers join the
    way the test class names in ``JOIN``.

    ``"local"`` forks ``workers`` local workers.  ``"remote"`` listens on
    localhost and forks ``workers + spares`` children that join through
    :func:`run_worker`; being forks of the test process, they see its
    monkeypatched evaluators and chaos settings just as local workers
    do.  ``spares`` stand in for the respawns a local pool makes: a
    remote worker that dies leaves the pool for good.  With
    ``arrive=False`` no remote worker is started.
    """

    def __init__(self, join: str):
        self.join = join
        self.made: list[TaskSupervisor] = []
        self.children: dict[TaskSupervisor, list] = {}

    def __call__(self, workers, policy=None, spares=0, arrive=True, worker_wait=30.0):
        if self.join == "local":
            sup = TaskSupervisor(jobs=workers, policy=policy, worker_wait=worker_wait)
            self.made.append(sup)
            return sup
        n = workers + spares
        sup = TaskSupervisor(
            policy=policy, listen=("127.0.0.1", 0), min_workers=n,
            worker_wait=worker_wait,
        )
        self.made.append(sup)
        ctx = mp.get_context("fork")
        self.children[sup] = []
        for _ in range(n if arrive else 0):
            proc = ctx.Process(target=run_worker, args=sup.address, daemon=True)
            proc.start()
            self.children[sup].append(proc)
        return sup

    def pids(self, sup: TaskSupervisor) -> list[int]:
        """PIDs of the processes serving ``sup``."""
        if self.join == "local":
            return sup.worker_pids
        return [p.pid for p in self.children[sup] if p.is_alive()]

    def close(self) -> None:
        for sup in self.made:
            sup.close()
        deadline = time.monotonic() + 1.0
        for procs in self.children.values():
            for proc in procs:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():  # e.g. still sleeping off a chaos hang
                    proc.kill()
                    proc.join()


@pytest.fixture
def pool(request):
    pools = Pools(getattr(request.cls, "JOIN", "local"))
    yield pools
    pools.close()
