"""Engine test helpers: the ``pool`` fixture (one dispatcher, either way
a worker joins), :func:`swap_evaluator` and :func:`tear_record`."""

from __future__ import annotations

import multiprocessing as mp
import time
from pathlib import Path

import pytest

from repro.engine import evaluators
from repro.engine.cache import LOG_NAME
from repro.engine.supervisor import TaskSupervisor, run_worker


def swap_evaluator(monkeypatch, model: str, fn) -> None:
    """Make ``fn`` the evaluator of ``model`` on both registries.

    The supervisor scores a chunk of several ``round``/``logp`` requests
    through the batch registry and a chunk of one through the
    per-request one, so a fake swapped into only one of them would be
    bypassed.  The batch stand-in applies ``fn`` request by request; if
    it raises, the chunk splits into chunks of one, which call ``fn``
    with retries and quarantine.
    """
    monkeypatch.setitem(evaluators.EVALUATORS, model, fn)
    monkeypatch.setitem(
        evaluators.BATCH_EVALUATORS, model, lambda reqs: [fn(r) for r in reqs]
    )


def tear_record(cache_dir, key: str, how: str = "truncate") -> str:
    """Corrupt ``key``'s last record in the cache dir's log, in place.

    ``"truncate"`` keeps the first half of the line (a torn write: the
    key still reads, the record does not parse); ``"rot"`` changes one
    hex digit of its checksum (bit rot: the record parses, the checksum
    fails).  Returns the corrupted line.
    """
    log = Path(cache_dir) / LOG_NAME
    lines = log.read_text().splitlines(keepends=True)
    n = max(i for i, line in enumerate(lines) if line.startswith(f'{{"key": "{key}"'))
    line = lines[n]
    if how == "truncate":
        line = line[: len(line) // 2] + "\n"
    else:
        j = line.index('"checksum": "') + len('"checksum": "')
        line = line[:j] + ("0" if line[j] != "0" else "f") + line[j + 1 :]
    lines[n] = line
    log.write_text("".join(lines))
    return line


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
