"""Manager/worker executor: wire fidelity, bitwise determinism, and
fault tolerance.

The contract under test is the one the paper's sweeps depend on: moving
evaluation onto workers changes *where* requests run, never what they
produce.  Results, journal records, and cache records from a two-worker
pool must be bitwise identical to a single-process run, and killing a
worker mid-sweep must cost retries, not answers.  The determinism tests
run with remote workers in :class:`TestDistributedDeterminism` and again
with local workers in :class:`TestLocalWorkers` (the ``pool`` fixture in
``conftest.py`` builds either kind).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import socket
import threading

import pytest

from repro.core.hierarchy import Hierarchy
from repro.core.orders import all_orders
from repro.engine import (
    EvalRequest,
    SweepEngine,
    TaskSupervisor,
    request_from_wire,
    request_to_wire,
)
from repro.engine import supervisor as sup_mod
from repro.engine.keys import CACHE_SCHEMA
from repro.engine.supervisor import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    run_worker,
    send_frame,
)
from repro.engine.journal import JOURNAL_NAME
from repro.faults.model import FaultSchedule, FaultSpec
from repro.topology.machines import generic_cluster
from repro.workloads import collective_params, workload_cell

NAMES = ("node", "socket", "core")


def _requests(radices=(2, 2, 4), comm_size=4, models=("round",), sizes=(1e6,)):
    names = NAMES[: len(radices)]
    h = Hierarchy(radices, names=names)
    topo = generic_cluster(radices, names=names)
    return [
        EvalRequest(
            model=model, topology=topo, hierarchy=h, order=order,
            comm_size=comm_size, workload="collective",
            workload_params=collective_params("alltoall", comm_size, nbytes),
        )
        for model in models
        for order in all_orders(h.depth)
        for nbytes in sizes
    ]


class TestWireFormat:
    def test_round_trip_preserves_key_with_schedule_and_extras(self):
        h = Hierarchy((2, 2), names=("node", "core"))
        topo = generic_cluster((2, 2), names=("node", "core"))
        schedule = FaultSchedule(
            (
                FaultSpec(kind="link_degrade", start=0.5, target=1, level=1,
                          end=2.5, bw_factor=0.25, lat_factor=3.0),
                FaultSpec(kind="straggler", start=0.0, target=3, slowdown=2.0),
            )
        )
        request = EvalRequest(
            model="des", topology=topo, hierarchy=h, order=(1, 0),
            comm_size=4, workload="collective",
            workload_params=collective_params("allreduce", 4, 12345.678),
            seed=7, schedule=schedule,
            extras=(("des_all", True), ("nested", (1, (2, 3)))),
        )
        wired = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
        assert wired.key == request.key
        assert wired.extras == request.extras  # tuples restored, hashable
        assert wired.schedule.specs == schedule.specs

    def test_permanent_fault_end_inf_survives_json(self):
        h = Hierarchy((2,), names=("node",))
        topo = generic_cluster((2,), names=("node",))
        request = EvalRequest(
            model="des", topology=topo, hierarchy=h, order=(0,),
            comm_size=2, workload="collective",
            workload_params=collective_params("allgather", 2, 1e6),
            schedule=FaultSchedule(
                (FaultSpec(kind="node_crash", start=1.0, target=0),)
            ),
        )
        wired = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
        assert wired.schedule.specs[0].end == float("inf")
        assert wired.key == request.key

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

wire_configs = st.fixed_dictionaries(
    {
        "model": st.sampled_from(["logp", "round", "des"]),
        "radices": st.sampled_from([(2, 2), (2, 2, 4), (4, 2, 2)]),
        "comm_size": st.sampled_from([2, 4, 8]),
        "seed": st.integers(0, 2**31 - 1),
        "extras": st.sampled_from(
            [(), (("des_all", True),), (("a", 1), ("b", (2.5, "x")))]
        ),
    }
)


#: Raw values per schema kind; canonicalisation coerces them.
PARAM_VALUES = {
    "int": st.integers(0, 64),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=8),
    "bool": st.booleans(),
    "int_tuple": st.lists(st.integers(0, 8), max_size=3),
    "json": st.recursive(
        st.one_of(
            st.integers(-5, 5),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=3),
        ),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=8,
    ),
}


@st.composite
def workload_invocations(draw):
    """Any registered workload with canonical (never lowered) params."""
    from repro.workloads import canonical_params, get_workload, workload_names

    name = draw(st.sampled_from(workload_names()))
    raw = {}
    for spec in get_workload(name).params:
        if spec.required or draw(st.booleans()):
            raw[spec.name] = draw(PARAM_VALUES[spec.kind])
    return name, canonical_params(name, raw)


@settings(max_examples=40, deadline=None)
@given(wire_configs, workload_invocations())
def test_property_wire_round_trip_is_key_preserving(cfg, invocation):
    """Any representable request -- every registered workload, with
    canonical params -- survives manager -> JSON -> worker with its
    content key, and therefore its cache identity, intact."""
    names = NAMES[: len(cfg["radices"])]
    h = Hierarchy(cfg["radices"], names=names)
    topo = generic_cluster(cfg["radices"], names=names)
    order = tuple(range(h.depth))[::-1]
    workload, params = invocation
    request = EvalRequest(
        model=cfg["model"], topology=topo, hierarchy=h, order=order,
        comm_size=cfg["comm_size"], workload=workload, workload_params=params,
        seed=cfg["seed"], extras=cfg["extras"],
    )
    wired = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
    assert wired.key == request.key
    assert wired.workload_params == request.workload_params  # tuples restored
    hash(wired)


#: Frame bodies that are not UTF-8 JSON encoding an object.
MALFORMED_BODIES = [b"[1,2]", b"{nope", b"\xff\xfe"]


class TestFraming:
    def test_send_recv_round_trip(self):
        a, b = socket.socketpair()
        try:
            doc = {"type": "task", "index": 3, "nested": {"x": [1, 2.5, "y"]}}
            send_frame(a, doc)
            assert recv_frame(b) == doc
        finally:
            a.close()
            b.close()

    def test_oversized_frame_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_body_is_a_protocol_error(self, body):
        a, b = socket.socketpair()
        try:
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


@pytest.mark.parametrize("body", MALFORMED_BODIES)
def test_malformed_frame_drops_only_that_worker(body):
    """A worker that says hello and then answers its task with a body
    that is not a JSON object is dropped and its task charged as a
    crash; the task is retried on the honest worker and the run
    finishes."""
    requests = _requests(radices=(2, 2), models=("logp",))
    expected = TaskSupervisor(jobs=1).run(requests)
    with TaskSupervisor(listen=("127.0.0.1", 0), min_workers=2) as sup:
        rogue = socket.create_connection(sup.address)
        send_frame(rogue, {
            "type": "hello", "version": PROTOCOL_VERSION, "schema": CACHE_SCHEMA,
        })

        def answer_badly():
            assert recv_frame(rogue)["type"] == "task"
            rogue.sendall(len(body).to_bytes(4, "big") + body)

        thread = threading.Thread(target=answer_badly)
        thread.start()
        honest = mp.get_context("fork").Process(
            target=run_worker, args=sup.address, daemon=True
        )
        honest.start()
        results = sup.run(requests)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert rogue.recv(1) == b""  # the manager hung up on it
        rogue.close()
    honest.join(timeout=10.0)
    assert honest.exitcode == 0  # still in the pool until shutdown
    assert results == expected
    assert sup.stats.crashes == 1
    assert not sup.stats.degraded_serial


@pytest.mark.slow
class TestDistributedDeterminism:
    JOIN = "remote"

    def test_two_worker_pool_matches_single_process_bitwise(self, tmp_path, pool):
        """Results, journal records, and cache records from a 2-worker
        run are bitwise identical to a jobs=1 in-process run."""
        requests = _requests(models=("logp", "round"))
        dir_a, dir_b = tmp_path / "socket", tmp_path / "serial"

        engine_a = SweepEngine(cache_dir=dir_a)
        with pool(2, policy=engine_a.retry_policy) as disp:
            engine_a.dispatcher = disp
            socket_results = engine_a.evaluate_many(requests)
            assert disp.n_connected >= 1

        engine_b = SweepEngine(cache_dir=dir_b, jobs=1)
        serial_results = engine_b.evaluate_many(requests)

        assert socket_results == serial_results

        # Journal: same records; only arrival order may differ.
        journal_a = sorted((dir_a / JOURNAL_NAME).read_text().splitlines())
        journal_b = sorted((dir_b / JOURNAL_NAME).read_text().splitlines())
        assert journal_a == journal_b
        assert len(journal_a) == len(requests)

        # Cache: every record file exists in both tiers with equal bytes
        # (records live under two-hex-char shard directories).
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.glob("*/*.json"))
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.glob("*/*.json"))
        assert files_a == files_b and files_a
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_worker_killed_mid_sweep_loses_nothing(self, pool):
        """SIGKILL one worker mid-run: the sweep completes with every
        result present exactly once and bitwise equal to a serial run."""
        from repro.engine.supervisor import is_failure

        requests = _requests(models=("round",), sizes=(1e5, 1e6))
        expected = TaskSupervisor(jobs=1).run(requests)

        killed = threading.Event()
        with pool(2) as disp:
            def assassin(index, result):
                if not killed.is_set() and pool.pids(disp):
                    killed.set()
                    os.kill(pool.pids(disp)[0], signal.SIGKILL)

            results = disp.run(requests, on_complete=assassin)
            stats = disp.stats
            connected = disp.n_connected

        assert killed.is_set()
        assert not any(is_failure(r) for r in results)
        assert results == expected  # nothing lost, nothing duplicated
        assert len(results) == len(requests)
        if pool.join == "local":
            # The death was observed as a crash and/or covered by a respawn.
            assert stats.crashes >= 1 or stats.workers_respawned >= 1
        else:
            # A remote worker is not respawned: the death was observed as
            # a crash and/or the worker left the pool.
            assert stats.crashes >= 1 or connected == 1

    def test_one_worker_evaluates_workload_request_bitwise(self, pool):
        """A dnn request evaluated on a remote worker matches the
        in-process result bit for bit, with nothing quarantined."""
        topo = generic_cluster((2, 2, 4), names=NAMES)
        cell = workload_cell(
            "dnn", {"dp": 2, "tp": 2, "pp": 2, "hidden": 32, "seq": 16}
        )
        request = cell.request("round", topo, topo.hierarchy, (2, 1, 0))
        expected = SweepEngine().evaluate(request)
        engine = SweepEngine()
        with pool(1, policy=engine.retry_policy) as disp:
            engine.dispatcher = disp
            (got,) = engine.evaluate_many([request])
            assert disp.n_connected == 1
            assert not disp.stats.degraded_serial  # the worker computed it
        assert engine.stats.quarantined == 0
        assert repr(got) == repr(expected)

    def test_empty_pool_degrades_to_serial(self, pool, monkeypatch):
        """No workers ever join: the run still completes, in-process,
        and says so in its stats."""
        def no_workers(ctx, inherited):
            raise OSError("fork refused")

        # Local: every fork fails; remote: no worker ever connects.
        monkeypatch.setattr(sup_mod, "_spawn_local", no_workers)
        requests = _requests(radices=(2, 2), models=("logp",))
        engine = SweepEngine()
        with pool(2, arrive=False, worker_wait=0.2,
                  policy=engine.retry_policy) as disp:
            engine.dispatcher = disp
            results = engine.evaluate_many(requests)
            assert disp.stats.degraded_serial
        assert results == SweepEngine(jobs=1).evaluate_many(requests)


@pytest.mark.slow
class TestLocalWorkers:
    """The determinism tests above, with forked local workers."""

    JOIN = "local"
    test_two_worker_pool_matches_single_process_bitwise = (
        TestDistributedDeterminism.test_two_worker_pool_matches_single_process_bitwise
    )
    test_worker_killed_mid_sweep_loses_nothing = (
        TestDistributedDeterminism.test_worker_killed_mid_sweep_loses_nothing
    )
    test_empty_pool_degrades_to_serial = (
        TestDistributedDeterminism.test_empty_pool_degrades_to_serial
    )
