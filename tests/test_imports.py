"""Import budgets: a process loads only the modules its job runs.

Each check runs in a fresh interpreter, since this test process has
long since imported everything.  A replayed sweep answers from the
record log, so neither it nor ``--help`` may load numpy; every lazy
package export still resolves; and forked workers inherit the whole
evaluation stack instead of importing it after the fork.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.bench",
    "repro.collectives",
    "repro.core",
    "repro.engine",
    "repro.ir",
    "repro.launcher",
    "repro.netsim",
    "repro.service",
    "repro.simmpi",
    "repro.topology",
)

SWEEP = [
    "sweep", "--machine", "hydra", "-H", "node:2 socket:2 group:2 core:8",
    "--comm-sizes", "4,16", "--collectives", "alltoall,allreduce",
    "--sizes", "16e3,4e6",
]


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("REPRO_ENGINE_CHAOS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


#: Runs ``repro-mrd ARGS`` and reports the numpy and ``repro`` modules
#: loaded at exit, as one JSON line on stderr.
CLI = """
import json, sys
from repro.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("repro"))
print(json.dumps({"code": code, "modules": loaded}), file=sys.stderr)
"""


def cli_modules(*args: str) -> tuple[str, list[str]]:
    proc = run_python(CLI, *args)
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["code"] in (0, None), proc.stderr
    return proc.stdout, report["modules"]


def test_help_loads_no_numpy():
    out, modules = cli_modules("--help")
    assert "sweep" in out
    assert "numpy" not in modules


def test_warm_sweep_loads_no_numpy(tmp_path):
    cache = str(tmp_path / "cache")
    cold, modules = cli_modules(*SWEEP, "-j", "2", "--cache-dir", cache)
    assert "numpy" in modules  # the cold run evaluated
    bench = tmp_path / "bench.json"
    warm, modules = cli_modules(
        *SWEEP, "-j", "2", "--cache-dir", cache, "--bench-json", str(bench)
    )
    assert warm == cold
    doc = json.loads(bench.read_text())
    assert doc["evaluated"] == 0 and doc["cache_hit_rate"] == 1.0
    assert "numpy" not in modules
    assert not [m for m in modules if m.startswith(("repro.netsim.fabric", "repro.ir.backends"))]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve(package):
    mod = importlib.import_module(package)
    listed = dir(mod)
    for name in mod.__all__:
        namespace: dict = {}
        exec(f"from {package} import {name}", namespace)
        assert namespace[name] is getattr(mod, name)
        assert name in listed
    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        getattr(mod, "not_an_export")
    with pytest.raises(ImportError):
        exec(f"from {package} import not_an_export", {})


def test_lazy_exports_resolve_in_a_fresh_interpreter():
    # First resolution, with nothing imported yet: every export's module
    # really defines it.
    run_python(
        "import importlib, sys\n"
        "for package in sys.argv[1:]:\n"
        "    mod = importlib.import_module(package)\n"
        "    for name in mod.__all__:\n"
        "        getattr(mod, name)\n",
        *LAZY_PACKAGES,
    )


#: The modules DESIGN.md's import layering keeps free of numpy at
#: module level (besides the lazy packages themselves).
NUMPY_FREE = (
    "repro.cli",
    "repro.bench.sweeps",
    "repro.collectives.selector",
    "repro.core.advisor",
    "repro.core.equivalence",
    "repro.core.hierarchy",
    "repro.core.metrics",
    "repro.core.orders",
    "repro.engine.cache",
    "repro.engine.core",
    "repro.engine.evaluators",
    "repro.engine.fidelity",
    "repro.engine.keys",
    "repro.engine.supervisor",
    "repro.ir.registry",
    "repro.netsim.cachestats",
    "repro.topology.machine",
    "repro.topology.machines",
    "repro.workloads",
)


def test_layering_keeps_numpy_out_of_the_pipeline_core():
    run_python(
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "    assert 'numpy' not in sys.modules, name\n",
        *LAZY_PACKAGES,
        *NUMPY_FREE,
    )


def test_rounds_registry_patched_before_first_lookup():
    # A test that patches the registry before anything looked an
    # algorithm up still sees every builtin algorithm beside its own.
    run_python(
        "import sys\n"
        "from repro.collectives import selector\n"
        "assert 'numpy' not in sys.modules\n"
        "selector._REGISTRY[('allgather', 'broken')] = len\n"
        "assert selector.get_algorithm('allgather', 'broken') is len\n"
        "assert ('allgather', 'ring') in selector.list_algorithms()\n"
        "del selector._REGISTRY[('allgather', 'broken')]\n"
        "assert ('allgather', 'broken') not in selector.list_algorithms()\n"
    )


#: Forks a two-worker supervisor whose "probe" evaluator, in the worker,
#: runs a round, logp and des point and then lists the ``repro`` modules
#: the worker imported after its fork (one per line on stdout).
FORKED_WORKER = """
import os, sys
from repro.engine import TaskSupervisor, evaluate_chunk, evaluate_request
from repro.engine.evaluators import EVALUATORS
from repro.topology.machines import hydra
from repro.workloads import collective_cells

AT_FORK = set()
os.register_at_fork(after_in_child=lambda: AT_FORK.update(sys.modules))
topology = hydra(2)
hierarchy = topology.hierarchy
(cell,) = collective_cells([8], ["allgather"], [1e6])

def probe(req):
    points = [cell.request(m, topology, hierarchy, req.order) for m in ("round", "logp")]
    evaluate_chunk(points)
    evaluate_request(cell.request("des", topology, hierarchy, req.order))
    late = sorted(m for m in sys.modules if m.startswith("repro") and m not in AT_FORK)
    return {"late": ",".join(late)}

EVALUATORS["probe"] = probe
orders = [(0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2), (2, 3, 0, 1)]
with TaskSupervisor(jobs=2) as supervisor:
    results = supervisor.run([cell.request("probe", topology, hierarchy, o) for o in orders])
    assert len(supervisor.worker_pids) == 2
for result in results:
    print(result["late"])
"""


def test_forked_workers_import_nothing_after_fork():
    proc = run_python(FORKED_WORKER)
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert all(line == "" for line in lines), lines
