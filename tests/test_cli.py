"""Unit tests for the repro-mrd command-line interface."""

import csv
import io

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestOrders:
    def test_lists_all_orders_with_legends(self, capsys):
        rc, out = run_cli(
            capsys, "orders", "-H", "node:2 socket:2 core:4", "--comm-size", "4"
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert any(line.startswith("0-1-2 (9 - ") for line in lines)


class TestReorder:
    def test_single_rank(self, capsys):
        rc, out = run_cli(
            capsys, "reorder", "-H", "[[2,2,4]]", "-o", "0-2-1", "--rank", "10"
        )
        assert rc == 0
        assert "-> 5" in out  # Table 1

    def test_all_ranks(self, capsys):
        rc, out = run_cli(capsys, "reorder", "-H", "[[2,2,4]]", "-o", "2-1-0")
        assert rc == 0
        assert out.strip().splitlines()[10] == "10 -> 10"


class TestRankfile:
    def test_emits_openmpi_format(self, capsys):
        rc, out = run_cli(
            capsys, "rankfile", "-H", "node:2 socket:2 core:4", "-o", "0-2-1"
        )
        assert rc == 0
        assert out.startswith("rank 0=node0 slot=0")
        assert len(out.strip().splitlines()) == 16


class TestMapCpu:
    def test_fig9_example(self, capsys):
        rc, out = run_cli(
            capsys,
            "map-cpu", "-H", "socket:2 numa:4 l3:2 core:8",
            "-o", "2-1-0-3", "-n", "4",
        )
        assert rc == 0
        assert out.strip() == "map_cpu:0,8,16,24"


class TestDistributions:
    def test_marks_inexpressible_orders(self, capsys):
        rc, out = run_cli(capsys, "distributions", "-H", "node:2 socket:2 core:4")
        assert rc == 0
        assert "1-0-2  (mixed-radix only)" in out
        assert "block:block" in out


class TestClasses:
    def test_groups_orders(self, capsys):
        rc, out = run_cli(
            capsys, "classes", "-H", "[[2,2,4]]", "--comm-size", "4"
        )
        assert rc == 0
        assert "equivalence classes" in out
        # Human-readable pair percentages, not the internal integer key.
        assert "pairs=(100.0,0.0,0.0): 2-0-1, 2-1-0" in out


class TestSweep:
    def test_csv_output(self, capsys):
        rc, out = run_cli(
            capsys,
            "sweep", "-H", "[[2,2,4]]",
            "--comm-sizes", "4", "--sizes", "1e6",
            "--orders", "0-1-2,2-1-0", "--jobs", "2",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("machine,order,ring_cost")
        assert len(lines) == 3  # header + 2 orders
        assert lines[1].split(",")[1] == "0-1-2"

    def test_bench_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        rc, out = run_cli(
            capsys,
            "sweep", "-H", "[[2,2,4]]",
            "--comm-sizes", "4", "--sizes", "1e6",
            "--cache-dir", str(tmp_path / "cache"),
            "--bench-json", str(path),
        )
        assert rc == 0
        import json

        doc = json.loads(path.read_text())
        assert doc["requests"] == 6
        assert doc["records"] == 6
        assert doc["pruned_evaluations_saved"] >= 1
        assert "wall_clock_s" in doc and "cache_hit_rate" in doc

    def test_no_prune_audit_mode(self, capsys):
        rc, out = run_cli(
            capsys,
            "sweep", "-H", "[[2,2,4]]",
            "--comm-sizes", "4", "--sizes", "1e6", "--no-prune",
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 7  # header + 6 orders


class TestShow:
    def test_renders_grid(self, capsys):
        rc, out = run_cli(
            capsys,
            "show", "-H", "node:2 socket:2 core:4", "-o", "0-1-2",
            "--comm-size", "4",
        )
        assert rc == 0
        assert "order 0-1-2" in out
        assert "node0/socket0" in out
        assert "0a" in out and "12d" in out


class TestAdvise:
    def test_ranks_orders_on_preset_machine(self, capsys):
        rc, out = run_cli(
            capsys,
            "advise", "-H", "node:4 socket:2 group:2 core:8",
            "--comm-size", "16", "--machine", "hydra",
        )
        assert rc == 0
        assert "advice for alltoall" in out
        assert "worst/best factor" in out

    def test_generic_machine_fallback(self, capsys):
        rc, out = run_cli(
            capsys,
            "advise", "-H", "node:2 socket:2 core:4", "--comm-size", "4",
        )
        assert rc == 0
        assert out.count("\n") >= 3

    def test_hierarchy_preset_mismatch(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "advise", "-H", "node:4 core:8",
                    "--comm-size", "4", "--machine", "hydra",
                ]
            )


class TestBackends:
    def test_list_prints_capability_table(self, capsys):
        rc, out = run_cli(capsys, "backends", "list")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == [
            "backend", "faults", "per-flow", "contention", "tolerance"
        ]
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
        assert set(rows) == {"des", "logp", "round"}
        assert rows["des"] == ["yes", "yes", "exact"]
        assert rows["logp"] == ["no", "no", "advisory"]
        assert rows["round"] == ["no", "no", "exact"]

    def test_sweep_accepts_logp_backend(self, capsys):
        rc, out = run_cli(
            capsys,
            "sweep", "-H", "[[2,2,4]]",
            "--comm-sizes", "4", "--sizes", "1e6",
            "--orders", "0-1-2,2-1-0", "--backend", "logp",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("machine,order,ring_cost")
        assert len(lines) == 3

    def test_advise_accepts_logp_backend(self, capsys):
        rc, out = run_cli(
            capsys,
            "advise", "-H", "node:2 socket:2 core:4", "--comm-size", "4",
            "--backend", "logp",
        )
        assert rc == 0
        assert "advice for alltoall" in out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "-H", "[[2,2,4]]",
                    "--comm-sizes", "4", "--sizes", "1e6", "--backend", "warp",
                ]
            )


class TestWorkloads:
    def test_list_prints_schema_table(self, capsys):
        rc, out = run_cli(capsys, "workloads", "list")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[:2] == ["workload", "parameters"]
        names = [line.split()[0] for line in lines[1:]]
        assert names == [
            "collective", "dnn", "nascg", "rounds", "splatt", "stencil"
        ]
        dnn_row = next(line for line in lines if line.startswith("dnn"))
        assert "dp=1" in dnn_row and "grad_sync='allreduce'" in dnn_row

    def test_sweep_with_dnn_workload(self, capsys):
        rc, out = run_cli(
            capsys,
            "sweep", "-H", "[[2,2,4]]",
            "--workload", "dnn", "--dp", "2", "--tp", "2", "--pp", "2",
            "--hidden", "32", "--seq", "16",
            "--orders", "0-1-2,2-1-0",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("machine,order,ring_cost,workload")
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "dnn"

    def test_sweep_with_generic_params(self, capsys):
        rc, out = run_cli(
            capsys,
            "sweep", "-H", "[[2,2,4]]",
            "--workload", "stencil", "--param", "dims=[4,4]",
            "--orders", "0-1-2",
        )
        assert rc == 0
        assert "stencil(4, 4)" in out

    def test_advise_with_dnn_workload(self, capsys):
        rc, out = run_cli(
            capsys,
            "advise", "-H", "node:2 socket:2 core:4",
            "--workload", "dnn", "--dp", "2", "--tp", "2", "--pp", "2",
            "--hidden", "32", "--seq", "16",
        )
        assert rc == 0
        assert "dnn" in out

    def test_unknown_workload_names_registered_set(self, capsys):
        with pytest.raises(SystemExit, match="unknown workload 'hpcg'") as err:
            main(
                [
                    "sweep", "-H", "[[2,2,4]]",
                    "--workload", "hpcg", "--orders", "0-1-2",
                ]
            )
        assert "registered: collective, dnn" in str(err.value)

    def test_comm_sizes_and_workload_conflict(self):
        with pytest.raises(SystemExit, match="--comm-sizes conflicts"):
            main(
                [
                    "sweep", "-H", "[[2,2,4]]", "--comm-sizes", "4",
                    "--workload", "stencil", "--param", "dims=[4,4]",
                ]
            )

    def test_sweep_refuses_collective_flags_with_workload(self):
        # Each of these used to be silently ignored next to --workload.
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "sweep", "--machine", "generic", "-H", "a:2 b:4",
                    "--workload", "collective",
                    "--param", "collective=alltoall", "--param", "p=8",
                    "--param", "total_bytes=1e6",
                    "--algorithm", "bogus", "--collectives", "nonsense",
                    "--sizes", "5",
                ]
            )
        assert str(err.value) == (
            "workload queries must not name ['--algorithm', '--collectives', "
            "'--sizes']: the lowered workload defines the communicator size "
            "and traffic volume"
        )

    @pytest.mark.parametrize(
        "flags", [["--algorithm", "ring"], ["--collectives", "allgather"],
                  ["--sizes", "1e6"]],
    )
    def test_sweep_refuses_each_collective_flag(self, flags):
        with pytest.raises(SystemExit, match=rf"must not name \['{flags[0]}'\]"):
            main(
                [
                    "sweep", "-H", "[[2,2,4]]",
                    "--workload", "stencil", "--param", "dims=[4,4]", *flags,
                ]
            )

    def test_advise_refuses_collective_with_workload(self):
        with pytest.raises(
            SystemExit, match=r"workload queries must not name \['--collective'\]"
        ):
            main(
                [
                    "advise", "-H", "node:2 socket:2 core:4",
                    "--workload", "dnn", "--dp", "2", "--tp", "2",
                    "--collective", "allgather",
                ]
            )

    def test_collective_defaults_apply_without_flags(self, capsys):
        # Defaults moved out of argparse: an unflagged sweep still runs the
        # alltoall grid at 1e6 and 64e6 bytes.
        rc, out = run_cli(
            capsys, "sweep", "-H", "[[2,2,4]]", "--comm-sizes", "4",
            "--orders", "0-1-2",
        )
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["collective"], float(r["total_bytes"])) for r in rows] == [
            ("alltoall", 1e6), ("alltoall", 64e6)
        ]

    def test_sweep_refuses_duplicate_sizes(self):
        with pytest.raises(
            SystemExit, match=r"duplicate sizes in \[1000000.0, 1000000.0\]"
        ):
            main(
                [
                    "sweep", "-H", "[[2,2,4]]", "--comm-sizes", "4",
                    "--sizes", "1e6,1e6", "--orders", "0-1-2",
                ]
            )

    def test_sweep_requires_sizes_or_workload(self):
        with pytest.raises(SystemExit, match="--comm-sizes is required"):
            main(["sweep", "-H", "[[2,2,4]]"])

    def test_invalid_workload_config_is_one_line(self):
        with pytest.raises(SystemExit, match="invalid dnn configuration"):
            main(
                [
                    "sweep", "-H", "[[2,2,4]]",
                    "--workload", "dnn", "--dp", "2", "--pp", "2",
                    "--layers", "3",
                ]
            )


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_bad_hierarchy_errors():
    with pytest.raises(ValueError):
        main(["orders", "-H", "node:one"])
