"""Tests of the benchmark itself: metric names and units, and the output checks.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import workloads
from run import ROOT, SPEC, Outputs, child_env, tail

NAMES = [workload["name"] for workload in SPEC["workloads"]]


def run_cli(tmp_path, name: str):
    """Generate a tiny instance of a workload and run its first command once."""
    command = workloads.generate(name, 5, tmp_path, scale=0.01).commands[0]
    result = subprocess.run(
        [sys.executable, "-m", "citemetric.cli", *command.args],
        env=child_env(), capture_output=True, check=True, cwd=ROOT,
    )
    return command, result.stdout, command.output.read_bytes() if command.output else b""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "0.01"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, result.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {metric: value["unit"] for metric, value in last["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in wanted
    }
    assert all(isinstance(value["value"], float) for value in last["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_checks_accept_the_cli_output(tmp_path, name):
    command, stdout, data = run_cli(tmp_path, name)
    assert command.check(stdout, data) == []


def test_table_check_rejects_a_tampered_row(tmp_path):
    command, stdout, table = run_cli(tmp_path, "corpus_table")
    lines = table.decode().splitlines()
    cells = lines[2].split(",")
    cells[7] = str(int(cells[7]) + 1)  # the h column
    lines[2] = ",".join(cells)
    problems = command.check(stdout, ("\n".join(lines) + "\n").encode())
    assert len(problems) == 1 and f"row {cells[0]}: h is" in problems[0]


def test_svg_check_rejects_a_truncated_chart(tmp_path):
    command, stdout, svg = run_cli(tmp_path, "long_curve_plot")
    assert command.check(stdout, svg[: len(svg) // 2])


def test_merge_check_rejects_a_document_out_of_order(tmp_path):
    command, stdout, document = run_cli(tmp_path, "big_author")
    data = json.loads(document)
    data["citations"].reverse()
    assert command.check(stdout, json.dumps(data).encode()) == [
        "merged citations are not the pooled counts, sorted high to low"
    ]


def test_repeats_must_write_the_same_bytes(tmp_path):
    command, stdout, _ = run_cli(tmp_path, "cold_compute")
    outputs = Outputs()
    assert outputs.verify(command, stdout)
    assert not outputs.verify(command, stdout.replace(b"r0:", b"r0: 1"))
    assert not outputs.verify(command, stdout, stderr=b"warning")
    assert outputs.verify(command, stdout)


def test_inputs_follow_the_seed(tmp_path):
    def files(seed, where):
        workloads.generate("corpus_table", seed, tmp_path / where, scale=0.01)
        return {path.name: path.read_bytes() for path in (tmp_path / where / "in").iterdir()}

    assert files(7, "a") == files(7, "b") != files(8, "c")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(100, 0, -1)]) == (90.0, 90.0, 100)
    assert tail([float(i) for i in range(25)]) == (14.0, 60.0, 25)
    assert tail([float(i) for i in range(20)]) == (9.0, 50.0, 20)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def test_traced_command_runs_the_cli_and_restores_the_library(tmp_path):
    import tracer

    command = workloads.generate("big_author", 5, tmp_path, scale=0.01).commands[0]
    originals = [getattr(namespace, attribute) for namespace, attribute, _, _ in tracer.WRAPPED]
    trace, exit_code, stdout, stderr = tracer.traced_command(command.args)
    assert (exit_code, stderr) == (0, b"")
    assert command.check(stdout, command.output.read_bytes()) == []
    assert [getattr(namespace, attribute) for namespace, attribute, _, _ in tracer.WRAPPED] == originals
    names = {name for name, _, _, _ in trace.spans}
    assert {"ingest.read", "ingest.parse", "ingest.decode", "collective.merge", "ingest.write_profile"} <= names
