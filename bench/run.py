#!/usr/bin/env python3
"""Benchmark of the citemetric CLI, end to end and layer by layer.

    python3 bench/run.py --workload corpus_table --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it generates the workload's inputs from the seed and
runs the real CLI (``python -m citemetric.cli`` with ``PYTHONPATH=src``)
as a child process, one command at a time: a closed loop with one
client.  It checks every output and prints the end-to-end metrics.  With
``--trace 1`` it also runs each command in-process through
``citemetric.cli.main``, one span per call into a module, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.  A run record, with the spans of
the last traced command, goes to ``.bench_work/`` at the root of the
checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

SETUP_ROUNDS = 16  # rounds of bare-interpreter, import and reference children
MIN_COMMANDS = 3  # timed commands per run, whatever --seconds says
UNTRACED_SHARE = 0.3  # of --seconds, spent on CLI commands in a traced run
MAX_TRACED = 300  # traced commands kept per run, to bound memory
# A fixed piece of work for a child interpreter that needs nothing from the
# repository.  One runs before and after every timed child, and end-to-end
# times are reported as child time / mean of the two reference times *
# REFERENCE_S: the machines this runs on change speed by 15-20% within
# seconds, and the ratio cancels that drift where raw wall time cannot
# (see README.md).
REFERENCE = (
    "import json, random; rng = random.Random(0); values = [rng.random() for _ in range(60000)]; "
    "json.loads(json.dumps(values)); values.sort()"
)
REFERENCE_S = 0.2  # the reference's median wall time on the 2-core 2.0 GHz Xeon the bounds were set on
PTH_NOTE = (
    "A .pth file in this interpreter's site-packages, outside the repository, imports certifi "
    "at every interpreter start; it is part of cli.interpreter_s and not something src/ can change."
)


@dataclass(frozen=True)
class Child:
    """One finished child process."""

    seconds: float  # spawn to reap, stdout drained
    exit_code: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float  # ru_maxrss from wait4


@dataclass(frozen=True)
class Sample:
    """A timed child and the reference children that ran right before and after it."""

    command: object
    child: Child
    before: Child
    after: Child

    @property
    def reference_s(self) -> float:
        return (self.before.seconds + self.after.seconds) / 2

    @property
    def seconds(self) -> float:
        """The child's wall time at reference speed."""
        return self.child.seconds / self.reference_s * REFERENCE_S


def spawn(argv: list[str], env: dict[str, str], stderr_path: Path) -> Child:
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT)
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    return Child(seconds, proc.returncode, stdout, stderr_path.read_bytes(), usage.ru_maxrss / 1024)


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "CITEMETRIC_FORMAT"}
    env["PYTHONPATH"] = str(SRC)
    return env


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: (value, percentile, n).

    With fewer than twenty samples that percentile would lie below the
    median, so the median stands in for it, reported as percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Outputs:
    """Checks each distinct output once, and every repeat against its bytes."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        self.passed: dict[str, bool] = {}
        self.problems: list[str] = []

    def verify(self, command, stdout: bytes, stderr: bytes = b"", exit_code: int = 0) -> bool:
        if exit_code != 0 or stderr:
            self.note(f"{command.key}: exit {exit_code}, stderr {stderr[:200]!r}")
            return False
        try:
            data = command.output.read_bytes() if command.output else b""
        except OSError as exc:
            self.note(f"{command.key}: no output file: {exc}")
            return False
        digest = hashlib.sha256(stdout + b"\0" + data).hexdigest()
        if command.key not in self.digests:
            problems = command.check(stdout, data)
            for problem in problems:
                self.note(f"{command.key}: {problem}")
            self.digests[command.key] = digest
            self.passed[command.key] = not problems
        elif digest != self.digests[command.key]:
            self.note(f"{command.key}: output bytes differ from the first run of this command")
            return False
        return self.passed[command.key]

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def sha256(self) -> str:
        """SHA-256 of the output bytes, or of 'key digest' lines when commands rotate."""
        if len(self.digests) == 1:
            return next(iter(self.digests.values()))
        lines = "".join(f"{key} {digest}\n" for key, digest in sorted(self.digests.items()))
        return hashlib.sha256(lines.encode()).hexdigest()


class Runner:
    """Runs one workload's CLI commands and probes, counting failures."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.env = child_env()
        self.stderr_path = workdir / "stderr"
        self.outputs = Outputs()
        self.attempted = 0
        self.failed = 0
        self.last_reference: Child | None = None

    def python(self, *args: str) -> Child:
        return spawn([sys.executable, *args], self.env, self.stderr_path)

    def reference(self) -> Child:
        """Run a reference child; it is the 'after' of one sample and the 'before' of the next."""
        child = self.python("-c", REFERENCE)
        if child.exit_code != 0 or child.stderr:
            raise RuntimeError(f"the reference child failed: exit {child.exit_code}, {child.stderr[:200]!r}")
        self.last_reference = child
        return child

    def run(self, command) -> Sample:
        if command.output is not None:
            command.output.unlink(missing_ok=True)
        before = self.last_reference or self.reference()
        child = self.python("-m", "citemetric.cli", *command.args)
        self.attempted += 1
        if not self.outputs.verify(command, child.stdout, child.stderr, child.exit_code):
            self.failed += 1
        return Sample(command, child, before, self.reference())

    def commands(self, seconds: float) -> list[Sample]:
        """One untimed warm-up, then whole rounds of the workload's commands
        until ``seconds`` pass, and at least MIN_COMMANDS."""
        pool = self.workload.commands
        self.run(pool[0])
        timed: list[Sample] = []
        deadline = time.perf_counter() + seconds
        while len(timed) < MIN_COMMANDS or time.perf_counter() < deadline or len(timed) % len(pool):
            timed.append(self.run(pool[len(timed) % len(pool)]))
        return timed

    def setup(self) -> tuple[list[Sample], list[Sample]]:
        """A bare interpreter and one that imports citemetric.cli, each paired with a reference."""
        bare, imported = [], []
        for round_ in range(SETUP_ROUNDS + 1):
            before = self.last_reference or self.reference()
            children = {code: self.python("-c", code) for code in ("pass", "import citemetric.cli")}
            after = self.reference()
            for code, child in children.items():
                self.attempted += 1
                if child.exit_code != 0 or child.stderr:
                    self.failed += 1
                    self.outputs.note(f"python -c {code!r}: exit {child.exit_code}, {child.stderr[:200]!r}")
            if round_ > 0:  # the first round warms the file cache and writes bytecode
                bare.append(Sample(None, children["pass"], before, after))
                imported.append(Sample(None, children["import citemetric.cli"], before, after))
        return bare, imported


def raw_seconds(sample: Sample) -> float:
    return sample.child.seconds


def median(samples: list[Sample], value=lambda sample: sample.seconds) -> float:
    return statistics.median(value(sample) for sample in samples)


def end_to_end(timed: list[Sample], imported: list[Sample]) -> tuple[dict[str, float], dict]:
    """End-to-end metrics at reference speed, and the raw numbers behind them."""
    tail_s, tail_pct, n = tail([sample.seconds for sample in timed])
    wall = median(timed)
    metrics = {
        "setup_s": median(imported),
        "wall_s": wall,
        "profiles_per_s": median(timed, lambda sample: sample.command.profiles) / wall,
        "works_per_s": median(timed, lambda sample: sample.command.works) / wall,
        "latency_p50_ms": 1000.0 * wall,
        "latency_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": median(timed, lambda sample: sample.child.peak_rss_mb),
    }
    raw = [sample.child.seconds for sample in timed]
    details = {
        "latency_tail_percentile": tail_pct,
        "samples": {name: (len(imported) if name == "setup_s" else n) for name in metrics},
        "raw_wall_s": statistics.median(raw),
        "raw_wall_s_quartiles": statistics.quantiles(raw, n=4) if n > 1 else raw * 3,
        "raw_setup_s": median(imported, raw_seconds),
        "reference_s": median(timed, lambda sample: sample.reference_s),
        "raw_samples": [[sample.child.seconds, sample.before.seconds, sample.after.seconds] for sample in timed],
        "raw_setup_samples": [[sample.child.seconds, sample.before.seconds, sample.after.seconds] for sample in imported],
    }
    return metrics, details


# Spans under the command's root whose self time is reported as <span>_s.
# ingest.parse is reported as ingest.validate_s: its self time is the parse
# minus its ingest.decode child.  With the root's own self time,
# trace.glue_s, they split trace.total_s exactly.
LAYER_SPANS = (
    "cli.emit", "ingest.scan", "ingest.read", "ingest.decode", "ingest.table", "ingest.write_profile",
    "profile.build", "indices.report", "collective.merge", "render.spec", "render.svg",
)
COUNTERS = (
    "ingest.files", "ingest.bytes_in", "ingest.bytes_out", "profile.works", "indices.reports",
    "collective.works_pooled", "render.svg_bytes", "render.vertices",
)


def layer_values(trace) -> dict[str, float]:
    """Per-layer numbers of one traced command: self times in s, and counts."""
    import tracer

    command = trace.self_times(tracer.COMMAND)
    unknown = set(command) - set(LAYER_SPANS) - {"ingest.parse", tracer.COMMAND}
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    single = trace.self_times(tracer.SINGLE_INDEX_PASS)
    values = {f"{name}_s": command.get(name, 0) / 1e9 for name in LAYER_SPANS}
    values["ingest.validate_s"] = command.get("ingest.parse", 0) / 1e9
    values.update({f"{name}_s": single.get(name, 0) / 1e9 for name, _, _ in tracer.SINGLE_INDEX})
    values.update({name: float(trace.counts.get(name, 0)) for name in COUNTERS})
    files = trace.counts.get("ingest.files", 0)
    values["ingest.parsed_ratio"] = trace.counts.get("ingest.documents", 0) / files if files else 0.0
    values["trace.total_s"] = trace.root_ns(tracer.COMMAND) / 1e9
    values["trace.glue_s"] = command.get(tracer.COMMAND, 0) / 1e9
    return values


def traced(runner: Runner, seconds: float, untraced_s: float, record: dict) -> dict[str, float]:
    """The workload's commands, run in-process and traced until ``seconds`` pass; medians per layer.

    Every traced command must write the bytes its CLI child wrote.
    ``untraced_s`` is wall_s - setup_s of the CLI children, at reference
    speed; reference children right before and after the traced commands
    bring trace.total_s to the same speed for trace.overhead_ratio.
    """
    import tracer

    outputs = Outputs()
    iterations: list[dict[str, float]] = []
    last = None
    before = runner.reference()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MAX_TRACED and (index < 2 or time.perf_counter() < deadline):
        command = runner.workload.commands[index % len(runner.workload.commands)]
        if command.output is not None:
            command.output.unlink(missing_ok=True)
        trace, exit_code, stdout, stderr = tracer.traced_command(command.args)
        runner.attempted += 1
        if not outputs.verify(command, stdout, stderr, exit_code):
            runner.failed += 1
        if index > 0:  # the first traced command warms up
            iterations.append(layer_values(trace))
            last = trace
        index += 1
    reference_s = (before.seconds + runner.reference().seconds) / 2
    for key, digest in outputs.digests.items():
        if digest != runner.outputs.digests.get(key):
            runner.failed += 1
            outputs.note(f"{key}: traced output differs from the CLI's")
    for problem in outputs.problems:
        runner.outputs.note(problem)
    medians = {name: statistics.median(values[name] for values in iterations) for name in iterations[0]}
    total_s = medians["trace.total_s"] / reference_s * REFERENCE_S
    medians["trace.overhead_ratio"] = total_s / untraced_s if untraced_s > 0 else 0.0
    record["trace"] = {
        "traced_commands": len(iterations),
        "reference_s": reference_s,
        "spans_of_last_command": last.to_json(),
        "counts_of_last_command": dict(last.counts),
    }
    return medians


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = result.stdout.strip() or commit
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        start = time.perf_counter()
        workload = workloads.generate(name, seed, workdir, scale)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
            "input_generation_s": time.perf_counter() - start,
            "machine": machine(),
            "note": PTH_NOTE,
            "load": "closed loop, one client: each command starts after the previous one exits",
        }
        runner = Runner(workload, workdir)
        bare, imported = runner.setup()
        record["setup"] = {
            "bare_interpreter_s": median(bare, raw_seconds),
            "import_citemetric_cli_s": median(imported, raw_seconds) - median(bare, raw_seconds),
            "at_reference_speed": {
                "bare_interpreter_s": median(bare),
                "import_citemetric_cli_s": median(imported) - median(bare),
            },
            "samples": len(bare),
        }
        budget = seconds * UNTRACED_SHARE if trace else seconds
        metrics, record["details"] = end_to_end(runner.commands(budget), imported)
        if trace:
            layers = traced(runner, seconds - budget, metrics["wall_s"] - metrics["setup_s"], record)
            layers["cli.interpreter_s"] = record["setup"]["bare_interpreter_s"]
            layers["cli.import_s"] = record["setup"]["import_citemetric_cli_s"]
            record["end_to_end_of_traced_run"] = metrics
            metrics = layers
        record.update(
            attempted=runner.attempted,
            failed=runner.failed,
            error_rate=runner.failed / runner.attempted,
            problems=runner.outputs.problems,
            output_sha256=runner.outputs.sha256(),
            metrics=metrics,
        )
        path = WORK / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        record["record_path"] = str(path.relative_to(ROOT))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor, for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "citemetric" / "cli.py").is_file():
        print(f"error: no citemetric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("CITEMETRIC_FORMAT", None)  # the traced in-process CLI reads it too

    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
        attempted += record["attempted"]
        failed += record["failed"]
        print(f"{name}: seed {args.seed}, {record['attempted']} commands, {record['failed']} failed, "
              f"error_rate {record['error_rate']:.4f}, output sha256 {record['output_sha256'][:16]}, "
              f"record {record['record_path']}")
        for problem in record["problems"]:
            print(f"  problem: {problem}")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            value = record["metrics"][metric]
            print(f"  {metric:<24} {value:>14.6f} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
