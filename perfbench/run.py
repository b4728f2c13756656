"""End-to-end and per-layer benchmark of the ``repro`` commands people run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reference --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload serve_chaos --seed 7 --seconds 40 --trace 1

Workloads are listed in ``workloads.py`` and ``BENCHMARK.json``.  A run
is a closed loop with one client: it spawns the workload's command in a
fresh process, waits for it to exit, and only then starts the next one,
until ``--seconds`` are used up (three timed runs at least).  The first
run is untimed: it fills the bytecode and page caches and, on
``serve_chaos``, runs the same config on the serial backend, whose output
the remote runs must reproduce.

Every run is split into phases that tile its wall time, from spawn to
exit: set-up (to the start of the first round), the round window, and
teardown (from the end of the last round).  The driver checks the
tiling against the process's own first and last stamps, and that the
per-round latencies cover the round window up to small gaps.  Each run's output digest
(printed result table, history, SHA-256 of the final parameters) must
equal the committed digest for the committed seed, and otherwise the
digest of the run's first process; ``reference`` on the committed seed
must also print ``benchmarks/baselines/run_seeded_reference.txt`` byte
for byte.  A nonzero exit, a timeout, a mismatch or broken phase tiling
fails the run and counts in ``error_rate`` (printed, and carried by the
``attempted``/``failed`` fields of the result line).

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` alternates untraced and traced runs; the traced ones wrap
each layer's public functions (``spans.py``) and report the per-layer
metrics (``summarize.py``), the tracing overhead, and a per-layer table;
a traced process that misses a seam fails its run.
Child processes run with one BLAS thread, recorded with the host's
``nproc`` and library versions in the environment line of every result.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from measure import (
    TooFewSamples,
    digest_mismatch,
    output_digest,
    round_percentile,
    tiling_error,
)
from spans import CLOCK
from summarize import (
    LAYER_METRICS,
    MissingSeams,
    format_layer_table,
    layer_metrics,
    layer_table,
    load_processes,
    merge_tables,
)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED_DIGESTS = HERE / "expected_digests.json"
REFERENCE_OUTPUT = ROOT / "benchmarks" / "baselines" / "run_seeded_reference.txt"

#: end-to-end metric -> unit; every one is reported with tracing off
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "uploads_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}
#: timed runs at least, whatever ``--seconds`` says (two per kind when tracing)
MIN_REPEATS = 3
#: no spawned process outlives this many seconds after the benchmark started
TIME_LIMIT = 150.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_environment(work: Path) -> dict[str, str]:
    """One BLAS thread, ``src`` importable, temporary files (the memmap spill) in ``work``."""
    env = dict(os.environ, **BLAS_THREADS, TMPDIR=str(work))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def numeric_platform() -> str:
    """What bitwise results depend on: NumPy, its BLAS, and the CPU features they dispatch on."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (ImportError, KeyError):
        __cpu_features__, library = {}, "blas unknown"
    features = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    digest = hashlib.sha256(features.encode()).hexdigest()[:12]
    return f"numpy {numpy.__version__}; {library}; cpu features {digest}"


def run_environment(workload, seed: int) -> dict:
    """What makes results from two hosts comparable, recorded with every result."""
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "blas_threads": BLAS_THREADS,
        "numeric_platform": numeric_platform(),
        "platform": platform.platform(),
    }


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Process:
    """One spawned child with its output files, reaped with its own rusage."""

    def __init__(self, argv, work: Path, tag: str, traced: bool, extra=(), pass_fds=()):
        self.tag = tag
        self.result = work / f"{tag}.result.json"
        self.spans = work / f"{tag}.spans.json" if traced else None
        self.stdout = work / f"{tag}.out"
        self.stderr = work / f"{tag}.err"
        command = [sys.executable, str(CHILD), "--result", str(self.result)]
        if self.spans is not None:
            command += ["--spans", str(self.spans)]
        command += [*extra, "--", *argv]
        env = child_environment(work)
        with open(self.stdout, "w") as out, open(self.stderr, "w") as err:
            self.start = CLOCK()
            self.popen = subprocess.Popen(
                command, stdout=out, stderr=err, env=env, cwd=ROOT, pass_fds=pass_fds
            )
        self.end: float | None = None
        self.peak_rss_mb = 0.0

    def reap(self, deadline: float) -> int:
        """Wait for exit (killing it at ``deadline``); returns the exit code."""
        timer = threading.Timer(max(0.0, deadline - CLOCK()), self.popen.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.popen.pid, 0)
        finally:
            timer.cancel()
        self.end = CLOCK()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        return self.popen.returncode

    def kill(self) -> None:
        if self.popen.poll() is None:
            self.popen.kill()
            self.popen.wait()

    def failure(self) -> str:
        tail = self.stderr.read_text().strip().splitlines()[-3:]
        return f"{self.tag} exited {self.popen.returncode}: {' | '.join(tail)}"


def run_once(
    workload, seed: int, work: Path, tag: str, traced: bool, deadline: float,
    serial: bool = False,
) -> dict:
    """Spawn one run of the workload (plus its workers), wait, and check it.

    Every process still running at ``deadline`` is killed.
    """
    remote = workload.workers > 0 and not serial
    port = free_port() if remote else None
    argv = workload.arguments(seed, work, port)
    extra, pass_fds = (), ()
    if remote:
        read_end, write_end = os.pipe()
        extra = ("--ready-fd", str(write_end), "--workers", str(workload.workers))
        pass_fds = (write_end,)
    main = Process(argv, work, tag, traced, extra, pass_fds)
    workers: list[Process] = []
    record = {"tag": tag, "traced": traced, "ok": False, "reason": None}
    try:
        if remote:
            os.close(write_end)
            readable, _, _ = select.select([read_end], [], [], max(0.0, deadline - CLOCK()))
            ready = os.read(read_end, 16) if readable else b""
            os.close(read_end)
            if ready == b"ready":
                workers = [
                    Process(
                        ["worker", "--port", str(port), "--name", f"bench-{index}",
                         "--reconnect-timeout", "30"],
                        work, f"{tag}-worker{index}", traced,
                    )
                    for index in range(workload.workers)
                ]
        if main.reap(deadline) != 0:
            record["reason"] = main.failure()
            return record
        if len(workers) != workload.workers and remote:
            record["reason"] = "the coordinator never reported it was listening"
            return record
        for worker in workers:
            if worker.reap(deadline) != 0:
                record["reason"] = worker.failure()
                return record
    finally:
        for process in (main, *workers):
            process.kill()
    return check_run(record, main, workers)


def check_run(record: dict, main: Process, workers: list[Process]) -> dict:
    """Phase split, digest and sanity checks of a run that exited cleanly."""
    result = json.loads(main.result.read_text())
    starts, ends = result["round_starts"], result["round_ends"]
    if not starts or len(starts) != len(ends):
        record["reason"] = "no complete rounds recorded"
        return record
    if not result.get("parameters_finite"):
        record["reason"] = "final parameters are not finite"
        return record
    stdout = main.stdout.read_text()
    wall = main.end - main.start
    # the phases as the process itself stamped them; the driver's spawn
    # and exit stamps bound them from outside
    phases = [
        ("setup", starts[0] - result["process_start"]),
        ("rounds", ends[-1] - starts[0]),
        ("teardown", result["process_exit"] - ends[-1]),
    ]
    round_s = [end - start for start, end in zip(starts, ends)]
    error = tiling_error(wall, phases, round_s)
    if error is not None:
        record["reason"] = f"phase tiling: {error}"
        return record
    if main.spans is not None:
        try:
            record["processes"] = load_processes(
                process.spans for process in (main, *workers)
            )
        except MissingSeams as missing:
            record["reason"] = str(missing)
            return record
    record.update(
        ok=True,
        wall_s=wall,
        setup_s=starts[0] - main.start,
        rounds_s=phases[1][1],
        teardown_s=main.end - ends[-1],
        outside_s=wall - sum(value for _, value in phases),
        gaps_s=phases[1][1] - sum(round_s),
        round_ms=[1e3 * value for value in round_s],
        rows=sum(result["rows"]),
        diagnostics=result["diagnostics"],
        peak_rss_mb=main.peak_rss_mb,
        stdout=stdout,
        digest=output_digest(stdout, result["history"], result["parameters_sha256"]),
    )
    return record


def end_to_end_metrics(records: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Medians over a run's clean repeats, with a note on each sample count."""
    n = len(records)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "uploads_per_s": statistics.median(r["rows"] / r["rounds_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    notes = {name: f"median of {n} runs" for name in metrics}
    for name, q in (("round_ms_p50", 50), ("round_ms_p90", 90)):
        value, count, pooled = round_percentile([r["round_ms"] for r in records], q)
        metrics[name] = value
        notes[name] = (
            f"{count} rounds pooled over {n} runs" if pooled
            else f"median over {n} runs of {count // n} rounds"
        )
    return metrics, notes


def repeat_runs(workload, seed: int, seconds: float, trace: bool, work: Path) -> list[dict]:
    """The untimed first run, then timed runs until ``seconds`` are used up."""
    deadline = CLOCK() + seconds
    limit = CLOCK() + TIME_LIMIT
    records = [run_once(workload, seed, work, "warmup", False, limit, serial=workload.workers > 0)]
    kinds = [False, True] if trace else [False]
    minimum = 2 * len(kinds) if trace else MIN_REPEATS
    index = 0
    while index < minimum or CLOCK() + statistics.median(
        record["wall_s"] for record in records if record["ok"]
    ) < deadline:
        traced = kinds[index % len(kinds)]
        tag = f"{workload.name}-seed{seed}-{'traced' if traced else 'plain'}-{index}"
        records.append(run_once(workload, seed, work, tag, traced, limit))
        index += 1
        if CLOCK() >= limit or not any(record["ok"] for record in records):
            break
    return records


def check_outputs(workload, seed: int, records: list[dict], environment: dict) -> None:
    """Fail every run whose output differs from the committed or the first output.

    Digests are bitwise, so committed ones hold on the numeric platform
    they were recorded on; elsewhere the runs are held to their first
    output (on ``serve_chaos``, the serial twin's).
    """
    committed = json.loads(EXPECTED_DIGESTS.read_text())
    committed_seed = seed == committed["seed"]
    expected = None
    if committed_seed and committed["numeric_platform"] == environment["numeric_platform"]:
        expected = committed["digests"].get(workload.name)
    elif committed_seed:
        print(f"committed digests are for {committed['numeric_platform']}; this host "
              f"differs, so runs are checked against their first output only")
    anchor = expected if expected is not None else records[0].get("digest")
    for record in records:
        if not record["ok"]:
            continue
        reason = digest_mismatch(record["tag"], anchor, record["digest"])
        if reason is None and committed_seed and workload.name == "reference":
            if record["stdout"].encode() != REFERENCE_OUTPUT.read_bytes():
                reason = f"{record['tag']}: output differs from {REFERENCE_OUTPUT.name}"
        if reason is not None:
            record.update(ok=False, reason=reason)


def print_runs(records: list[dict]) -> None:
    print(f"{'run':<36} {'wall_s':>8} {'setup_s':>8} {'rounds_s':>9} {'teardown_s':>10} "
          f"{'rounds':>6} {'gaps_s':>7} {'outside_s':>9} {'rss_MiB':>8}  digest / failure")
    for record in records:
        if record["ok"]:
            print(f"{record['tag']:<36} {record['wall_s']:>8.4f} {record['setup_s']:>8.4f} "
                  f"{record['rounds_s']:>9.4f} {record['teardown_s']:>10.4f} "
                  f"{len(record['round_ms']):>6} {record['gaps_s']:>7.4f} {record['outside_s']:>9.4f} "
                  f"{record['peak_rss_mb']:>8.1f}  {record['digest']}")
        else:
            print(f"{record['tag']:<36} FAILED: {record['reason']}")


def report_end_to_end(plain: list[dict]) -> dict[str, dict]:
    values, notes = end_to_end_metrics(plain)
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {values[name]:>14.6f} {unit:<4} ({notes[name]})")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def report_layers(plain: list[dict], traced: list[dict]) -> dict[str, dict]:
    values: dict[str, list[float]] = {name: [] for name in LAYER_METRICS}
    tables = []
    for record in traced:
        tables.append(layer_table(record, record["processes"]))
        for name, value in layer_metrics(record, record["processes"]).items():
            values[name].append(value)
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    values["trace.overhead_s"] = [overhead]
    same = {r["digest"] for r in traced} == {r["digest"] for r in plain}
    print(f"per-layer table, mean of {len(traced)} traced runs; tracing overhead "
          f"{overhead:+.4f} s of wall time; traced digests equal untraced: {same}")
    print("\n".join(format_layer_table(merge_tables(tables), len(tables))))
    metrics = {}
    for name, (unit, moves) in LAYER_METRICS.items():
        value = statistics.median(values[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:>14.6g} {unit:<6} moves {moves}")
    return metrics


def benchmark(arguments, work: Path) -> int:
    workload = WORKLOADS[arguments.workload]
    environment = run_environment(workload, arguments.seed)
    print("environment " + json.dumps(environment))
    records = repeat_runs(workload, arguments.seed, arguments.seconds, arguments.trace, work)
    check_outputs(workload, arguments.seed, records, environment)
    print_runs(records)
    attempted = len(records)
    failed = sum(not record["ok"] for record in records)
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.3f}")

    timed = [record for record in records[1:] if record["ok"]]
    plain = [record for record in timed if not record["traced"]]
    traced = [record for record in timed if record["traced"]]
    metrics: dict[str, dict] = {}
    try:
        if arguments.trace and plain and traced:
            metrics = report_layers(plain, traced)
        elif not arguments.trace and plain:
            metrics = report_end_to_end(plain)
    except TooFewSamples as error:
        print(f"too few rounds for a percentile: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # workloads build configs with repro's presets
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        return benchmark(arguments, Path(work))


if __name__ == "__main__":
    sys.exit(main())
