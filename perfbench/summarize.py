"""Per-layer summary of a traced run's spans.

Each process of a traced repeat (the driver-spawned run or coordinator,
and each remote worker) writes its in-memory spans at exit: name,
start, end, parent and round.  This module turns them into

- a table per layer: span count, total time (outermost spans of the
  layer, so nested calls count once), self time (total minus the time
  its child spans cover) and share of the run's wall time;
- the per-layer metrics named in ``BENCHMARK.json``.

A process that could not wrap every seam fails the traced run
(:class:`MissingSeams`): the metrics of a seam that was never timed
would read zero, which looks like a gain.  ``run.py`` calls this module.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from measure import self_time

#: Per-layer metrics, their unit, and (end-to-end metric -> workloads) each should move.
LAYER_METRICS = {
    "import.repro_s": ("s", "setup_s, wall_s on reference"),
    "data.load_s": ("s", "setup_s on reference"),
    "privacy.calibrate_s": ("s", "setup_s on reference"),
    "privacy.calibrate_calls": ("count", "setup_s on reference"),
    "privacy.rdp_calls": ("count", "setup_s on reference"),
    "federated.build_s": ("s", "setup_s on serve_chaos"),
    "service.register_s": ("s", "setup_s on serve_chaos"),
    "sampling.draw_s": ("s", "round_ms_p50, uploads_per_s on population"),
    "sampling.materialise_s": ("s", "round_ms_p50, uploads_per_s on population"),
    "sampling.derive_rng_calls": ("count", "round_ms_p50, uploads_per_s on population"),
    "worker.uploads_s": ("s", "uploads_per_s on population, serve_chaos"),
    "engine.compute_s": ("s", "uploads_per_s on population, serve_chaos"),
    "engine.rows": ("count", "uploads_per_s on population, serve_chaos"),
    "attack.craft_s": ("s", "round_ms_p50 on reference, serve_chaos"),
    "aggregate.first_stage_s": ("s", "round_ms_p50 on reference (in memory), population (stream)"),
    "aggregate.second_stage_s": ("s", "round_ms_p50 on reference (in memory), population (stream)"),
    "aggregate.rule_self_s": ("s", "round_ms_p50 on reference, population"),
    "aggregate.accept_ratio": ("ratio", "round_ms_p50 on reference, population"),
    "aggregate.stream_blocks": ("count", "round_ms_p50 on population"),
    "server.update_self_s": ("s", "round_ms_p50 on reference, population"),
    "server.evaluate_s": ("s", "round_ms_p90 on reference, serve_chaos"),
    "server.evaluate_calls": ("count", "round_ms_p90 on reference, serve_chaos"),
    "pipeline.round_self_ms": ("ms", "round_ms_p50 on every workload"),
    "faults.lost": ("count", "round_ms_p90 on serve_chaos"),
    "faults.retried": ("count", "round_ms_p90 on serve_chaos"),
    "faults.survivor_ratio": ("ratio", "round_ms_p90 on serve_chaos"),
    "wire.encode_s": ("s", "round_ms_p50, uploads_per_s on serve_chaos"),
    "wire.decode_s": ("s", "round_ms_p50, uploads_per_s on serve_chaos"),
    "wire.bytes_per_round": ("B", "round_ms_p50, uploads_per_s on serve_chaos"),
    "wire.frames_per_round": ("count", "round_ms_p50, uploads_per_s on serve_chaos"),
    "service.worker_busy_share": ("ratio", "round_ms_p50, uploads_per_s on serve_chaos"),
    "teardown_s": ("s", "wall_s on population, serve_chaos"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall_s"),
}


class ProcessSpans:
    """The spans of one process, indexed for self time and layer totals."""

    def __init__(self, dump: dict) -> None:
        self.role = dump.get("role", "run")
        self.counts = dump.get("counts", {})
        self.missing = dump.get("missing", [])
        self.spans = {row[0]: row for row in dump["spans"]}
        children: dict = defaultdict(list)
        for span_id, _, start, end, parent, _ in self.spans.values():
            if parent is not None:
                children[parent].append((start, end))
        self.self_times = {
            span_id: self_time(start, end, children.get(span_id, ()))
            for span_id, (_, _, start, end, _, _) in self.spans.items()
        }
        self.by_name = self.totals(lambda name: name)
        self.by_layer = self.totals(layer_of)

    def _outermost(self, span: tuple, key) -> bool:
        """No ancestor of ``span`` shares its ``key`` (layer or name)."""
        parent = span[4]
        while parent is not None and parent in self.spans:
            ancestor = self.spans[parent]
            if key(ancestor[1]) == key(span[1]):
                return False
            parent = ancestor[4]
        return True

    def totals(self, key) -> dict[str, list[float]]:
        """``key(name) -> [count, total, self]`` over the outermost spans per key."""
        table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, span in self.spans.items():
            row = table[key(span[1])]
            row[2] += self.self_times[span_id]
            if self._outermost(span, key):
                row[0] += 1
                row[1] += span[3] - span[2]
        return table


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class MissingSeams(RuntimeError):
    """A traced process did not find every seam it was to wrap."""


def load_processes(paths) -> list[ProcessSpans]:
    """The spans each process of a traced run wrote; every seam must have been wrapped."""
    processes = [ProcessSpans(json.loads(Path(path).read_text())) for path in paths]
    missing = sorted({seam for process in processes for seam in process.missing})
    if missing:
        raise MissingSeams(f"seams not found, their metrics would read 0: {missing}")
    return processes


def layer_table(record: dict, processes: list[ProcessSpans]) -> dict[str, list[float]]:
    """``layer -> [count, total_s, self_s, share of wall]`` over every process."""
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for process in processes:
        for layer, (count, total, own) in process.by_layer.items():
            row = table[layer]
            row[0] += count
            row[1] += total
            row[2] += own
    for row in table.values():
        row[3] = row[1] / record["wall_s"]
    return dict(table)


def _faults(diagnostics: list[dict]) -> tuple[float, float, float]:
    """(lost rows, retried shards, share of expected rows that survived).

    A buffered straggler is delivered with the next round, so a round's
    ``fault_survivors`` include the rows the previous round buffered.
    """
    lost = retried = expected = arrivals = 0.0
    for entry in diagnostics:
        n_workers = entry["n_workers"]
        delivered = entry.get("fault_survivors", n_workers)
        lost += entry.get("fault_lost", n_workers - (delivered - arrivals))
        retried += entry.get("fault_retried", 0.0)
        expected += n_workers
        arrivals = entry.get("fault_buffered", 0.0)
    return lost, retried, (1.0 - lost / expected if expected else 0.0)


def layer_metrics(record: dict, processes: list[ProcessSpans]) -> dict[str, float]:
    """The per-layer metrics of one traced repeat."""
    main = [p for p in processes if p.role != "worker"]
    workers = [p for p in processes if p.role == "worker"]

    empty = (0, 0.0, 0.0)

    def total(group, name=None, layer=None) -> float:
        if name is not None:
            return sum(process.by_name.get(name, empty)[1] for process in group)
        return sum(process.by_layer.get(layer, empty)[1] for process in group)

    def own(group, name) -> float:
        return sum(process.by_name.get(name, empty)[2] for process in group)

    def calls(group, name) -> float:
        return sum(process.by_name.get(name, empty)[0] for process in group)

    def counter(group, name) -> float:
        return sum(process.counts.get(name, 0.0) for process in group)

    rounds = max(1, len(record["round_ms"]))
    inspected = counter(main, "aggregate.inspected")
    lost, retried, survivor_ratio = _faults(record["diagnostics"])
    worker_engine = total(workers, layer="engine")
    busy_base = record["rounds_s"] * max(1, len(workers))
    return {
        "import.repro_s": total(main, layer="import"),
        "data.load_s": total(main, layer="data"),
        "privacy.calibrate_s": total(main, layer="privacy"),
        "privacy.calibrate_calls": counter(main, "privacy.calibrate_calls"),
        "privacy.rdp_calls": counter(main, "privacy.rdp_calls"),
        "federated.build_s": total(main, layer="federated"),
        "service.register_s": total(main, layer="service"),
        "sampling.draw_s": total(main, name="sampling.draw"),
        "sampling.materialise_s": total(main, name="sampling.materialise"),
        "sampling.derive_rng_calls": counter(main, "sampling.derive_rng_calls"),
        # remote workers time their own shards; otherwise the pools do
        "worker.uploads_s": total(workers or main, layer="worker"),
        "engine.compute_s": total(processes, layer="engine"),
        "engine.rows": counter(processes, "engine.rows"),
        "attack.craft_s": total(main, layer="attack"),
        "aggregate.first_stage_s": total(main, name="aggregate.first_stage"),
        "aggregate.second_stage_s": total(main, name="aggregate.second_stage"),
        "aggregate.rule_self_s": own(main, "aggregate.rule"),
        "aggregate.accept_ratio": (
            counter(main, "aggregate.accepted") / inspected if inspected else 0.0
        ),
        "aggregate.stream_blocks": counter(main, "aggregate.stream_blocks"),
        "server.update_self_s": own(main, "server.update"),
        "server.evaluate_s": total(main, name="server.evaluate"),
        "server.evaluate_calls": calls(main, "server.evaluate"),
        "pipeline.round_self_ms": 1e3 * own(main, "pipeline.round") / rounds,
        "faults.lost": lost,
        "faults.retried": retried,
        "faults.survivor_ratio": survivor_ratio,
        "wire.encode_s": total(processes, name="wire.encode"),
        "wire.decode_s": total(processes, name="wire.decode"),
        "wire.bytes_per_round": counter(main, "wire.bytes") / rounds,
        "wire.frames_per_round": counter(main, "wire.frames") / rounds,
        "service.worker_busy_share": worker_engine / busy_base if workers else 0.0,
        "teardown_s": total(main, layer="teardown"),
    }


def format_layer_table(table: dict[str, list[float]], repeats: int = 1) -> list[str]:
    """Table lines, averaged over ``repeats`` traced repeats."""
    lines = [f"{'layer':<12} {'count':>8} {'total_s':>10} {'self_s':>10} {'share':>7}"]
    for layer, (count, total, own, share) in sorted(
        table.items(), key=lambda item: -item[1][1]
    ):
        lines.append(
            f"{layer:<12} {count / repeats:>8.1f} {total / repeats:>10.4f} "
            f"{own / repeats:>10.4f} {share / repeats:>6.1%}"
        )
    return lines


def merge_tables(tables: list[dict[str, list[float]]]) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for table in tables:
        for layer, row in table.items():
            merged[layer] = [a + b for a, b in zip(merged[layer], row)]
    return dict(merged)
