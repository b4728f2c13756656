"""The benchmark's workloads: the ``repro`` commands it runs, made from a seed.

Each workload is a closed loop with one client: one command at a time,
the next started only after the previous one exited.  The workload seed
becomes the experiment seed; the program sees only the generated
command line or config file.  ``why`` repeats the reason recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

#: ``serve_chaos`` experiment settings, shared by the remote run and its
#: serial twin (the same config on ``--backend serial``).
CHAOS_EPOCHS = 10
CHAOS_WORKERS = 2


def reference_arguments(seed: int, workdir: Path, port: int | None) -> list[str]:
    """The seeded run CI diffs against ``run_seeded_reference.txt`` (for seed 1)."""
    return ["run", "--attack", "lmp", "--defense", "two_stage",
            "--seed", str(seed), "--epochs", "2"]


def population_arguments(seed: int, workdir: Path, port: int | None) -> list[str]:
    """Cross-device mode, run long enough (125 rounds) that rounds dominate."""
    return ["run", "--population", "100000", "--cohort", "64",
            "--dataset", "usps_like", "--attack", "label_flip",
            "--defense", "two_stage", "--epochs", "40", "--seed", str(seed)]


def serve_chaos_arguments(seed: int, workdir: Path, port: int | None) -> list[str]:
    """The chaos config as a file: remote on ``port``, or serial for ``None``."""
    path = workdir / f"serve_chaos-{'serial' if port is None else port}.json"
    path.write_text(chaos_config(seed, port).to_json())
    return ["run", "--config", str(path)]


def chaos_config(seed: int, port: int | None):
    """The chaos acceptance config, remote on ``port`` (``None``: serial).

    Built as the service smoke check builds it: the seeded lmp /
    two_stage run with chaos faults, a 0.25 quorum and 4-worker shards.
    """
    from repro.experiments.presets import benchmark_preset

    remote = {} if port is None else {
        "backend": "remote",
        "backend_kwargs": {"port": port, "max_workers": CHAOS_WORKERS},
    }
    return benchmark_preset(
        dataset="mnist_like", byzantine_fraction=0.6, attack="lmp",
        defense="two_stage", epsilon=2.0, seed=seed, epochs=CHAOS_EPOCHS,
        shard_size=4, faults="chaos", min_quorum=0.25, **remote,
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    why: str
    #: ``(seed, scratch directory, coordinator port) -> repro CLI arguments``
    arguments: Callable[[int, Path, int | None], list[str]]
    #: worker processes started beside the coordinator (0: a plain run)
    workers: int = 0


# The paper's MNIST setting (``--paper-scale``, 20 honest + 30 Byzantine,
# 150 rounds) is not a workload: with four workloads the driver's time
# budget allows 30-second runs, whose medians spread by 15-25 % on a
# 2-vCPU host whose speed drifts by +-20 % over tens of seconds.  Its
# layers (engine, in-memory two-stage aggregation, evaluation) run in
# ``reference``, ``population`` and ``serve_chaos`` as well.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "reference",
            "the seeded run CI diffs byte for byte; mostly set-up, so import and "
            "privacy calibration dominate and the round layers barely show",
            reference_arguments,
        ),
        Workload(
            "population",
            "cross-device: 1e5 registered workers, cohort 64, label_flip; the only "
            "user of cohort sampling, streaming aggregation and the memmap spill",
            population_arguments,
        ),
        Workload(
            "serve_chaos",
            "a remote coordinator with 2 worker processes under chaos faults; the "
            "only user of the wire, the service and the retry/quorum round path",
            serve_chaos_arguments,
            workers=CHAOS_WORKERS,
        ),
    )
}
