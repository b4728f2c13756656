#!/usr/bin/env python
"""Macro-benchmark: rounds/sec and peak RSS vs registered population.

Cross-device mode claims population size is a *free* variable: a run that
draws ``cohort`` workers per round from 10**5 registered ones must cost
(time and memory) what the cohort costs, not the population.  This
driver measures exactly that:

- each population cell runs one experiment in a **fresh subprocess**
  (``ru_maxrss`` is a process-lifetime high-water mark, so in-process
  sequencing would conflate the cells) and reports wall time per round
  plus peak RSS.  Only the rounds are timed: the one-off set-up
  (``prepare_experiment``: data, σ calibration, simulation build) is
  reported apart as ``prepare_s``, so it cannot hide a round regression;
- before timing, the out-of-core streaming aggregation path is gated
  *bitwise* against the in-memory reference on an n=120 cohort -- the
  largest stacked round the pre-population benches ever ran;
- after timing, peak RSS must stay **sublinear in population**: the
  largest population may cost at most ``--max-rss-growth`` (default
  1.5x) the smallest one's memory while the populations themselves span
  >= 10x.

Run (records ``BENCH_macro_population.json``, gated in CI by
``check_regression.py`` against ``benchmarks/baselines/``)::

    PYTHONPATH=src python benchmarks/bench_macro_population.py \
        --populations 1000 10000 100000 --cohort 64 \
        --json BENCH_macro_population.json
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

GATE_COHORT = 120  # the n=120 stacked-round reference size


def build_config(population: int, cohort: int, epochs: int, seed: int):
    from repro.experiments.sweep import population_grid

    return population_grid(
        [population],
        cohort=cohort,
        dataset="usps_like",
        scale=0.2,
        epochs=epochs,
        seed=seed,
    )[population]


def run_once(config):
    """(history dict, final parameters, rounds, timings) of one experiment run.

    ``timings`` holds ``prepare_s`` (set-up) and ``rounds_s`` (the rounds).
    """
    from repro.experiments.runner import prepare_experiment

    start = time.perf_counter()
    setup = prepare_experiment(config)
    prepared = time.perf_counter()
    try:
        history = setup.simulation.run()
        finished = time.perf_counter()
        parameters = setup.simulation.model.get_flat_parameters().copy()
    finally:
        setup.simulation.close()
    timings = {"prepare_s": prepared - start, "rounds_s": finished - prepared}
    return history.as_dict(), parameters, setup.total_rounds, timings


def command_child(arguments: argparse.Namespace) -> int:
    """One population cell, isolated in its own process."""
    config = build_config(
        arguments.population, arguments.cohort, arguments.epochs, arguments.seed
    )
    history, _, rounds, timings = run_once(config)
    elapsed = timings["rounds_s"]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(
        {
            "population": arguments.population,
            "cohort": arguments.cohort,
            "rounds": rounds,
            "elapsed_s": elapsed,
            "prepare_s": timings["prepare_s"],
            "seconds_per_round": elapsed / rounds,
            "rounds_per_sec": rounds / elapsed,
            "peak_rss_kb": int(peak_rss_kb),
            "final_accuracy": history["test_accuracy"][-1],
        },
        sys.stdout,
    )
    print()
    return 0


def assert_streaming_bitwise(cohort: int, epochs: int, seed: int) -> None:
    """The streaming path must equal the in-memory path bitwise at n=120."""
    import numpy as np

    from repro.federated.pipeline import RoundPipeline

    config = build_config(
        population=4 * cohort, cohort=cohort, epochs=epochs, seed=seed
    )
    _, streamed, _, _ = run_once(config)
    eligible = RoundPipeline._streaming_eligible
    RoundPipeline._streaming_eligible = lambda self, round_index: False
    try:
        _, in_memory, _, _ = run_once(config)
    finally:
        RoundPipeline._streaming_eligible = eligible
    if not np.array_equal(streamed, in_memory):
        raise SystemExit(
            f"streaming aggregation diverged from the in-memory reference "
            f"at cohort {cohort}"
        )
    print(f"OK    streaming bitwise == in-memory at cohort {cohort}")


def export_json(path: Path, cells: list[dict]) -> None:
    """pytest-benchmark-shaped export so check_regression.py can gate it."""
    payload = {
        "machine_info": {"note": "bench_macro_population standalone driver"},
        "benchmarks": [
            {
                "group": "macro-population",
                "fullname": (
                    "benchmarks/bench_macro_population.py::population"
                    f"[population={cell['population']},cohort={cell['cohort']}]"
                ),
                "params": {
                    "population": cell["population"],
                    "cohort": cell["cohort"],
                },
                "stats": {"min": cell["seconds_per_round"]},
                "extra_info": {
                    "rounds": cell["rounds"],
                    "rounds_per_sec": cell["rounds_per_sec"],
                    "prepare_s": cell["prepare_s"],
                    "peak_rss_kb": cell["peak_rss_kb"],
                    "final_accuracy": cell["final_accuracy"],
                },
            }
            for cell in cells
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"results written to {path}")


def command_drive(arguments: argparse.Namespace) -> int:
    populations = sorted(set(arguments.populations))
    assert_streaming_bitwise(GATE_COHORT, arguments.epochs, arguments.seed)

    cells: list[dict] = []
    for population in populations:
        command = [
            sys.executable, __file__, "--child",
            "--population", str(population),
            "--cohort", str(min(arguments.cohort, population)),
            "--epochs", str(arguments.epochs),
            "--seed", str(arguments.seed),
        ]
        completed = subprocess.run(
            command, capture_output=True, text=True, check=False
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise SystemExit(f"population {population} cell failed")
        cell = json.loads(completed.stdout.strip().splitlines()[-1])
        cells.append(cell)
        print(
            f"population {population:>7d}  cohort {cell['cohort']:>3d}  "
            f"{cell['rounds_per_sec']:6.2f} rounds/s  "
            f"set-up {cell['prepare_s']:5.2f} s  "
            f"peak RSS {cell['peak_rss_kb'] / 1024:7.1f} MiB"
        )

    if arguments.json is not None:
        export_json(arguments.json, cells)

    smallest, largest = cells[0], cells[-1]
    span = largest["population"] / smallest["population"]
    growth = largest["peak_rss_kb"] / smallest["peak_rss_kb"]
    if span >= 10.0:
        print(
            f"peak RSS growth {growth:.2f}x over a {span:.0f}x population span "
            f"(limit {arguments.max_rss_growth:.2f}x)"
        )
        if growth > arguments.max_rss_growth:
            raise SystemExit(
                f"peak RSS grew {growth:.2f}x across a {span:.0f}x population "
                f"span -- memory is not sublinear in population"
            )
    else:
        print(f"population span {span:.1f}x < 10x: RSS growth check skipped")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Rounds/sec and peak RSS vs registered population size."
    )
    parser.add_argument("--populations", type=int, nargs="+",
                        default=[1_000, 10_000, 100_000],
                        help="registered population sizes to measure")
    parser.add_argument("--cohort", type=int, default=64,
                        help="honest workers drawn per round (default: 64)")
    parser.add_argument("--epochs", type=int, default=1,
                        help="epochs per cell (default: 1)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=Path, default=None,
                        metavar="BENCH_macro_population.json",
                        help="write a pytest-benchmark-shaped export here")
    parser.add_argument("--max-rss-growth", type=float, default=1.5,
                        help="max peak-RSS ratio largest/smallest population "
                             "(default: 1.5)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--population", type=int, help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    if arguments.child:
        if arguments.population is None:
            parser.error("--child requires --population")
        return command_child(arguments)
    return command_drive(arguments)


if __name__ == "__main__":
    sys.exit(main())
