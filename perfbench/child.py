"""One benchmarked process: ``repro``'s own CLI, plus the benchmark's clock.

Run as ``child.py --result R.json [--spans S.json] [--ready-fd N
--workers K] -- <repro arguments>``.  It calls ``repro.cli.main`` with
the given arguments, exactly as ``python -m repro`` would, after
wrapping the CLI's ``run_experiment`` so that

- a round callback stamps the start and end of every round (the phase
  boundaries) and counts the upload rows each round aggregated;
- on a remote-backend run, the coordinator starts listening once the
  experiment is prepared, reports that on ``--ready-fd`` so the driver
  can start the workers, and waits for ``--workers`` registrations
  before the first round;
- the final parameters are hashed after the run, for the output digest.

With ``--spans`` the layer seams of :mod:`spans` are wrapped as well
and the recorded spans are written to that file at exit.  The result
file, written by the last exit handler, holds the stamps (the process's
first statement, every round boundary, its last exit handler), history
and digest inputs; the driver reads it.
"""

from __future__ import annotations

import time

#: the process's own first stamp; with its last one (at exit) it lets the
#: driver check that the phases account for the wall time it measured
PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import atexit  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from spans import CLOCK, SpanRecorder, install  # noqa: E402

#: seconds the coordinator waits for its workers to register
REGISTER_TIMEOUT = 60.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--ready-fd", type=int, default=None)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    argv = options.argv[1:] if options.argv[:1] == ["--"] else options.argv

    recorder = SpanRecorder() if options.spans else None
    record: dict = {
        "process_start": PROCESS_START,
        "round_starts": [], "round_ends": [], "rows": [], "diagnostics": [],
    }

    def finish() -> None:
        # registered before repro is imported, so it runs after every
        # other exit handler (pools, spill files) and stamps the very end
        sys.stdout.flush()
        if recorder is not None:
            role = "worker" if argv[:1] == ["worker"] else "run"
            recorder.dump(options.spans, pid=os.getpid(), role=role)
        record["process_exit"] = CLOCK()
        with open(options.result, "w") as handle:
            json.dump(record, handle, default=float)

    atexit.register(finish)
    import_start = CLOCK()
    import numpy as np
    import repro.cli
    from repro.federated.pipeline import RoundCallback
    import_end = CLOCK()
    if recorder is not None:
        recorder.spans.append((0, "import.repro", import_start, import_end, None, None))
        install(recorder)

    class PhaseClock(RoundCallback):
        """Stamps round boundaries; reads nothing that could alter results."""

        def bind(self, pipeline) -> None:
            self.simulation = pipeline.simulation

        def on_round_start(self, event) -> None:
            record["round_starts"].append(CLOCK())
            if recorder is not None:
                recorder.round = event.round_index

        def on_round_end(self, event) -> None:
            record["round_ends"].append(CLOCK())
            diagnostics = dict(event.diagnostics)
            record["rows"].append(
                diagnostics.get("fault_survivors", self.simulation.n_workers)
            )
            record["diagnostics"].append(
                {"n_workers": self.simulation.n_workers, **diagnostics}
            )
            if recorder is not None:
                recorder.round = None

    original = repro.cli.run_experiment
    prepared: list = []

    def register_workers(setup) -> None:
        prepared.append(setup)
        if options.ready_fd is None:
            return
        server = setup.simulation.backend.server  # starts listening
        os.write(options.ready_fd, b"ready")
        os.close(options.ready_fd)
        token = recorder.begin("service.register") if recorder else None
        connected = server.wait_for_workers(options.workers, timeout=REGISTER_TIMEOUT)
        if token is not None:
            recorder.end(token)
        if connected < options.workers:
            raise RuntimeError(f"only {connected} of {options.workers} workers registered")

    def run_experiment(config, *args, callbacks=(), on_prepared=None, **kwargs):
        def hook(setup) -> None:
            register_workers(setup)
            if on_prepared is not None:
                on_prepared(setup)

        result = original(
            config, *args, callbacks=[*callbacks, PhaseClock()], on_prepared=hook, **kwargs
        )
        parameters = prepared[-1].simulation.model.get_flat_parameters()
        record["parameters_sha256"] = hashlib.sha256(parameters.tobytes()).hexdigest()
        record["parameters_finite"] = bool(parameters.size and np.isfinite(parameters).all())
        record["history"] = result.history.as_dict()
        return result

    repro.cli.run_experiment = run_experiment
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
