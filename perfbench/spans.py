"""In-memory span recorder and the layer seams it wraps.

The traced run patches the public functions of each layer from here,
never from ``src/``: a wrapper times the call, notes the span that
caused it and the round it belongs to, and returns the original result
untouched, so the traced run stays bit-identical to the untraced one.
Spans stay in memory and are written out once, when the process ends.

Callers bind several functions with ``from ... import``, so a function
is replaced in every loaded ``repro`` module that holds it, and a method
is replaced on the class that defines it.  A seam that a later version
of the program no longer has is skipped and listed in ``missing``, and
the driver then fails the traced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

CLOCK = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux


class SpanRecorder:
    """Spans ``(id, name, start, end, parent, round)`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        #: round index that new spans are attributed to (``None`` outside rounds)
        self.round: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return (span_id, name, parent, self.round, CLOCK())

    def end(self, token: tuple) -> None:
        finish = CLOCK()
        span_id, name, parent, round_index, start = token
        self._stack().pop()
        self.spans.append((span_id, name, start, finish, parent, round_index))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def dump(self, path: str, **meta) -> None:
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "round"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
            **meta,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _timed(recorder: SpanRecorder, name: str, original, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        token = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(token)
        if after is not None:
            after(recorder, result, args, kwargs)
        return result

    return wrapper


def _timed_generator(recorder: SpanRecorder, name: str, original, counter: str):
    """Time each ``next()`` of a generator as one span, counting the items."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        try:
            while True:
                token = recorder.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.end(token)
                recorder.count(counter)
                yield item
        finally:
            iterator.close()

    return wrapper


def _counted(recorder: SpanRecorder, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return original(*args, **kwargs)

    return wrapper


def _observed(recorder: SpanRecorder, original, after):
    """Count what a call returns without a span (for calls that block on I/O)."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        after(recorder, result, args, kwargs)
        return result

    return wrapper


def _resolve(dotted: str):
    """``("module", "attr.path")`` -> the object, or ``None`` when absent."""
    module_name, _, attribute = dotted.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            return None
    target = module
    for part in attribute.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    return target


class Patcher:
    """Installs wrappers on the layer seams for one recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def function(self, dotted: str, make) -> None:
        """Replace a module-level function everywhere ``repro`` bound it."""
        original = _resolve(dotted)
        if original is None:
            self.recorder.missing.append(dotted)
            return
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)

    def method(self, dotted: str, make) -> None:
        """Replace a method on its class (and on subclasses defining their own)."""
        owner_path, _, method_name = dotted.rpartition(".")
        owner = _resolve(owner_path)
        if owner is None or method_name not in vars(owner):
            self.recorder.missing.append(dotted)
            return
        seen = set()
        pending = [owner]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if method_name in vars(cls):
                setattr(cls, method_name, make(vars(cls)[method_name]))


def _rows_of_engine_call(recorder, result, args, kwargs):
    # ClientEngine.compute_uploads(self, model, features, labels, n_workers, ...)
    recorder.count("engine.rows", kwargs.get("n_workers", args[4] if len(args) > 4 else 0))


def _first_stage_outcome(recorder, result, args, kwargs):
    accepted = result[1]
    recorder.count("aggregate.inspected", len(accepted))
    recorder.count("aggregate.accepted", int(accepted.sum()))


def _sent_bytes(recorder, result, args, kwargs):
    recorder.count("wire.frames")
    recorder.count("wire.bytes", result)


def _received_frame(recorder, result, args, kwargs):
    recorder.count("wire.frames")


def _received_bytes(recorder, result, args, kwargs):
    recorder.count("wire.bytes", len(result))


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer seam the benchmark reports on.

    Imports the modules that ``repro`` loads lazily (the two-stage rule,
    the service) first, so their classes exist to be patched.
    """
    for module in ("repro.core.protocol", "repro.federated.service"):
        __import__(module)
    patch = Patcher(recorder)

    def timed(name, after=None):
        return lambda original: _timed(recorder, name, original, after)

    def counted(name):
        return lambda original: _counted(recorder, name, original)

    def observed(after):
        return lambda original: _observed(recorder, original, after)

    # data
    patch.function("repro.data.registry:load_dataset", timed("data.load"))
    patch.function("repro.data.partition:partition_iid", timed("data.partition"))
    patch.function("repro.data.partition:partition_noniid", timed("data.partition"))
    patch.function("repro.data.auxiliary:sample_auxiliary", timed("data.auxiliary"))
    patch.function("repro.data.auxiliary:sample_mismatched_auxiliary", timed("data.auxiliary"))
    # privacy (+ core.hyperparams)
    patch.function("repro.core.hyperparams:protocol_sigma", timed("privacy.protocol_sigma"))
    patch.function("repro.privacy.calibration:calibrate_sigma", counted("privacy.calibrate_calls"))
    patch.function("repro.privacy.rdp:compute_rdp", counted("privacy.rdp_calls"))
    # federated build and teardown
    simulation = "repro.federated.simulation:FederatedSimulation"
    patch.method(f"{simulation}.__init__", timed("federated.build"))
    patch.method(f"{simulation}.close", timed("teardown.close"))
    # sampling
    patch.method("repro.federated.sampling:CohortSampler.draw", timed("sampling.draw"))
    patch.method("repro.federated.sampling:WorkerSource.datasets", timed("sampling.materialise"))
    patch.method("repro.federated.sampling:WorkerSource.round_rngs", timed("sampling.materialise"))
    patch.function("repro.federated.sampling:derive_rng", counted("sampling.derive_rng_calls"))
    # worker pools, the shard a remote worker computes, and the engines; a
    # wrapped shard function pickles by name like the original
    patch.method("repro.federated.worker:WorkerPool.compute_uploads", timed("worker.uploads"))
    patch.method(
        "repro.federated.worker:WorkerPool.iter_upload_blocks",
        lambda original: _timed_generator(
            recorder, "worker.uploads", original, "aggregate.stream_blocks"
        ),
    )
    patch.function("repro.federated.worker:_process_shard_task", timed("worker.shard"))
    patch.method(
        "repro.federated.engines:ClientEngine.compute_uploads",
        timed("engine.compute", _rows_of_engine_call),
    )
    # attack crafting, kept out of the pipeline's own time
    patch.method("repro.byzantine.base:Attack.craft", timed("attack.craft"))
    # aggregation: the rule, FirstAGG and the second stage
    patch.method("repro.defenses.base:Aggregator.aggregate", timed("aggregate.rule"))
    patch.method("repro.defenses.base:Aggregator.aggregate_stream", timed("aggregate.rule"))
    patch.method(
        "repro.core.first_stage:FirstStageFilter.apply_batch",
        timed("aggregate.first_stage", _first_stage_outcome),
    )
    second_stage = "repro.core.second_stage:SecondStageSelector"
    patch.method(f"{second_stage}.select", timed("aggregate.second_stage"))
    patch.method(f"{second_stage}.select_scored", timed("aggregate.second_stage"))
    # server and pipeline
    patch.method("repro.federated.server:Server.update", timed("server.update"))
    patch.method("repro.federated.server:Server.update_stream", timed("server.update"))
    patch.method("repro.federated.server:Server.evaluate", timed("server.evaluate"))
    patch.method("repro.federated.pipeline:RoundPipeline.run_round", timed("pipeline.round"))
    # wire: codec time in every process; frames and bytes (no spans: receiving blocks)
    patch.function("repro.federated.wire:encode_blob", timed("wire.encode"))
    patch.function("repro.federated.wire:decode_blob", timed("wire.decode"))
    patch.function("repro.federated.wire:send_message", observed(_sent_bytes))
    patch.function("repro.federated.wire:recv_message", observed(_received_frame))
    patch.function("repro.federated.wire:_recv_exact", observed(_received_bytes))
