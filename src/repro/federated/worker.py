"""Workers that follow the client-side protocol.

The hot path is :class:`WorkerPool`: it holds *all* protocol-following
workers of one population (honest, or Byzantine-but-protocol-following,
e.g. label flipping), samples each worker's mini-batch from that worker's
own generator in worker order, and drives a pluggable
:class:`~repro.federated.engines.ClientEngine` over bounded-size
**shards** of the population.  The default (``shard_size=None``) runs the
whole pool as one shard -- a single stacked forward/backward per round,
exactly the pre-shard behaviour; with ``shard_size=k`` the engine sees at
most ``k`` workers at a time, so peak scratch memory (the sampled batch
and the engine's gradient buffers) is bounded by the shard, not the
population.  Sharded and unsharded pools produce bitwise-identical
uploads: every protocol step is per-worker row-wise, so splitting the
worker axis never changes a single floating-point operation.  (The only
shape-dependent step is the stacked forward/backward GEMM, where BLAS
switches micro-kernels -- and accumulation order -- for degenerate row
counts of 1-3; the protocol's real batch sizes, multiples of 4, keep
every shard on the same kernel, which the regression tests assert.)

Shards are **independent between finalisations**: each shard touches only
its own workers' generators (sampling and noise), its own rows of the
pool's momentum state and its own rows of the upload matrix.  A pool may
therefore dispatch its shards through a parallel
:class:`~repro.federated.backends.ExecutionBackend` -- concurrently over
threads, or over worker processes with the flat parameters in shared
memory -- and still produce uploads bitwise identical to the serial
backend, no matter in which order shards complete (the backend's
ordered reduction plus the per-worker streams pin every result to its
worker index).  Each concurrent slot gets its own sampling scratch, its
own engine instance and -- because a :class:`~repro.nn.network
.Sequential` caches per-call state on its layers -- its own model
replica, refreshed from the true model's flat parameters each round.
When no ``shard_size`` is given, parallel backends split the pool into
``max_workers`` near-equal shards so the concurrency is actually used.

Every round dispatches its shards through the backend's
``map_resilient`` under a crash plan (a fault-free round is the zero
plan).  A shard lost to an injected crash past the retry budget, or to a
remote worker lost past the transport budget, leaves its workers' rows
zero and their state untouched; ``last_fault_report`` says which.

Mini-batches are gathered per worker straight out of each worker's own
dataset, so the pool no longer keeps a concatenated second copy of its
shard data alive (the pre-shard gather-matrix).

:class:`HonestWorker` is kept as a thin wrapper around a single-slot pool
for code (and tests) that talk to one worker at a time; upload-crafting
attacks are handled collectively by the simulation (the attacker controls
all its fake workers at once).
"""

from __future__ import annotations

import pickle
import queue
import threading
import uuid

import numpy as np

from repro.core.config import BackendConfig, DPConfig, EngineConfig
from repro.core.dp_protocol import BatchedDPState, LocalDPState
from repro.data.dataset import Dataset
from repro.federated.backends import (
    ExecutionBackend,
    RetryPolicy,
    SharedArray,
    TaskFailure,
    build_backend,
)
from repro.federated.engines import ClientEngine, build_engine
from repro.federated.faults import CrashCounter, PoolFaultReport, ShardFaultPlan
from repro.nn.network import Sequential

__all__ = ["HonestWorker", "WorkerPool", "WorkerSlot"]


class _ShardWorkspace:
    """Scratch of one concurrent execution slot.

    Holds the sampling buffers (sized by the largest shard), the slot's
    engine instance and -- for the parallel slots only -- a private model
    replica (``model is None`` means "use the caller's model directly",
    which is what the serial path and the first parallel slot do).
    """

    __slots__ = ("engine", "model", "_indices", "_features", "_labels")

    def __init__(self, engine: ClientEngine, model: Sequential | None = None) -> None:
        self.engine = engine
        self.model = model
        self._indices: np.ndarray | None = None
        self._features: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def ensure_scratch(self, batch: int, rows: int, feature_dim: int) -> None:
        """Allocate or reuse the gather buffers for one shard."""
        if self._features is None or self._features.shape != (rows, feature_dim):
            self._indices = np.empty(batch, dtype=np.int64)
            self._features = np.empty((rows, feature_dim), dtype=np.float64)
            self._labels = np.empty(rows, dtype=np.int64)

    def sample(
        self,
        datasets: list[Dataset],
        rngs: list[np.random.Generator],
        start: int,
        stop: int,
        batch: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack the shard's mini-batches into this workspace's scratch.

        Same draws as ``Dataset.sample_batch`` (uniform with replacement,
        each worker's own stream, worker order), gathered per worker
        straight from that worker's dataset -- no concatenated copy of
        the pool's data is kept.
        """
        assert self._indices is not None
        assert self._features is not None and self._labels is not None
        for position, index in enumerate(range(start, stop)):
            dataset, rng = datasets[index], rngs[index]
            self._indices[...] = rng.integers(0, len(dataset), size=batch)
            rows = slice(position * batch, (position + 1) * batch)
            np.take(dataset.features, self._indices, axis=0, out=self._features[rows])
            np.take(dataset.labels, self._indices, out=self._labels[rows])
        rows = (stop - start) * batch
        return self._features[:rows], self._labels[:rows]


#: Per-thread cache of (model, engine) pairs built by process-backend
#: tasks, keyed by the owning pool's token: repeated shard tasks in the
#: same worker reuse one skeleton and one engine's scratch.  The cache
#: must be thread-local, not merely process-local: service-mode workers
#: can run as threads of one process (the test harness does), and two
#: threads finalising shards of the same pool concurrently would race on
#: a shared model's parameters and activations.
_PROCESS_CACHE = threading.local()
_PROCESS_CACHE_LIMIT = 8


def _process_cache() -> dict[str, tuple[Sequential, ClientEngine]]:
    cache = getattr(_PROCESS_CACHE, "entries", None)
    if cache is None:
        cache = _PROCESS_CACHE.entries = {}
    return cache


def _process_shard_task(
    item: tuple[CrashCounter, tuple],
) -> tuple[np.ndarray, list[dict], int]:
    """One shard finalisation inside an out-of-process worker.

    ``item`` pairs the shard's :class:`~repro.federated.faults
    .CrashCounter` with its payload: the pool token plus pickled
    model/engine blobs (unpickled once per worker and cached), the
    shared-memory handle of the current flat parameters, the pre-sampled
    mini-batches, the shard's momentum rows and the shard's generators.
    The counter ticks (and possibly raises) *before* the shard runs, so a
    retried attempt starts from the exact pre-task state; the retry loop
    of ``map_resilient`` runs on the same unpickled item inside the
    worker, so the attempt count survives retries.  Returns the uploads,
    the post-noise generator states (the parent keeps its streams in sync
    with them) and the attempt count.
    """
    counter, payload = item
    counter.tick()
    (
        token,
        model_blob,
        engine_blob,
        parameters,
        features,
        labels,
        n_workers,
        momentum,
        dp_config,
        rngs,
    ) = payload
    cache = _process_cache()
    cached = cache.get(token)
    if cached is None:
        model = pickle.loads(model_blob)
        engine_ref = pickle.loads(engine_blob)
        engine = (
            engine_ref
            if isinstance(engine_ref, ClientEngine)
            else build_engine(engine_ref)
        )
        if len(cache) >= _PROCESS_CACHE_LIMIT:
            cache.clear()
        cache[token] = (model, engine)
    else:
        model, engine = cached
    vector = parameters.open() if isinstance(parameters, SharedArray) else parameters
    model.set_flat_parameters(vector)
    state = BatchedDPState(slot_momentum=momentum, batch_size=dp_config.batch_size)
    uploads = engine.compute_uploads(
        model, features, labels, n_workers, state, dp_config, rngs
    )
    return (
        np.array(uploads),
        [rng.bit_generator.state for rng in rngs],
        counter.calls,
    )


class WorkerPool:
    """All protocol-following workers of one population, batched in shards.

    Parameters
    ----------
    datasets:
        One private local dataset per worker.
    dp_config:
        Client-side DP settings shared by every worker in the pool.
    rngs:
        One private generator per worker (mini-batch sampling and DP
        noise).  Batches and noise are drawn from each worker's own stream
        in worker order, so the pool reproduces exactly what the workers
        would have drawn sequentially.
    engine:
        The client compute engine: a registered name (``"materialized"``,
        ``"ghost_norm"``), a :class:`~repro.core.config.EngineConfig`, a
        ready :class:`~repro.federated.engines.ClientEngine` instance, or
        ``None`` for the default materialized engine.  An
        ``EngineConfig``'s ``shard_size`` is used when the ``shard_size``
        argument is not given.  Parallel backends give every concurrent
        slot its own engine (via the spec, or ``engine.clone()`` for a
        ready instance).
    shard_size:
        Maximum number of workers per engine call; ``None`` keeps the pool
        in one shard under the serial backend and splits it into
        ``backend.max_workers`` near-equal shards under a parallel one.
        Sharding bounds peak scratch memory by the largest shard and is
        bitwise-identical to the unsharded pool.
    backend:
        How shards are dispatched: a registered name (``"serial"``,
        ``"threaded"``, ``"process"``), a
        :class:`~repro.core.config.BackendConfig`, a ready
        :class:`~repro.federated.backends.ExecutionBackend` instance
        (shared backends reuse one thread/process pool across worker
        pools), or ``None`` for the serial reference.  Every backend
        produces bitwise-identical uploads.
    """

    def __init__(
        self,
        datasets: list[Dataset],
        dp_config: DPConfig,
        rngs: list[np.random.Generator],
        engine: str | ClientEngine | EngineConfig | None = None,
        shard_size: int | None = None,
        backend: str | ExecutionBackend | BackendConfig | None = None,
    ) -> None:
        if not datasets:
            raise ValueError("WorkerPool requires at least one worker")
        if len(rngs) != len(datasets):
            raise ValueError(
                f"expected {len(datasets)} generators, got {len(rngs)}"
            )
        dims = {dataset.dim for dataset in datasets}
        if len(dims) > 1:
            raise ValueError(f"workers disagree on feature dimensionality: {dims}")
        for dataset in datasets:
            if len(dataset) == 0:
                raise ValueError("worker dataset must not be empty")
        if shard_size is None and isinstance(engine, EngineConfig):
            shard_size = engine.shard_size
        if shard_size is not None and shard_size <= 0:
            raise ValueError("shard_size must be positive when set")
        self.datasets = list(datasets)
        self.dp_config = dp_config
        self.rngs = list(rngs)
        self.backend = build_backend(backend)
        self._engine_source = engine
        self.engine = build_engine(engine)
        self.state = BatchedDPState()
        n = len(self.datasets)
        if shard_size is None:
            # Parallel backends split the pool into near-equal shards so
            # the configured concurrency is actually exercised; the serial
            # reference keeps the whole pool in one stacked call.
            jobs = min(self.backend.max_workers, n)
            size = n if jobs <= 1 else -(-n // jobs)
        else:
            size = min(shard_size, n)
        self.shard_size = size
        self._shard_bounds = [
            (start, min(start + size, n)) for start in range(0, n, size)
        ]
        # Execution slots: slot 0 (the serial path) samples into its own
        # reusable scratch and drives the pool's primary engine on the
        # caller's model; parallel slots are appended lazily with private
        # engines and model replicas.
        self._primary = _ShardWorkspace(self.engine)
        self._workspaces: list[_ShardWorkspace] = [self._primary]
        self._replica_source: Sequential | None = None
        # Process-backend state: the pickled model skeleton (parameters
        # travel separately through shared memory) and the pool token the
        # worker-process caches key on.
        self._model_blob: bytes | None = None
        self._engine_blob: bytes | None = None
        self._blob_source: Sequential | None = None
        # Cache-invalidation token only: never feeds any computed result.
        self._process_token = uuid.uuid4().hex  # repro-lint: disable=REP001 -- cache key only
        #: what the last round observed (``None`` when every shard
        #: succeeded at its first attempt)
        self.last_fault_report: PoolFaultReport | None = None

    @property
    def n_workers(self) -> int:
        """Number of workers in the pool."""
        return len(self.datasets)

    @property
    def n_shards(self) -> int:
        """Number of bounded-size shards the engine is driven over."""
        return len(self._shard_bounds)

    @property
    def shard_bounds(self) -> list[tuple[int, int]]:
        """Half-open worker-index ranges of the shards, in order."""
        return list(self._shard_bounds)

    @property
    def slots(self) -> list["WorkerSlot"]:
        """Per-worker views (dataset, generator, momentum) into the pool."""
        return [WorkerSlot(self, index) for index in range(self.n_workers)]

    def assign(
        self, datasets: list[Dataset], rngs: list[np.random.Generator]
    ) -> None:
        """Re-point every slot at a freshly sampled cohort.

        Cross-device rounds draw a new cohort from the registered
        population each round; the pool's slot count (and therefore its
        shard bounds and scratch sizes) stays constant while the slots'
        datasets and generators are swapped in.  Momentum is zeroed:
        a sampled worker starts its participation from a fresh local
        state, the standard stateless-client semantics of cross-device
        federated learning.
        """
        if len(datasets) != self.n_workers or len(rngs) != self.n_workers:
            raise ValueError(
                f"assign expects exactly {self.n_workers} datasets and "
                f"generators, got {len(datasets)} and {len(rngs)}"
            )
        dims = {dataset.dim for dataset in datasets}
        if len(dims) > 1:
            raise ValueError(f"workers disagree on feature dimensionality: {dims}")
        for dataset in datasets:
            if len(dataset) == 0:
                raise ValueError("worker dataset must not be empty")
        self.datasets = list(datasets)
        self.rngs = list(rngs)
        self.state.slot_momentum[...] = 0.0

    # ------------------------------------------------------------------ #
    # shard execution
    # ------------------------------------------------------------------ #
    def _run_shard(
        self,
        model: Sequential,
        workspace: _ShardWorkspace,
        bounds: tuple[int, int],
    ) -> np.ndarray:
        """Sample, run the engine and finalise one shard; returns its uploads.

        Touches only the shard's own worker streams and momentum rows, so
        concurrent calls on *distinct* workspaces never share mutable
        state.  The result may be a view into the workspace's engine
        scratch: callers copy it out before releasing the workspace.
        """
        start, stop = bounds
        batch = self.dp_config.batch_size
        workspace.ensure_scratch(
            batch, self.shard_size * batch, self.datasets[0].dim
        )
        features, labels = workspace.sample(
            self.datasets, self.rngs, start, stop, batch
        )
        shard_state = BatchedDPState(
            slot_momentum=self.state.slot_momentum[start:stop],
            batch_size=batch,
        )
        return workspace.engine.compute_uploads(
            model if workspace.model is None else workspace.model,
            features,
            labels,
            stop - start,
            shard_state,
            self.dp_config,
            self.rngs[start:stop],
        )

    def iter_upload_blocks(self, model: Sequential):
        """Yield the round's uploads shard-by-shard (fault-free rounds only).

        The streaming sibling of :meth:`compute_uploads`: blocks arrive
        in worker order and their concatenation is bitwise-identical to
        the ``(n, d)`` matrix, which never exists -- peak memory is the
        in-flight shards' uploads plus the engine scratch no matter how
        large the cohort.  Parallel backends overlap shard computation
        behind the backend's ordered lazy iterator (leased workspaces,
        copies per block).  Only in-process backends stream; an
        out-of-process one raises ``TypeError``.
        """
        if not self.backend.in_process:
            raise TypeError(
                f"{type(self.backend).__name__} runs out of process and "
                "cannot stream upload blocks; use compute_uploads"
            )
        n, batch = self.n_workers, self.dp_config.batch_size
        self.state.ensure_shape(n, batch, model.num_parameters)
        self.last_fault_report = None
        free: queue.SimpleQueue = queue.SimpleQueue()
        jobs = min(self.backend.max_workers, self.n_shards)
        for workspace in self._leased_workspaces(model, jobs):
            free.put(workspace)

        def run_shard(bounds: tuple[int, int]) -> np.ndarray:
            workspace = free.get()
            try:
                return np.array(self._run_shard(model, workspace, bounds))
            finally:
                free.put(workspace)

        yield from self.backend.map_streamed(run_shard, self._shard_bounds)

    def _new_engine(self) -> ClientEngine:
        """A fresh engine for a parallel slot (spec rebuild, or clone)."""
        if isinstance(self._engine_source, ClientEngine):
            return self._engine_source.clone()
        return build_engine(self._engine_source)

    def _leased_workspaces(self, model: Sequential, jobs: int) -> list[_ShardWorkspace]:
        """The first ``jobs`` execution slots, replicas synced to ``model``.

        Slot 0 uses the caller's model directly; every further slot owns a
        model replica (a :class:`Sequential` caches per-call state on its
        layers, so concurrent shards must not share one).  Replicas are
        kept across rounds and refreshed from the true model's flat
        parameters -- an exact copy, so replica rounds are bitwise
        identical to true-model rounds.
        """
        if self._replica_source is not model:
            self._workspaces = [self._primary]
            self._replica_source = model
        while len(self._workspaces) < jobs:
            self._workspaces.append(
                _ShardWorkspace(self._new_engine(), model.clone())
            )
        workspaces = self._workspaces[:jobs]
        if jobs > 1:
            flat = model.get_flat_parameters()
            for workspace in workspaces[1:]:
                workspace.model.set_flat_parameters(flat)
        return workspaces

    def _run_in_process(
        self,
        model: Sequential,
        uploads: np.ndarray,
        counters: list[CrashCounter],
        policy: RetryPolicy,
    ) -> list:
        """Dispatch the shards over the backend's in-process concurrency.

        Workspaces are leased per task, so any shard can run on any
        slot; results land in ``uploads`` by shard index (and noise and
        momentum by worker index), which makes the outcome independent
        of shard completion order.  Returns the ordered ``map_resilient``
        results (``TaskFailure`` for a shard that exhausted ``policy``).
        """

        def run_shard(workspace: _ShardWorkspace, shard_index: int) -> None:
            # The injected crash fires before sampling touches any worker
            # stream; a retry therefore re-enters a pristine shard.
            counters[shard_index].tick()
            start, stop = self._shard_bounds[shard_index]
            uploads[start:stop] = self._run_shard(model, workspace, (start, stop))

        jobs = min(self.backend.max_workers, self.n_shards)
        return self.backend.map_resilient(
            run_shard,
            range(self.n_shards),
            policy,
            resources=self._leased_workspaces(model, jobs),
        )

    def _run_out_of_process(
        self,
        model: Sequential,
        uploads: np.ndarray,
        counters: list[CrashCounter],
        policy: RetryPolicy,
    ) -> list:
        """Dispatch the shards over an out-of-process backend.

        Mini-batches are sampled in the parent (each worker's own stream,
        worker order -- identical draws to the in-process path), the
        model skeleton is pickled once per pool and the current flat
        parameters travel through the backend's shared memory.  Workers
        return the uploads plus their generators' post-noise states;
        restoring those keeps the parent's streams bit-identical to an
        in-process round, and the momentum overwrite (Algorithm 1 line
        11) equals the uploads, so the parent's state needs no second
        payload.

        Shards scheduled to fail on every attempt are never sampled or
        dispatched, as in process, where the crash fires before sampling.
        A dispatched shard may still come back as a :class:`TaskFailure`
        (an advisory deadline, or a remote shard lost in transit).  Each
        counter's ``calls`` is updated to the attempts its shard took.
        """
        batch = self.dp_config.batch_size
        if self._model_blob is None or self._blob_source is not model:
            # The binding caches views into engine scratch; drop them so
            # the skeleton blob carries the model, not the buffers.
            model.unbind_per_example_grad_buffers()
            self._model_blob = pickle.dumps(model)
            self._blob_source = model
            # Fresh token invalidates the worker-process caches; cache key only.
            self._process_token = uuid.uuid4().hex  # repro-lint: disable=REP001 -- cache key only
            engine_ref = (
                self._engine_source.clone()
                if isinstance(self._engine_source, ClientEngine)
                else self._engine_source
            )
            self._engine_blob = pickle.dumps(engine_ref)
        share = getattr(self.backend, "share_array", None)
        flat = model.get_flat_parameters()
        parameters = share(flat) if callable(share) else flat
        self._primary.ensure_scratch(
            batch, self.shard_size * batch, self.datasets[0].dim
        )
        results: list = []
        live: list[int] = []
        items: list[tuple[CrashCounter, tuple]] = []
        for index, (counter, (start, stop)) in enumerate(
            zip(counters, self._shard_bounds)
        ):
            if counter.failures >= policy.max_attempts:
                counter.calls = policy.max_attempts
                results.append(TaskFailure(
                    index=index,
                    attempts=counter.calls,
                    error="scheduled to crash on every attempt; not dispatched",
                ))
                continue
            features, labels = self._primary.sample(
                self.datasets, self.rngs, start, stop, batch
            )
            results.append(None)
            live.append(index)
            items.append((counter, (
                self._process_token,
                self._model_blob,
                self._engine_blob,
                parameters,
                np.array(features),
                np.array(labels),
                stop - start,
                np.array(self.state.slot_momentum[start:stop]),
                self.dp_config,
                self.rngs[start:stop],
            )))
        dispatched = self.backend.map_resilient(_process_shard_task, items, policy)
        for index, result in zip(live, dispatched):
            results[index] = result
            counter = counters[index]
            if isinstance(result, TaskFailure):
                counter.calls = result.attempts
                continue
            start, stop = self._shard_bounds[index]
            shard_uploads, rng_states, counter.calls = result
            uploads[start:stop] = shard_uploads
            for worker, state in zip(range(start, stop), rng_states):
                self.rngs[worker].bit_generator.state = state
            np.copyto(self.state.slot_momentum[start:stop], uploads[start:stop])
        return results

    def compute_uploads(
        self, model: Sequential, crash_plan: ShardFaultPlan | None = None
    ) -> np.ndarray:
        """One protocol iteration for every worker; returns ``(n_workers, d)``.

        The caller is responsible for having loaded the current global
        parameters into ``model`` (model broadcasting, Algorithm 1 line 3).
        Each shard travels through the pool's engine with a momentum-state
        view into the pool's full state, so per-worker momentum and noise
        streams are independent of the sharding -- and, because shards are
        independent between finalisations, of the execution backend and of
        shard completion order.

        Shards crash and retry as ``crash_plan`` (see :class:`~repro
        .federated.faults.ShardFaultPlan`) schedules; ``None`` is the zero
        plan.  A shard's crash fires before it touches any state, so
        recovered shards are bitwise identical to never-failing ones.
        Shards that exhaust the plan's retry policy -- or that a remote
        backend loses in transit -- leave zero upload rows and untouched
        worker state, and :attr:`last_fault_report` describes the round.
        """
        n, batch = self.n_workers, self.dp_config.batch_size
        dimension = model.num_parameters
        self.state.ensure_shape(n, batch, dimension)
        if crash_plan is None:
            failures = np.zeros(self.n_shards, dtype=np.int64)
            policy = RetryPolicy()
        else:
            failures = np.asarray(crash_plan.failures, dtype=np.int64)
            policy = crash_plan.policy
        if failures.shape != (self.n_shards,):
            raise ValueError(
                f"crash plan covers {failures.shape} shards, pool has "
                f"{self.n_shards}"
            )
        counters = [CrashCounter(k) for k in failures]
        uploads = np.zeros((n, dimension), dtype=np.float64)
        run = (
            self._run_in_process if self.backend.in_process
            else self._run_out_of_process
        )
        results = run(model, uploads, counters, policy)
        failed_workers = np.zeros(n, dtype=bool)
        crashed_shards = 0
        for (start, stop), counter, result in zip(
            self._shard_bounds, counters, results
        ):
            lost = isinstance(result, TaskFailure)
            if lost:
                failed_workers[start:stop] = True
            if lost or counter.calls > 1:
                crashed_shards += 1
        self.last_fault_report = None
        if crashed_shards:
            self.last_fault_report = PoolFaultReport(
                failed_workers=failed_workers,
                retried=sum(counter.calls - 1 for counter in counters),
                crashed_shards=crashed_shards,
            )
        return uploads

    def reset(self) -> None:
        """Clear every worker's momentum state (start of a fresh run)."""
        self.state = BatchedDPState()


class WorkerSlot:
    """Read-only view of one worker inside a :class:`WorkerPool`."""

    def __init__(self, pool: WorkerPool, index: int) -> None:
        self.pool = pool
        self.index = index

    @property
    def dataset(self) -> Dataset:
        """The worker's private local dataset."""
        return self.pool.datasets[self.index]

    @property
    def rng(self) -> np.random.Generator:
        """The worker's private random generator."""
        return self.pool.rngs[self.index]

    @property
    def state(self) -> LocalDPState:
        """The worker's momentum list as a scalar-protocol state view.

        **Diagnostic view only.**  The returned ``(b_c, d)`` momentum is a
        fresh, read-only broadcast of the pool's rank-1 per-worker state
        (all slots of a worker are identical between rounds, Algorithm 1
        line 11).  Mutations to the returned object do not feed back into
        the pool -- drive the protocol via the pool (or
        :meth:`HonestWorker.compute_upload`), not via scalar
        :func:`~repro.core.dp_protocol.local_update` on this view.
        """
        if self.pool.state.slot_momentum.shape[0] <= self.index:
            return LocalDPState()
        return LocalDPState(momentum=self.pool.state.momentum_of(self.index))

    @state.setter
    def state(self, value: LocalDPState) -> None:
        """Reject assignment: worker state lives in the pool."""
        raise AttributeError(
            "worker state lives in the WorkerPool; use pool.reset() (or "
            "HonestWorker.reset()) instead of assigning a LocalDPState"
        )


class HonestWorker:
    """A single protocol-following worker: a thin wrapper over a 1-slot pool.

    Parameters
    ----------
    dataset:
        The worker's private local dataset.
    dp_config:
        Client-side DP settings (batch size, noise multiplier, momentum,
        sensitivity bounding mode).
    rng:
        The worker's private random generator (mini-batch sampling and DP
        noise).
    engine:
        Optional client compute engine specification (see
        :class:`WorkerPool`).
    """

    def __init__(
        self,
        dataset: Dataset,
        dp_config: DPConfig,
        rng: np.random.Generator,
        engine: str | ClientEngine | EngineConfig | None = None,
    ) -> None:
        self._pool = WorkerPool([dataset], dp_config, [rng], engine=engine)

    @property
    def dataset(self) -> Dataset:
        """The worker's private local dataset (read-only; the pool samples
        from it, so reassignment would be silently ignored -- build a new
        worker instead)."""
        return self._pool.datasets[0]

    @property
    def dp_config(self) -> DPConfig:
        """The worker's client-side DP settings (read-only)."""
        return self._pool.dp_config

    @property
    def rng(self) -> np.random.Generator:
        """The worker's private random generator (read-only attribute; the
        generator object itself advances as the worker runs)."""
        return self._pool.rngs[0]

    def compute_upload(self, model: Sequential) -> np.ndarray:
        """One local iteration of Algorithm 1 at the current global model."""
        return self._pool.compute_uploads(model)[0]

    @property
    def state(self) -> LocalDPState:
        """The worker's momentum state (read-only diagnostic view).

        See :attr:`WorkerSlot.state`: mutations do not feed back; use
        :meth:`compute_upload` and :meth:`reset` to drive the protocol.
        """
        return self._pool.slots[0].state

    @state.setter
    def state(self, value: LocalDPState) -> None:
        """Reject assignment: the state is a read-only pool view."""
        raise AttributeError(
            "HonestWorker.state is a read-only view into its WorkerPool; "
            "call reset() instead of assigning a LocalDPState"
        )

    def reset(self) -> None:
        """Clear the momentum state (start of a fresh training run)."""
        self._pool.reset()
