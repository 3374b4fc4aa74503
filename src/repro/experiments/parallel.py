"""Plan/executor engine: compile experiment grids, run them anywhere.

Work in this repo — :func:`~repro.experiments.harness.run_batch` /
:func:`~repro.experiments.harness.run_third_party` grids, the
benchmark sweeps, and the row-chunked compute fan-outs of the metamodel
layer — describes itself as a flat, deterministic task list (one kwargs
dict per call of a module-level function) and hands it to
:func:`execute` here.  Execution happens in three explicit layers:

* **Plan.**  :func:`compile_plan` freezes the work into an
  :class:`ExecutionPlan`: the task list (seeds fixed at plan time, from
  grid position), each task's original grid index and store key, and
  the data-plane refs of every shared array (test samples, plan
  context) published once through
  :class:`~repro.experiments.dataplane.DataPlane`.  Nothing about a
  compiled plan depends on which executor later runs it.
* **Executors.**  :class:`SerialExecutor` (the reference loop),
  :class:`ProcessExecutor` (a process pool whose workers map the plan's
  shared arrays zero-copy instead of regenerating or unpickling them),
  and :class:`ShardedExecutor` (the plan split across store-coordinated
  shards so independent invocations cooperate on one grid).  All three
  return bit-identical results in task-list order — locked down by
  ``tests/test_parallel_harness.py``.
* **Data plane.**  Executors that cross process boundaries publish the
  plan's arrays through a :class:`~repro.experiments.dataplane.DataPlane`
  and unlink every segment in a ``finally`` block, so clean runs and
  poisoned tasks alike leave no shared memory behind.

Three properties keep every executor bit-identical to the serial loop:

* **seed-stable task ordering** — every task carries its explicit seed,
  computed from its grid position at plan time, so the work a task does
  never depends on which worker (or shard) picks it up;
* **deterministic collection** — results are gathered by plan index,
  not completion order;
* **shared immutable inputs** — workers read the very same test arrays
  the parent materialized, through the data plane, instead of
  regenerating them per worker.

``jobs <= 1`` falls back to the serial executor (no pool, no pickling),
which is also the default everywhere.

``jobs`` is a **global worker budget**, not a per-level knob.  The
planner splits it once across the grid level and the chunked inner
level: a budgeted executor runs ``min(jobs, tasks)`` grid workers and
hands each a *lease* of ``jobs // workers`` inner workers, delivered
through the plan bootstrap and read back by the task via
:func:`budgeted_jobs`.  A grid task threads its lease into its own
chunked fan-outs (ensemble labeling, metamodel tuning folds, trajectory
evaluation), and :class:`ProcessExecutor` additionally clamps any
nested request to the ambient lease — so ``jobs=8`` means eight
concurrently-working processes total, never ``8 x 8``.  Leases never
change results (every jobs/chunk setting is pinned bit-identical); the
budget is purely a throughput contract.

**One dispatch loop per executor.**  Every plan runs through one of two
loops: :func:`_run_inline` (serial execution, and the degraded tail of
a pool run) or :meth:`ProcessExecutor._run_tolerant`.  There is no
separate fast path: ``execute(retries=N)`` always gives every task a
:class:`RetryPolicy` (exponential backoff with seeded deterministic
jitter), ``retries=0`` being the one-attempt policy.  Each failed
attempt is journalled in the store's ``failures/`` tree.  At
``retries=0`` a task's own exception propagates unchanged; with
``retries > 0`` a task that exhausts its attempts is *quarantined* —
the grid completes the remaining cells and raises a structured
:class:`GridFailureError` at the end instead of dying on the first
error.  ``task_timeout=`` arms a per-task watchdog in
:class:`ProcessExecutor`: workers touch heartbeat files as tasks start,
and a heartbeat older than the timeout means a dead or hung worker —
the pool is killed and respawned, in-flight tasks are charged or
requeued by heartbeat attribution.  When a pool cannot be spawned, or
is poisoned twice in one run, execution degrades to the serial loop
with a logged warning rather than crashing.  All of it is exercised
deterministically through :mod:`repro.experiments.faults`
(``REDS_FAULT_PLAN``), and results under injected faults stay
bit-identical to fault-free runs — the engine-equivalence discipline
extended to the failure domain.

With ``store=`` (an :class:`~repro.experiments.store.ExperimentStore`
or a directory path) :func:`execute` becomes resumable: cached records
are loaded up front, only the missing tasks are dispatched, and every
fresh record is persisted as soon as it completes.  All store I/O
happens in the dispatching process, so workers need no locking and a
crash mid-grid loses at most the in-flight tasks.  The store doubles as
the coordination substrate of sharded execution: every task execution
is arbitrated by an atomic store claim marker, shard ``i`` of ``k``
claims the pending tasks whose grid index is congruent to ``i`` first
(the modulo partition is the priority order), and a shard that drains
its own slice **steals** still-unclaimed pending tasks instead of
idling — zero duplicated executions by construction, work-conserving
under skew, and every record still read back from the store as the
sibling invocations publish theirs.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import pickle
import secrets
import tempfile
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro import warm
from repro.experiments import faults
from repro.experiments.dataplane import (
    DataPlane,
    dataplane_enabled,
    resolve_refs,
)
from repro.experiments.store import MISSING, open_store

__all__ = [
    "ExecutionPlan",
    "GridFailureError",
    "ProcessExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "ShardedExecutor",
    "TaskFailure",
    "EXECUTORS",
    "budgeted_jobs",
    "close_pools",
    "compile_plan",
    "cpu_budget",
    "default_jobs",
    "execute",
    "get_executor",
    "parse_shard",
    "plan_context",
    "pool_stats",
    "reset_pool_stats",
    "run_chunked",
    "warm_test_cache",
    "worker_budget",
]

logger = logging.getLogger(__name__)

#: Names accepted by ``executor=`` arguments and the CLI ``--executor``.
EXECUTORS = ("serial", "process", "sharded")


def cpu_budget() -> int:
    """CPUs actually available to this process, floor 1.

    ``os.cpu_count()`` reports the machine; containers, cgroup limits
    and ``taskset`` restrict processes to fewer cores, which
    ``os.sched_getaffinity`` reflects.  Sizing pools from the machine
    count oversubscribes restricted runners, so every layer that needs
    "how many workers can actually run" — ``jobs=None`` resolution and
    the benchmark floor gates — shares this helper.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(len(getaffinity(0)), 1)
        except OSError:  # pragma: no cover - exotic platform failure
            pass
    return max(os.cpu_count() or 1, 1)


def default_jobs() -> int:
    """Worker count for ``jobs=None``: all *available* CPUs, floor 1."""
    return cpu_budget()


def warm_test_cache(specs: Sequence[tuple[str, str, int]]) -> None:
    """Fill this process's test-data cache for (function, variant, size).

    The pre-data-plane warmup path, kept as the fallback when shared
    memory is unavailable: each worker regenerates the test sets once at
    bootstrap instead of once per task.
    """
    from repro.experiments.harness import get_test_data

    for function, variant, size in specs:
        get_test_data(function, variant, size)


# ----------------------------------------------------------------------
# Execution plans
# ----------------------------------------------------------------------

@dataclass
class ExecutionPlan:
    """A compiled, executor-independent description of a grid's work.

    Attributes
    ----------
    func:
        Module-level task function; workers import it by qualified name.
    tasks:
        One kwargs dict per call.  Seeds are already inside (fixed at
        plan time from grid position), so execution order cannot change
        any result.
    indices:
        Original grid position of each task — the stable identity that
        sharded executors partition on, independent of how many tasks a
        warm store already resolved.
    keys:
        Store key per task (``None`` without a store).
    warmup:
        (function, variant, size) test-data specs the tasks will read;
        the fallback worker bootstrap when the data plane is disabled.
    test_refs:
        Data-plane refs ``{spec: (x_ref, y_ref)}`` of the materialized
        test arrays; workers register them so ``get_test_data`` maps
        shared memory instead of regenerating 20000-point samples.
    context:
        Arbitrary picklable object shipped once per worker (not per
        task) and exposed through :func:`plan_context`; may contain
        :class:`~repro.experiments.dataplane.ArrayRef` values, which are
        resolved at worker bootstrap.
    store:
        The coordinating store (sharded execution reads foreign records
        from it).
    """

    func: Callable
    tasks: list[dict]
    indices: tuple[int, ...] = ()
    keys: tuple[str, ...] | None = None
    warmup: tuple[tuple[str, str, int], ...] = ()
    test_refs: dict | None = None
    context: object = None
    store: object = None

    def __post_init__(self) -> None:
        if not self.indices:
            self.indices = tuple(range(len(self.tasks)))
        if len(self.indices) != len(self.tasks):
            raise ValueError(
                f"{len(self.tasks)} tasks but {len(self.indices)} indices")

    def subset(self, selection: Sequence[int]) -> "ExecutionPlan":
        """A plan over a subset of this plan's tasks (shared refs/context)."""
        return replace(
            self,
            tasks=[self.tasks[j] for j in selection],
            indices=tuple(self.indices[j] for j in selection),
            keys=(None if self.keys is None
                  else tuple(self.keys[j] for j in selection)),
        )

    def __len__(self) -> int:
        return len(self.tasks)


def compile_plan(
    func: Callable,
    tasks: Sequence[dict],
    *,
    indices: Sequence[int] | None = None,
    keys: Sequence[str] | None = None,
    warmup: Sequence[tuple[str, str, int]] = (),
    context: object = None,
    shared: dict | None = None,
    store=None,
    plane: DataPlane | None = None,
) -> ExecutionPlan:
    """Freeze a task list into an :class:`ExecutionPlan`.

    Parameters
    ----------
    shared:
        ``{name: ndarray}`` of large read-only inputs every task needs.
        With a ``plane`` they are published to shared memory and their
        refs merged into the plan context under their names; without
        one they are merged inline (serial execution reads them
        directly).
    plane:
        Data plane to publish through.  When given, the ``warmup`` test
        sets are materialized once here in the parent and published as
        ``test_refs``, replacing per-worker regeneration.
    """
    tasks = list(tasks)
    warmup = tuple(tuple(spec) for spec in warmup)
    test_refs = None
    if plane is not None and warmup:
        from repro.experiments.harness import get_test_data

        test_refs = {}
        for spec in warmup:
            x, y = get_test_data(*spec)
            test_refs[spec] = (plane.publish(x), plane.publish(y))
    if shared:
        published = ({name: plane.publish(array)
                      for name, array in shared.items()}
                     if plane is not None else dict(shared))
        base = dict(context) if isinstance(context, dict) else \
            ({} if context is None else {"context": context})
        context = {**base, **published}
    return ExecutionPlan(
        func=func,
        tasks=tasks,
        indices=tuple(indices) if indices is not None else (),
        keys=tuple(keys) if keys is not None else None,
        warmup=warmup,
        test_refs=test_refs,
        context=context,
        store=store,
    )


# ----------------------------------------------------------------------
# Plan context plumbing (shared arrays / models for chunked tasks)
# ----------------------------------------------------------------------

#: Worker-process context, set once at pool bootstrap (workers are
#: single-threaded, so a plain global is safe there).
_PLAN_CONTEXT: object = None
_CONTEXT_ERROR: BaseException | None = None

#: Inner worker lease of the budgeted plan running in this process:
#: how many workers the current task may use for its own chunked
#: fan-outs.  ``None`` means no budgeted plan is active.  Pool workers
#: receive it at bootstrap (:func:`_init_worker`); in-process budgeted
#: execution installs it thread-locally on :data:`_TLS`.
_WORKER_LEASE: int | None = None

#: In-process (serial-executor) context, thread-local: concurrent
#: in-process executions — e.g. sharded invocations driven from
#: threads — must not see each other's arrays.
_TLS = threading.local()


def plan_context():
    """The running plan's resolved context (shared arrays, models, ...).

    Valid inside task functions while an executor is running a plan
    whose ``context`` is set: the serial executor installs it around its
    loop (per thread), process workers resolve it once at bootstrap.
    """
    local = getattr(_TLS, "context", None)
    if local is not None:
        return local
    if _CONTEXT_ERROR is not None:
        raise RuntimeError(
            "the execution-plan context failed to initialise in this "
            "worker") from _CONTEXT_ERROR
    if _PLAN_CONTEXT is None:
        raise RuntimeError("no execution-plan context is active in this "
                           "process")
    return _PLAN_CONTEXT


def worker_budget() -> int | None:
    """The running task's inner worker lease, ``None`` outside a plan.

    Set by the planner when it splits a global ``jobs`` budget: each
    grid worker gets ``jobs // workers`` inner workers for its own
    chunked fan-outs.  Thread-local installs (in-process budgeted
    execution) shadow the process-wide lease of pool workers.
    """
    lease = getattr(_TLS, "lease", None)
    if lease is not None:
        return lease
    return _WORKER_LEASE


def budgeted_jobs(default: int = 1) -> int:
    """The ``jobs=`` a task should pass to its own chunked fan-outs.

    Inside a budgeted plan this is the worker's lease; outside any plan
    it is ``default`` (1: a directly-called task stays serial, exactly
    the historical behaviour).  Grid tasks thread this into
    ``discover``/``predict_chunked``/``tune_metamodel`` instead of a
    hard-coded ``jobs=1`` — the planner, not the task, decides how the
    global budget splits across levels.
    """
    lease = worker_budget()
    return default if lease is None else lease


def _log_spawn(workers: int, lease: int) -> None:
    """Append one pool-spawn line to the ``REDS_SPAWN_LOG`` file, if set.

    Instrumentation for the oversubscription tests: each line records
    ``<pid> <ambient-lease or -> <pool workers> <per-worker lease>``,
    so a test can assert that a ``jobs=N`` run never puts more than
    ``N`` workers to work at once, across all nesting levels.
    """
    path = os.environ.get("REDS_SPAWN_LOG")
    if not path:
        return
    ambient = worker_budget()
    line = (f"{os.getpid()} {'-' if ambient is None else ambient} "
            f"{workers} {lease}\n")
    with open(path, "a") as handle:
        handle.write(line)


def _init_worker(warmup, test_refs, context, lease: int | None = None,
                 warm_scope: bool = False) -> None:
    """Worker bootstrap: map shared test data, resolve the plan context.

    Test-data failures are deliberately swallowed — a broken spec would
    otherwise crash the worker at startup, while the task that actually
    needs it reports the real error through its future.  Context
    failures are remembered and re-raised by :func:`plan_context` from
    the task that relies on them.  ``lease`` is the worker's share of
    the plan's global budget, surfaced through :func:`budgeted_jobs`.
    ``warm_scope`` says whether the pool was spawned inside a warm
    scope: the worker then keeps its own nested pools, segments and
    fits warm too, whatever its start method inherited.
    """
    global _PLAN_CONTEXT, _CONTEXT_ERROR, _WORKER_LEASE
    _WORKER_LEASE = lease
    if warm_scope and not warm.active():
        warm.enter()
    if os.environ.get("REDS_NATIVE_ACTIVE"):
        # An engine="native" run is live in this process tree: load the
        # disk-cached compiled kernels now so no task pays a compile.
        try:
            from repro.engines import warmup_native

            warmup_native()
        except Exception:
            pass
    try:
        if test_refs:
            from repro.experiments.harness import register_test_data

            register_test_data(test_refs)
        elif warmup:
            warm_test_cache(warmup)
    except Exception:
        pass
    try:
        _PLAN_CONTEXT = resolve_refs(context)
        _CONTEXT_ERROR = None
    except BaseException as exc:  # noqa: BLE001 - surfaced via plan_context
        _PLAN_CONTEXT = None
        _CONTEXT_ERROR = exc


# ----------------------------------------------------------------------
# Retry policy, failure accounting and fault-aware task invocation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How many times a failed task is re-attempted, and how it backs off.

    Backoff for attempt ``a`` (1-based count of *failures so far*) is
    ``min(backoff_base * backoff_factor**(a-1), backoff_max)`` scaled by
    a deterministic jitter in ``[0.5, 1.0]`` derived from
    ``sha256(seed, token, a)`` — seeded jitter decorrelates sibling
    retries without introducing wall-clock randomness, so the same run
    replays the same delays.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    seed: int = 0

    def delay(self, token: str, attempt: int) -> float:
        """Seconds to wait before re-running ``token`` after ``attempt``
        failures."""
        if attempt <= 0:
            return 0.0
        base = min(self.backoff_base * self.backoff_factor ** (attempt - 1),
                   self.backoff_max)
        digest = hashlib.sha256(
            f"{self.seed}:{token}:{attempt}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (0.5 + 0.5 * draw)


@dataclass(frozen=True)
class TaskFailure:
    """One quarantined task: its grid identity and how it died."""

    index: int
    key: str | None
    attempts: int
    error: str


class GridFailureError(RuntimeError):
    """Raised after a tolerant grid finishes with quarantined tasks.

    Unlike the fail-fast default, this carries the *complete* picture:
    ``failures`` lists every task that exhausted its retries, and
    ``results`` holds the full grid in task order with
    :data:`~repro.experiments.store.MISSING` at the failed positions —
    everything that could complete, did, and was persisted.
    """

    def __init__(self, failures: Sequence[TaskFailure], results: list):
        self.failures = list(failures)
        self.results = results
        super().__init__(self.summary())

    def summary(self) -> str:
        """A compact human-readable failure table."""
        done = sum(1 for r in self.results if r is not MISSING)
        lines = [
            f"{len(self.failures)} task(s) quarantined after retries "
            f"({done} of {len(self.results)} completed)",
            f"  {'grid-index':>10}  {'task key':<12}  {'attempts':>8}  last error",
        ]
        for failure in self.failures:
            key = failure.key[:12] if failure.key else "-"
            error = failure.error.splitlines()[0] if failure.error else ""
            if len(error) > 80:
                error = error[:77] + "..."
            lines.append(f"  {failure.index:>10}  {key:<12}  "
                         f"{failure.attempts:>8}  {error}")
        return "\n".join(lines)


def _token_base(plan: ExecutionPlan, j: int) -> str:
    """Stable identity of task ``j`` for fault decisions and jitter.

    The store key when available (content-addressed, identical across
    executors and shards), else the grid index — never anything
    scheduling-dependent.
    """
    if plan.keys is not None and plan.keys[j] is not None:
        return plan.keys[j]
    return f"i{plan.indices[j]}"


def _invoke(func: Callable, task: dict, token: str | None):
    """Run one task, firing task-level fault injections when armed.

    ``token`` is ``None`` when no fault plan is active (zero overhead on
    the common path).  Only the outermost task scope on a thread
    injects: nested fan-outs inside a task inherit its fate (see
    :func:`repro.experiments.faults.task_scope`).
    """
    if token is None or not faults.enabled():
        return func(**task)
    with faults.task_scope(token) as outermost:
        if outermost:
            faults.maybe_inject("worker_crash", token)
            faults.maybe_inject("task_hang", token)
        return func(**task)


#: Where heartbeat files go: tmpfs when the host has one, because every
#: pooled task creates and unlinks one on its critical path.
_HEARTBEAT_ROOT = ("/dev/shm" if os.access("/dev/shm", os.W_OK)
                   else tempfile.gettempdir())


def _guarded_call(func: Callable, task: dict, token: str | None,
                  hb_path: str | None):
    """Pool-worker task wrapper: heartbeat files + fault injection.

    The heartbeat is written before the task starts and removed when it
    returns (normally or with an exception), so the dispatcher can
    attribute a poisoned pool: a surviving heartbeat means the task was
    *in flight* on the dead worker (charge an attempt), no heartbeat
    means it was still queued (requeue for free).  Its mtime doubles as
    the watchdog's hang clock.
    """
    if hb_path is not None:
        try:
            os.close(os.open(hb_path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC))
        except OSError:
            hb_path = None
    try:
        return _invoke(func, task, token)
    finally:
        if hb_path is not None:
            try:
                os.unlink(hb_path)
            except OSError:
                pass


def _record_failure(plan: ExecutionPlan, j: int, attempts: int,
                    error: str, quarantined: bool) -> None:
    """Journal a failed attempt in the store (dispatcher-side only)."""
    if plan.store is None or plan.keys is None or plan.keys[j] is None:
        return
    try:
        plan.store.record_failure(plan.keys[j], attempts=attempts,
                                  error=error, quarantined=quarantined)
    except OSError:  # pragma: no cover - journalling must never kill a run
        pass


def _describe_error(exc: BaseException) -> str:
    text = str(exc)
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


def _run_inline(plan: ExecutionPlan, order: Sequence[int],
                attempts: list[int], results: dict[int, object],
                settled: set[int],
                on_result: Callable[[int, object], None] | None,
                policy: RetryPolicy | None,
                failures: list[TaskFailure] | None,
                budget: int | None) -> None:
    """Run ``order``'s tasks inline with retry accounting.

    The dispatch loop of every serial plan, and of a degraded
    :class:`ProcessExecutor` finishing a grid after giving up on pools
    (``attempts`` carries over, so pool attempts still count against
    the budget).  Installs the plan context (and ``budget`` as the
    worker lease) thread-locally, exactly like :class:`SerialExecutor`.
    """
    max_attempts = policy.max_attempts if policy is not None else 1
    previous = getattr(_TLS, "context", None)
    previous_lease = getattr(_TLS, "lease", None)
    _TLS.context = resolve_refs(plan.context)
    if budget is not None:
        _TLS.lease = budget
    try:
        for j in order:
            token_base = _token_base(plan, j)
            while True:
                token = (f"{token_base}#a{attempts[j]}"
                         if faults.enabled() else None)
                try:
                    record = _invoke(plan.func, plan.tasks[j], token)
                except Exception as exc:
                    attempts[j] += 1
                    final = attempts[j] >= max_attempts
                    _record_failure(plan, j, attempts[j],
                                    _describe_error(exc), final)
                    if final:
                        if failures is None:
                            raise
                        failures.append(TaskFailure(
                            index=plan.indices[j],
                            key=(plan.keys[j] if plan.keys is not None
                                 else None),
                            attempts=attempts[j],
                            error=_describe_error(exc)))
                        results[j] = MISSING
                        settled.add(j)
                        break
                    time.sleep(policy.delay(token_base, attempts[j]))
                    continue
                results[j] = record
                settled.add(j)
                if on_result is not None:
                    on_result(j, record)
                break
    finally:
        _TLS.context = previous
        _TLS.lease = previous_lease


def _kill_pool(pool) -> None:
    """Tear a (possibly poisoned) pool down hard: kill workers, reap."""
    if pool is None:
        return
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already-dead workers
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass


# ----------------------------------------------------------------------
# Warm-session pool cache
# ----------------------------------------------------------------------
#
# Inside a warm scope (an open ``Session``) pools survive across
# ``execute()``/``run_chunked`` calls instead of being torn down per
# plan.  A cache entry is keyed by ``(workers, lease, plan-context
# signature)`` — the signature is the pickle digest of everything
# ``_init_worker`` consumed, so a cached pool is *exactly* as
# initialized as a fresh spawn for the same plan would be.  Checkout is
# exclusive (the entry is popped), so a pool is never shared by two
# concurrent plans; a healthy pool is checked back in when its plan
# drains, a broken or poisoned one is simply never returned.


def _release_pool(pool) -> None:
    """Shut an idle pool down once it leaves the cache.

    The session-owning process drains gracefully (``shutdown(wait=True)``)
    so workers exit through their own finalizers.  A pool *worker*
    kills its cached nested pools instead: a cached pool is idle by
    construction, and sentinel-based draining from a worker's exit
    finalizer can deadlock — the call queue's feeder machinery is
    unreliable in a half-exited interpreter, leaving a grandchild
    blocked on a read while ``multiprocessing.util._exit_function``
    waits to join it.  Killing idle grandworkers loses nothing.
    """
    if multiprocessing.parent_process() is not None:
        _kill_pool(pool)
        return
    try:
        pool.shutdown(wait=True)
    except Exception:  # pragma: no cover - defensive
        _kill_pool(pool)


_POOLS = warm.WarmCache(cap=8, on_evict=_release_pool)


def _pool_key(plan: "ExecutionPlan", workers: int,
              lease: int) -> tuple | None:
    """Cache key for a pool serving ``plan``, or None when uncacheable.

    Returns None outside a warm scope, or when the plan's init payload
    cannot be pickled (such a plan could not reach a process pool
    anyway, but stay defensive: an uncacheable plan just gets a pool
    per call).
    """
    if not warm.active():
        return None
    try:
        payload = pickle.dumps((plan.warmup, plan.test_refs, plan.context),
                               protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    return (workers, lease, hashlib.sha256(payload).hexdigest())


def _spawn_pool(plan: "ExecutionPlan", workers: int,
                lease: int) -> ProcessPoolExecutor:
    """Spawn (and spawn-log) one worker pool for ``plan``.

    The single funnel for pool creation: the ``pool_spawn_fail`` fault
    point and the ``REDS_SPAWN_LOG`` instrumentation both live here, so
    a warm-session cache hit neither logs a spawn nor rolls the fault
    dice — exactly the observable the spawn-count tests pin.
    """
    faults.maybe_inject("pool_spawn_fail", f"w{workers}-l{lease}")
    _log_spawn(workers, lease)
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(plan.warmup, plan.test_refs, plan.context, lease,
                  warm.active()),
    )
    _POOLS.count("spawned")
    return pool


def pool_stats() -> dict[str, int]:
    """Pools ``spawned`` (in or out of a session), cache hits
    (``reused``) and the current cache size (``cached``)."""
    stats = _POOLS.stats()
    return {"spawned": stats.get("spawned", 0), "reused": stats["hits"],
            "cached": stats["size"]}


def reset_pool_stats() -> None:
    """Zero the spawn/reuse counters (cache contents are untouched)."""
    _POOLS.reset_counters()


def close_pools() -> int:
    """Shut down every cached pool; returns how many were closed."""
    return len(_POOLS.clear())


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------

class SerialExecutor:
    """The reference loop: run every task inline, in plan order.

    ``budget`` (optional) installs a worker lease around the loop: the
    single-task / ``jobs <= 1`` fallback of a budgeted
    :class:`ProcessExecutor` hands its whole budget to the tasks it
    runs inline, so ``execute(jobs=8)`` over one task still means
    eight workers — all of them inside that task's own chunked
    fan-outs, read back via :func:`budgeted_jobs`.
    """

    #: Serial execution reads parent memory directly — no plane needed.
    wants_plane = False

    def __init__(self, budget: int | None = None) -> None:
        self.budget = budget

    def run(self, plan: ExecutionPlan,
            on_result: Callable[[int, object], None] | None = None, *,
            policy: RetryPolicy | None = None,
            failures: list[TaskFailure] | None = None,
            task_timeout: float | None = None) -> list:
        # ``task_timeout`` is accepted for interface parity but cannot be
        # enforced inline: there is no second process to watch the clock,
        # and killing the only interpreter would lose the grid.  The
        # watchdog lives in ProcessExecutor.
        n = len(plan.tasks)
        results: dict[int, object] = {}
        _run_inline(plan, range(n), [0] * n, results, set(), on_result,
                    policy, failures, self.budget)
        return [results[j] for j in range(n)]


class ProcessExecutor:
    """Fan a plan out over a process pool (today's ``jobs=N`` path).

    Workers bootstrap by mapping the plan's shared arrays (test data,
    context refs) zero-copy from the data plane — or, when the plane is
    unavailable, by warming their own test cache — then pull tasks until
    the plan drains.  Results are collected by plan index, so the
    returned list matches the serial loop regardless of scheduling.

    ``jobs`` is the plan's **total** worker budget.  The pool takes
    ``min(jobs, tasks)`` workers and every worker receives a lease of
    ``jobs // workers`` inner workers for its own chunked fan-outs
    (via :func:`budgeted_jobs`) — a grid wider than its budget leaves
    lease 1 (pure grid parallelism, the historical behaviour), a
    narrow grid hands the spare budget to the inner level.  Inside a
    budgeted worker any nested request is additionally clamped to the
    ambient lease, so no composition of layers exceeds the top-level
    budget.
    """

    wants_plane = True

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = jobs

    def run(self, plan: ExecutionPlan,
            on_result: Callable[[int, object], None] | None = None, *,
            policy: RetryPolicy | None = None,
            failures: list[TaskFailure] | None = None,
            task_timeout: float | None = None) -> list:
        jobs = default_jobs() if self.jobs is None else self.jobs
        ambient = worker_budget()
        if ambient is not None:
            # Already inside a budgeted plan: the lease caps everything
            # spawned below it, whatever the nested caller asked for.
            jobs = min(jobs, ambient)
        if jobs <= 1 or len(plan.tasks) <= 1:
            return SerialExecutor(budget=max(jobs, 1)).run(
                plan, on_result, policy=policy, failures=failures)
        return self._run_tolerant(plan, on_result, policy, failures,
                                  task_timeout, jobs)

    def _run_tolerant(self, plan: ExecutionPlan,
                      on_result: Callable[[int, object], None] | None,
                      policy: RetryPolicy | None,
                      failures: list[TaskFailure] | None,
                      task_timeout: float | None, jobs: int) -> list:
        """The guarded dispatch loop: retries, watchdog, degradation.

        Every plan that reaches a pool runs here; ``retries=0`` is just
        a one-attempt policy.  The loop owns the task lifecycle
        explicitly: a ready queue, a backoff-delayed queue, and an
        in-flight map — so it can requeue work across pool generations.
        Heartbeat files (written by :func:`_guarded_call`) attribute
        blame when a pool dies: in-flight tasks are charged an attempt,
        queued tasks requeue for free — which also covers a cached pool
        that died between plans.  A second poisoning — or a pool that
        cannot be spawned at all — degrades the rest of the grid to the
        inline loop rather than thrashing.
        """
        if policy is None:
            policy = RetryPolicy(max_attempts=1)
        n = len(plan.tasks)
        workers = min(jobs, n)
        lease = max(1, jobs // workers)
        attempts = [0] * n
        results: dict[int, object] = {}
        settled: set[int] = set()
        ready: deque[int] = deque(range(n))
        delayed: list[tuple[float, int]] = []
        poisonings = 0
        pool = None
        # Warm-session checkout is exclusive: a poisoned pool was already
        # popped from the cache, so it can never be handed to a later
        # plan — only a pool that drains its plan healthy is returned.
        cache_key = _pool_key(plan, workers, lease)
        futures: dict[object, int] = {}
        # Flat files named per plan rather than a directory per plan:
        # creating and removing a directory measurably slows the 2-task
        # plans a warm labelling request issues.
        hb_prefix = os.path.join(
            _HEARTBEAT_ROOT,
            f"reds-hb-{os.getpid()}-{secrets.token_hex(6)}-t")
        token_bases = [_token_base(plan, j) for j in range(n)]

        def hb_path(j: int) -> str:
            return f"{hb_prefix}{j}"

        def clear_heartbeats(tasks) -> None:
            for j in tasks:
                try:
                    os.unlink(hb_path(j))
                except OSError:
                    pass

        def charge(j: int, error: str, exc: BaseException | None) -> None:
            nonlocal pool
            attempts[j] += 1
            final = attempts[j] >= policy.max_attempts
            _record_failure(plan, j, attempts[j], error, final)
            if not final:
                delayed.append((time.monotonic()
                                + policy.delay(token_bases[j], attempts[j]),
                                j))
                return
            if failures is None:
                if exc is None:
                    raise RuntimeError(error)
                # Fail fast on the task's own error.  The pool is
                # healthy, so its workers finish and exit through their
                # finalizers instead of being killed.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                raise exc
            failures.append(TaskFailure(
                index=plan.indices[j],
                key=plan.keys[j] if plan.keys is not None else None,
                attempts=attempts[j], error=error))
            results[j] = MISSING
            settled.add(j)

        def poison(reason: str, candidates: Sequence[int],
                   charged: Sequence[int] = ()) -> None:
            # The whole pool dies together (killing a hung worker kills
            # its siblings too): tasks in ``charged`` were already
            # charged by the caller, the rest are charged or requeued by
            # heartbeat attribution.
            nonlocal pool, poisonings
            poisonings += 1
            _kill_pool(pool)
            pool = None
            futures.clear()
            live = {j for j in candidates if os.path.exists(hb_path(j))}
            clear_heartbeats(candidates)
            for j in candidates:
                if j in charged or j in settled:
                    continue
                if j in live:
                    charge(j, reason, None)
                else:
                    ready.append(j)

        try:
            while len(settled) < n:
                if poisonings >= 2:
                    remaining = sorted(
                        set(range(n)) - settled - set(futures.values()))
                    logger.warning(
                        "process pool poisoned %d times; degrading the "
                        "remaining %d task(s) to serial execution",
                        poisonings, len(remaining))
                    delayed.clear()
                    ready.clear()
                    _run_inline(plan, remaining, attempts, results, settled,
                                on_result, policy, failures, budget=jobs)
                    break
                now = time.monotonic()
                if delayed:
                    ripe = sorted(j for t, j in delayed if t <= now)
                    delayed[:] = [(t, j) for t, j in delayed if t > now]
                    ready.extend(ripe)
                if pool is None and ready:
                    if cache_key is not None:
                        pool = _POOLS.pop(cache_key)
                    if pool is None:
                        try:
                            pool = _spawn_pool(plan, workers, lease)
                        except Exception as exc:
                            logger.warning(
                                "process pool spawn failed (%s); degrading "
                                "the remaining tasks to serial execution", exc)
                            poisonings = 2
                            continue
                submit_failed = False
                while ready:
                    j = ready.popleft()
                    token = (f"{token_bases[j]}#a{attempts[j]}"
                             if faults.enabled() else None)
                    try:
                        future = pool.submit(_guarded_call, plan.func,
                                             plan.tasks[j], token,
                                             hb_path(j))
                    except Exception:
                        ready.appendleft(j)
                        submit_failed = True
                        break
                    futures[future] = j
                if submit_failed:
                    # The unsubmitted task is back at the head of
                    # ``ready``; only the in-flight ones need blame
                    # attribution.
                    poison("worker crashed (pool rejected new work)",
                           list(futures.values()))
                    continue
                if not futures:
                    if delayed:
                        wake = min(t for t, _ in delayed)
                        time.sleep(max(wake - time.monotonic(), 0.0) + 0.001)
                        continue
                    break
                poll = 0.2
                if task_timeout is not None:
                    poll = min(poll, max(task_timeout / 4.0, 0.02))
                if delayed:
                    poll = min(poll, 0.05)
                done, _ = wait(list(futures), timeout=poll,
                               return_when=FIRST_COMPLETED)
                broken: list[int] = []
                for future in done:
                    j = futures.pop(future)
                    exc = future.exception()
                    if exc is None:
                        record = future.result()
                        results[j] = record
                        settled.add(j)
                        if on_result is not None:
                            on_result(j, record)
                    elif isinstance(exc, BrokenProcessPool):
                        broken.append(j)
                    else:
                        charge(j, _describe_error(exc), exc)
                if broken:
                    poison("worker crashed (pool poisoned mid-task)",
                           broken + list(futures.values()))
                    continue
                if task_timeout is not None and futures:
                    wall = time.time()
                    hung = []
                    for future, j in futures.items():
                        try:
                            started = os.stat(hb_path(j)).st_mtime
                        except OSError:
                            continue  # still queued, clock not running
                        if wall - started > task_timeout:
                            hung.append(j)
                    if hung:
                        for j in hung:
                            charge(j, f"task exceeded task_timeout="
                                      f"{task_timeout}s; worker killed",
                                   None)
                        poison("pool killed to recover hung worker(s)",
                               list(futures.values()), charged=hung)
                        continue
            if pool is not None:
                # The plan drained with this pool healthy: hand it back
                # to the warm-session cache instead of killing it.  Any
                # broken pool was already killed inside ``poison()`` with
                # ``pool`` reset to None, so it cannot reach here.
                if cache_key is not None and warm.active():
                    _POOLS.put(cache_key, pool)
                else:
                    pool.shutdown(wait=True)
                pool = None
            return [results[j] for j in range(n)]
        finally:
            _kill_pool(pool)
            clear_heartbeats(futures.values())


class ShardedExecutor:
    """Split one plan across independent store-coordinated invocations.

    Every task execution is arbitrated by an atomic store **claim
    marker** (:meth:`~repro.experiments.store.ExperimentStore.claim`),
    so concurrent invocations against one store never duplicate a task.
    The modulo partition is the *priority order*, not a cage: shard
    ``i`` of ``k`` claims and executes the tasks whose **grid index**
    is congruent to ``i`` first, then — instead of idling while a
    slower sibling still holds pending work — sweeps the remaining
    unclaimed tasks and steals them, and reads every record it did not
    produce from the store as the sibling invocations persist theirs.
    Each invocation therefore returns the full grid, identical to a
    serial run, and a lone shard completes the whole grid by itself.

    Sibling death is survivable: a claim marker's mtime is its lease
    timestamp, and a claim older than ``claim_ttl`` is presumed
    abandoned — this invocation *reclaims* it (atomic takeover, exactly
    one survivor wins) and executes the task itself instead of waiting
    forever.  Pick ``claim_ttl`` comfortably above the worst-case task
    duration; reclaiming a live sibling's lease cannot corrupt results
    (tasks are pure, records last-writer-wins with identical content)
    but duplicates work.  ``claim_ttl=None`` disables reclamation.

    ``timeout`` bounds how long this invocation waits for tasks that
    are claimed elsewhere but whose records never appear (a crashed or
    stalled sibling inside its lease); the deadline resets whenever any
    progress is observed, so it only fires on a genuinely dead grid.
    """

    wants_plane = True

    def __init__(self, shard: int, of: int, *, jobs: int | None = None,
                 poll_interval: float = 0.05, timeout: float = 3600.0,
                 claim_ttl: float | None = 1800.0) -> None:
        if of < 1:
            raise ValueError(f"shard count must be >= 1, got {of}")
        if not 0 <= shard < of:
            raise ValueError(f"shard must be in [0, {of}), got {shard}")
        self.shard = shard
        self.of = of
        self.jobs = jobs
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.claim_ttl = claim_ttl

    @property
    def owner(self) -> str:
        """This invocation's claim-marker identity.

        Deliberately stable across re-runs of the same shard (no pid):
        a shard restarted after a crash re-wins its own stale claims
        and re-executes the tasks it had claimed but never finished.
        """
        return f"shard-{self.shard}/{self.of}"

    def run(self, plan: ExecutionPlan,
            on_result: Callable[[int, object], None] | None = None, *,
            policy: RetryPolicy | None = None,
            failures: list[TaskFailure] | None = None,
            task_timeout: float | None = None) -> list:
        if plan.store is None or plan.keys is None:
            raise ValueError(
                "sharded execution coordinates through the experiment "
                "store; pass store= (and keep resume semantics) so every "
                "shard can read its siblings' records")
        jobs = default_jobs() if self.jobs is None else self.jobs
        inner = ProcessExecutor(jobs) if jobs > 1 else SerialExecutor()
        results: dict[int, object] = {}

        def run_claimed(selection: list[int]) -> None:
            wrapped = None
            if on_result is not None:
                wrapped = lambda j, record: on_result(selection[j], record)  # noqa: E731
            for j, record in zip(selection,
                                 inner.run(plan.subset(selection), wrapped,
                                           policy=policy, failures=failures,
                                           task_timeout=task_timeout)):
                results[j] = record

        # Own slice first — the modulo partition stays the priority
        # order; claims only arbitrate against siblings that already
        # stole into it.
        own = [j for j in range(len(plan.tasks))
               if plan.indices[j] % self.of == self.shard]
        run_claimed([j for j in own
                     if plan.store.claim(plan.keys[j], self.owner)])

        # Claim-then-poll: everything still missing is either being
        # executed by a sibling (its record will appear) or unclaimed
        # pending work this shard steals instead of idling.
        waiting = [j for j in range(len(plan.tasks)) if j not in results]
        deadline = time.monotonic() + self.timeout
        while waiting:
            progress = False
            still_missing = []
            for j in waiting:
                record = plan.store.get(plan.keys[j])
                if record is MISSING:
                    still_missing.append(j)
                else:
                    results[j] = record
                    progress = True
            waiting = still_missing
            if not waiting:
                break
            stolen = [j for j in waiting
                      if plan.store.claim(plan.keys[j], self.owner)]
            if stolen:
                run_claimed(stolen)
                waiting = [j for j in waiting if j not in results]
                progress = True
            if not waiting:
                break
            # Dead-sibling recovery: a claim whose lease expired belongs
            # to an invocation presumed dead — take it over (exactly one
            # survivor wins the atomic takeover) and run it here.
            if self.claim_ttl is not None:
                reclaimed = []
                for j in waiting:
                    age = plan.store.claim_age(plan.keys[j])
                    if age is not None and age > self.claim_ttl and \
                            plan.store.reclaim(plan.keys[j], self.owner,
                                               max_age=self.claim_ttl):
                        reclaimed.append(j)
                if reclaimed:
                    logger.warning(
                        "shard %d/%d reclaimed %d expired claim(s) from "
                        "dead sibling(s)", self.shard, self.of,
                        len(reclaimed))
                    run_claimed(reclaimed)
                    waiting = [j for j in waiting if j not in results]
                    progress = True
            if not waiting:
                break
            # A sibling that quarantined a task after exhausting its
            # retries will never publish a record for it; inherit the
            # failure instead of waiting for one.
            if failures is not None:
                for j in list(waiting):
                    failure = plan.store.failure_for(plan.keys[j])
                    if failure is not None and failure.get("quarantined"):
                        failures.append(TaskFailure(
                            index=plan.indices[j], key=plan.keys[j],
                            attempts=int(failure.get("attempts", 0)),
                            error=str(failure.get("error",
                                                  "quarantined by sibling"))))
                        results[j] = MISSING
                        waiting.remove(j)
                        progress = True
            if not waiting:
                break
            if progress:
                deadline = time.monotonic() + self.timeout
            elif time.monotonic() > deadline:
                missing = [plan.indices[j] for j in waiting]
                raise TimeoutError(
                    f"shard {self.shard}/{self.of} ran out of claimable "
                    f"work, but records for grid indices {missing[:8]}"
                    f"{'...' if len(missing) > 8 else ''} never appeared "
                    f"in the store — those tasks are claimed by sibling "
                    f"shards that have stopped publishing (crashed "
                    f"sibling?); their claims will become reclaimable "
                    f"once older than claim_ttl, or delete the store's "
                    f"claims/ directory to release them and re-run")
            else:
                time.sleep(self.poll_interval)
        return [results[j] for j in range(len(plan.tasks))]


def parse_shard(value) -> tuple[int, int] | None:
    """Normalise and validate a shard spec: ``None``, ``(i, k)`` or an
    ``"i/k"`` string with ``0 <= i < k``."""
    if value is None:
        return None
    if isinstance(value, str):
        try:
            i_text, k_text = value.split("/")
            i, k = int(i_text), int(k_text)
        except ValueError:
            raise ValueError(
                f"shard must look like 'i/k' (e.g. '0/4'), got {value!r}"
            ) from None
    else:
        i, k = value
        i, k = int(i), int(k)
    if k < 1 or not 0 <= i < k:
        raise ValueError(
            f"shard must satisfy 0 <= i < k, got {i}/{k}")
    return i, k


def get_executor(executor=None, *, jobs: int | None = 1, shard=None):
    """Resolve ``executor=``/``jobs=``/``shard=`` into an executor object.

    ``executor`` may be an instance (returned as-is), a name from
    :data:`EXECUTORS`, or ``None`` — in which case ``shard`` selects the
    sharded executor and otherwise ``jobs`` picks serial (``<= 1``) or
    process execution, preserving the historical ``jobs=`` semantics.
    """
    shard = parse_shard(shard)
    if isinstance(executor, (SerialExecutor, ProcessExecutor,
                             ShardedExecutor)):
        if shard is not None and not isinstance(executor, ShardedExecutor):
            raise ValueError(
                f"shard={shard} requires the sharded executor, "
                f"got {type(executor).__name__}")
        if shard is not None and shard != (executor.shard, executor.of):
            raise ValueError(
                f"shard={shard} disagrees with the supplied "
                f"ShardedExecutor({executor.shard}, {executor.of}); "
                f"pass one or the other")
        return executor
    if shard is not None and executor not in (None, "sharded"):
        # Silently dropping the shard here would make every invocation
        # run the full grid — k-fold duplicated work instead of a
        # cooperative split.
        raise ValueError(
            f"shard={shard} requires executor='sharded' (or None), "
            f"got {executor!r}")
    if executor is None:
        executor = "sharded" if shard is not None else (
            "process" if (jobs is None or jobs > 1) else "serial")
    if executor == "serial":
        return SerialExecutor()
    if executor == "process":
        return ProcessExecutor(jobs)
    if executor == "sharded":
        if shard is None:
            raise ValueError("executor='sharded' requires shard=(i, k)")
        return ShardedExecutor(shard[0], shard[1], jobs=jobs)
    raise ValueError(
        f"unknown executor {executor!r}; expected one of {EXECUTORS}")


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------

def execute(
    func: Callable,
    tasks: Sequence[dict],
    jobs: int | None = 1,
    *,
    warmup: Sequence[tuple[str, str, int]] = (),
    store=None,
    resume: bool = True,
    executor=None,
    shard=None,
    context: object = None,
    shared: dict | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
) -> list:
    """Compile ``func(**task) for task in tasks`` into a plan and run it.

    ``func`` must be a module-level callable (workers import it by
    qualified name).  ``jobs=None`` uses :func:`default_jobs`; with
    ``jobs <= 1`` (and no explicit executor/shard) everything runs
    inline in this process.

    Parameters
    ----------
    store:
        Optional :class:`~repro.experiments.store.ExperimentStore` (or
        directory path) of finished records.  With ``resume=True`` the
        store is consulted first and only keys without a record are
        executed; every fresh result is persisted before returning.
        With ``resume=False`` nothing is read — every task recomputes
        and overwrites its entry (the ``--no-cache`` semantics).
    executor, shard:
        Pluggable execution strategy: an executor instance, a name from
        :data:`EXECUTORS`, or ``shard=(i, k)`` / ``"i/k"`` for
        store-coordinated sharding (requires ``store``).  The default
        picks serial or process execution from ``jobs``.
    context, shared:
        Plan context shipped once per worker (see :func:`plan_context`)
        and large read-only arrays published through the data plane and
        merged into it by name.
    retries:
        Extra attempts per failed task under a :class:`RetryPolicy`
        (exponential backoff, seeded jitter).  Every failed attempt is
        journalled in the store's ``failures/`` tree.  At the default 0
        the first error propagates unchanged (fail fast); with
        ``retries > 0`` a task that exhausts its budget is quarantined:
        the rest of the grid completes (and persists) before a
        :class:`GridFailureError` summarising every quarantined task is
        raised.
    task_timeout:
        Per-task wall-clock limit in seconds, enforced by
        :class:`ProcessExecutor`'s heartbeat watchdog: a worker whose
        task outlives the limit is killed, the pool respawned, and the
        task charged one attempt.  Ignored by purely in-process
        execution (there is no second process to watch the clock).

    Returns
    -------
    list
        One result per task, in task-list order, indistinguishable from
        a storeless serial run: cached and fresh records interleave at
        their grid positions.

    Raises
    ------
    GridFailureError
        Only with ``retries > 0``, after the grid has completed, when at
        least one task was quarantined.  ``.results`` carries the full
        grid (``MISSING`` at failed positions), ``.failures`` the
        per-task post-mortems.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    tasks = list(tasks)
    policy = RetryPolicy(max_attempts=retries + 1)
    failures: list[TaskFailure] | None = [] if retries > 0 else None
    store = open_store(store)
    exec_obj = get_executor(executor, jobs=jobs, shard=shard)
    use_plane = exec_obj.wants_plane and dataplane_enabled()
    if isinstance(exec_obj, ShardedExecutor) and not resume:
        # Foreign-shard records are read back from the store, and a
        # reader cannot tell a sibling's fresh overwrite from a stale
        # pre-existing record — the no-cache contract ("nothing is
        # read") is unenforceable across invocations.
        raise ValueError(
            "sharded execution requires resume=True: the store is the "
            "coordination channel; to force recomputation, point the "
            "shards at a fresh store directory instead")

    if store is None and isinstance(exec_obj, ShardedExecutor):
        raise ValueError("sharded execution requires store=")

    keys = None if store is None else [store.key(func, task) for task in tasks]
    results: dict[int, object] = {}
    pending: list[int] = []
    for index in range(len(tasks)):
        cached = (store.get(keys[index]) if keys is not None and resume
                  else MISSING)
        if cached is MISSING:
            pending.append(index)
        else:
            results[index] = cached

    # Workers only need the test sets of tasks that actually run here:
    # on a nearly-warm store the unfiltered warmup would materialize
    # every grid function's test sample for nothing, and a sharded
    # invocation normally executes only its own partition — the k
    # cooperating invocations must not each generate and publish the
    # whole grid's test data.  A shard that *steals* foreign tasks may
    # need test sets beyond this filter; get_test_data regenerates them
    # on demand, trading a one-off cost on the stolen path for a lean
    # warmup on the common one.
    if store is not None and warmup and pending:
        executing = pending
        if isinstance(exec_obj, ShardedExecutor):
            executing = [i for i in pending
                         if i % exec_obj.of == exec_obj.shard]
        needed = {(task.get("function"), task.get("variant", "continuous"),
                   task.get("test_size"))
                  for task in (tasks[i] for i in executing)}
        warmup = [spec for spec in warmup if tuple(spec) in needed]

    plane = DataPlane() if use_plane and pending and (warmup or shared) \
        else None
    try:
        plan = compile_plan(
            func, [tasks[i] for i in pending],
            indices=pending,
            keys=None if keys is None else [keys[i] for i in pending],
            warmup=warmup, context=context, shared=shared,
            store=store, plane=plane,
        )
        # Persist each record the moment its task finishes (completion
        # order), so an interrupted grid loses at most the in-flight
        # tasks and the next run — or a sibling shard — resumes from
        # everything that completed.  A success also clears any failure
        # journal left by earlier attempts (this run's or a previous
        # one's), so ``failures/`` only ever describes unresolved tasks.
        def persist(j: int, record) -> None:
            store.put(plan.keys[j], record)
            store.clear_failure(plan.keys[j])

        fresh = exec_obj.run(plan, None if store is None else persist,
                             policy=policy, failures=failures,
                             task_timeout=task_timeout)
    finally:
        if plane is not None:
            plane.unlink()
    for index, record in zip(pending, fresh):
        results[index] = record
    out = [results[index] for index in range(len(tasks))]
    if failures:
        raise GridFailureError(failures, out)
    return out


# ----------------------------------------------------------------------
# Row-chunked fan-out (the compute data parallelism of the metamodels)
# ----------------------------------------------------------------------

def _chunk_call(worker: Callable, start: int, stop: int):
    """One chunk of a :func:`run_chunked` fan-out."""
    return worker(plan_context(), start, stop)


def run_chunked(
    worker: Callable,
    n_rows: int,
    *,
    jobs: int | None = 1,
    chunk_rows: int | None = None,
    context: dict | None = None,
    shared: dict | None = None,
    executor=None,
) -> list:
    """Fan row chunks of ``[0, n_rows)`` out over the executor layer.

    ``worker(context, start, stop)`` must be a module-level callable
    returning a picklable per-chunk result; ``context`` is shipped once
    per worker and ``shared`` arrays are published through the data
    plane, so each chunk task pickles only its two integers.  Results
    come back in chunk order — for any row-wise computation their
    concatenation is bit-identical to the single-chunk call, whatever
    ``jobs``/``chunk_rows`` say (pinned by the chunked-prediction
    equivalence tests).

    ``chunk_rows=None`` gives every worker one contiguous chunk.
    """
    if n_rows <= 0:
        return []
    effective = default_jobs() if jobs is None else max(jobs, 1)
    ambient = worker_budget()
    if ambient is not None:
        # Chunk for the workers that will actually run: inside a
        # budgeted plan the executor clamps the pool to the lease, so
        # cutting more chunks than that only adds dispatch overhead.
        effective = min(effective, max(ambient, 1))
    if chunk_rows is None:
        chunk_rows = -(-n_rows // effective)
    chunk_rows = max(int(chunk_rows), 1)
    tasks = [dict(worker=worker, start=start,
                  stop=min(start + chunk_rows, n_rows))
             for start in range(0, n_rows, chunk_rows)]
    return execute(_chunk_call, tasks, jobs, context=context, shared=shared,
                   executor=executor)
