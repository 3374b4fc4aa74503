"""Plan engine: compile experiment grids, run them anywhere.

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
  compiled plan depends on how it later runs.
* **Run paths.**  ``jobs`` alone picks one: ``jobs <= 1`` runs inline
  (the reference loop), a wider budget runs a process pool whose
  workers map the plan's shared arrays zero-copy instead of
  regenerating or unpickling them.  Both return bit-identical results
  in task-list order — locked down by
  ``tests/test_parallel_harness.py``.
* **Data plane.**  Every plan that can reach a pool publishes its
  arrays through a :class:`~repro.experiments.dataplane.DataPlane`, the
  one route arrays take to workers (inline refs where shared memory
  fails), and unlinks every segment in a ``finally`` block, so clean
  runs and poisoned tasks alike leave no shared memory behind.

Three properties keep every run path bit-identical to the serial loop:

* **seed-stable task ordering** — every task carries its explicit seed,
  computed from its grid position at plan time, so the work a task does
  never depends on which worker picks it up;
* **deterministic collection** — results are gathered by plan index,
  not completion order;
* **shared immutable inputs** — workers read the very same test arrays
  the parent materialized, through the data plane, instead of
  regenerating them per worker.

``jobs <= 1`` runs inline (no pool, no pickling), which is also the
default everywhere.

``jobs`` is a **global worker budget**, not a per-level knob.  The
planner splits it once across the grid level and the chunked inner
level: a budgeted plan runs ``min(jobs, tasks)`` grid workers and
hands each a *lease* of ``jobs // workers`` inner workers, delivered
through the plan bootstrap and read back by the task via
:func:`budgeted_jobs`.  A grid task threads its lease into its own
chunked fan-outs (ensemble labeling, metamodel tuning folds, trajectory
evaluation), and every nested request is additionally clamped to the
ambient lease — so ``jobs=8`` means eight
concurrently-working processes total, never ``8 x 8``.  Leases never
change results (every jobs/chunk setting is pinned bit-identical); the
budget is purely a throughput contract.

**Two dispatch loops.**  Every plan runs through one of two loops:
:func:`_run_inline` (serial execution, and the degraded tail of a pool
run) or :func:`_run_tolerant` (the pool).  There is no separate fast
path: ``execute(retries=N)`` always gives every task a
:class:`RetryPolicy` (exponential backoff with seeded deterministic
jitter), ``retries=0`` being the one-attempt policy.  Each failed
attempt is journalled in the store's ``failures/`` tree.  At
``retries=0`` a task's own exception propagates unchanged; with
``retries > 0`` a task that exhausts its attempts is *quarantined* —
the grid completes the remaining cells and raises a structured
:class:`GridFailureError` at the end instead of dying on the first
error.  ``task_timeout=`` arms a per-task watchdog in the pool loop:
workers touch heartbeat files as tasks start,
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
crash mid-grid loses at most the in-flight tasks.
"""

from __future__ import annotations

import hashlib
import logging
import math
import multiprocessing
import os
import pickle
import secrets
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro import warm
from repro.engines import check_jobs
from repro.experiments import faults
from repro.experiments.dataplane import (
    _HEARTBEAT_ROOT,
    HEARTBEAT_PREFIX,
    DataPlane,
    resolve_refs,
)
from repro.experiments.store import MISSING, open_store

__all__ = [
    "ExecutionPlan",
    "GridFailureError",
    "RetryPolicy",
    "TaskFailure",
    "budgeted_jobs",
    "compile_plan",
    "cpu_budget",
    "execute",
    "plan_context",
    "pool_stats",
    "run_chunked",
    "worker_budget",
]

logger = logging.getLogger(__name__)


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


# ----------------------------------------------------------------------
# Execution plans
# ----------------------------------------------------------------------

@dataclass
class ExecutionPlan:
    """A compiled description of a grid's work, independent of how it runs.

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
        failure records and fault tokens name, independent of how many
        tasks a warm store already resolved.
    keys:
        Store key per task (``None`` without a store).
    test_refs:
        Data-plane refs ``{spec: (x_ref, y_ref)}`` of the test arrays,
        materialized once in the parent; workers register them so
        ``get_test_data`` maps them instead of regenerating 20000-point
        samples.  ``None`` for a plan that never reaches a pool.
    context:
        Arbitrary picklable object shipped once per worker (not per
        task) and exposed through :func:`plan_context`; may contain
        :class:`~repro.experiments.dataplane.ArrayRef` values, which are
        resolved at worker bootstrap.
    store:
        The store that journals failed attempts (``None`` without one).
    """

    func: Callable
    tasks: list[dict]
    indices: tuple[int, ...] = ()
    keys: tuple[str, ...] | None = None
    test_refs: dict | None = None
    context: object = None
    store: object = None

    def __post_init__(self) -> None:
        if not self.indices:
            self.indices = tuple(range(len(self.tasks)))
        if len(self.indices) != len(self.tasks):
            raise ValueError(
                f"{len(self.tasks)} tasks but {len(self.indices)} indices")

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
    warmup:
        (function, variant, size) test-data specs the tasks will read.
        With a ``plane`` they are materialized once here in the parent
        and published as ``test_refs``; without one the tasks generate
        them in process.
    shared:
        ``{name: ndarray}`` of large read-only inputs every task needs.
        With a ``plane`` they are published to shared memory and their
        refs merged into the plan context under their names; without
        one they are merged inline (serial execution reads them
        directly).
    plane:
        Data plane to publish through; every plan that reaches a pool
        has one.
    """
    tasks = list(tasks)
    test_refs = None
    if plane is not None and warmup:
        from repro.experiments.harness import get_test_data

        test_refs = {}
        for spec in warmup:
            spec = tuple(spec)
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
        test_refs=test_refs,
        context=context,
        store=store,
    )


# ----------------------------------------------------------------------
# Plan context plumbing (shared arrays / models for chunked tasks)
# ----------------------------------------------------------------------

#: Worker-process context, set once at pool bootstrap (workers run
#: one task at a time, so a plain global is safe there).
_PLAN_CONTEXT: object = None
_CONTEXT_ERROR: BaseException | None = None

#: Inner worker lease of the budgeted plan running in this process:
#: how many workers the current task may use for its own chunked
#: fan-outs.  ``None`` means no budgeted plan is active.  Pool workers
#: receive it at bootstrap (:func:`_init_worker`); in-process budgeted
#: execution installs it thread-locally on :data:`_TLS`.
_WORKER_LEASE: int | None = None

#: In-process (inline-loop) context, thread-local: concurrent
#: in-process executions — e.g. grids driven from threads — must not
#: see each other's arrays.
_TLS = threading.local()


def plan_context():
    """The running plan's resolved context (shared arrays, models, ...).

    Valid inside task functions while a plan whose ``context`` is set is
    running: the inline loop installs it around its tasks (per thread),
    process workers resolve it once at bootstrap.
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


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_S = 1.0


def _exit_with_parent(parent: int) -> None:
    """Worker watchdog: exit once the process that spawned us is gone.

    A parent killed before its exit handlers run (SIGTERM, SIGKILL)
    never shuts its pools down, and its workers would live on,
    reparented.  A fork-inherited pipe cannot tell them: sibling
    workers hold its ends open, so it never reaches EOF.  The parent
    pid can: it changes the moment the worker is reparented.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _init_worker(test_refs, context, lease: int | None = None,
                 warm_scope: bool = False) -> None:
    """Worker bootstrap: watch the parent, map shared test data,
    resolve the plan context.

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
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     name="parent-watchdog", daemon=True).start()
    _WORKER_LEASE = lease
    if warm_scope and not warm.active():
        warm.enter()
    try:
        if test_refs:
            from repro.experiments.harness import register_test_data

            register_test_data(test_refs)
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
    run paths), else the grid index — never anything
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
                policy: RetryPolicy,
                failures: list[TaskFailure] | None,
                budget: int | None) -> None:
    """Run ``order``'s tasks inline with retry accounting.

    The dispatch loop of every inline plan, and of a degraded
    :func:`_run_tolerant` finishing a grid after giving up on pools
    (``attempts`` carries over, so pool attempts still count against
    the budget).  Installs the plan context (and ``budget``, when given,
    as the worker lease) thread-locally.
    """
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
                    final = attempts[j] >= policy.max_attempts
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
        payload = pickle.dumps((plan.test_refs, plan.context),
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
        initargs=(plan.test_refs, plan.context, lease,
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


# ----------------------------------------------------------------------
# Run paths: chosen by ``jobs`` alone
# ----------------------------------------------------------------------

def _resolve_jobs(jobs: int | None) -> int:
    """``jobs`` as a worker count: ``None`` means :func:`cpu_budget`.

    Inside a budgeted plan the ambient lease caps the result, whatever
    the nested caller asked for, so no composition of layers exceeds
    the top-level budget.
    """
    jobs = cpu_budget() if jobs is None else jobs
    ambient = worker_budget()
    return jobs if ambient is None else min(jobs, ambient)


def _run_plan(plan: ExecutionPlan, jobs: int | None,
              on_result: Callable[[int, object], None] | None, *,
              policy: RetryPolicy,
              failures: list[TaskFailure] | None,
              task_timeout: float | None) -> list:
    """Run ``plan`` inline or over a process pool, as ``jobs`` says.

    An explicit ``jobs <= 1`` is the reference loop: every task inline,
    in plan order, with no worker lease.  Otherwise ``jobs`` is the
    plan's **total** worker budget (resolved by :func:`_resolve_jobs`).
    A budget of one, or a one-task plan, still runs inline, but hands
    the whole budget to its tasks as their lease: ``execute(jobs=8)``
    over one task means eight workers, all inside that task's own
    chunked fan-outs.  Anything wider goes to :func:`_run_tolerant`,
    whose pool takes ``min(jobs, tasks)`` workers, each with a lease of
    ``jobs // workers``.  Results come back in plan order either way.

    ``task_timeout`` needs a second process to watch the clock, so the
    inline loop ignores it: killing the only interpreter would lose the
    grid.
    """
    lease = None
    if jobs is None or jobs > 1:
        jobs = _resolve_jobs(jobs)
        if jobs > 1 and len(plan.tasks) > 1:
            return _run_tolerant(plan, on_result, policy, failures,
                                 task_timeout, jobs)
        lease = max(jobs, 1)
    n = len(plan.tasks)
    results: dict[int, object] = {}
    _run_inline(plan, range(n), [0] * n, results, set(), on_result,
                policy, failures, lease)
    return [results[j] for j in range(n)]


def _run_tolerant(plan: ExecutionPlan,
                  on_result: Callable[[int, object], None] | None,
                  policy: RetryPolicy,
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
    inline loop rather than thrashing.  Workers bootstrap by mapping the
    plan's shared arrays zero-copy from the data plane (or, without
    one, by warming their own test cache).
    """
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
        f"{HEARTBEAT_PREFIX}{os.getpid()}-{secrets.token_hex(6)}-t")
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
    context: object = None,
    shared: dict | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
) -> list:
    """Compile ``func(**task) for task in tasks`` into a plan and run it.

    ``func`` must be a module-level callable (workers import it by
    qualified name).  ``jobs`` alone decides how the plan runs:
    ``jobs <= 1`` runs everything inline in this process, ``jobs > 1``
    (or ``None`` for :func:`cpu_budget`) is a total worker budget spent
    on a process pool and the tasks' own fan-outs.

    Parameters
    ----------
    warmup:
        (function, variant, size) test sets the tasks read.  A plan
        that can reach a pool publishes those its pending tasks need
        (see :func:`compile_plan`).
    store:
        Optional :class:`~repro.experiments.store.ExperimentStore` (or
        directory path) of finished records.  With ``resume=True`` the
        store is consulted first and only keys without a record are
        executed; every fresh result is persisted before returning.
        With ``resume=False`` nothing is read — every task recomputes
        and overwrites its entry (the ``--no-cache`` semantics).
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
        Per-task wall-clock limit in seconds (positive and finite, or
        ``None`` for no limit), enforced by the pool's heartbeat
        watchdog: a worker whose task outlives the limit is killed, the
        pool respawned, and the task charged one attempt.  Ignored by
        purely in-process execution (there is no second process to watch
        the clock).

    Returns
    -------
    list
        One result per task, in task-list order, indistinguishable from
        a storeless serial run: cached and fresh records interleave at
        their grid positions.

    Raises
    ------
    ValueError
        When ``jobs`` or ``retries`` is negative, or ``task_timeout`` is
        not positive and finite.
    GridFailureError
        Only with ``retries > 0``, after the grid has completed, when at
        least one task was quarantined.  ``.results`` carries the full
        grid (``MISSING`` at failed positions), ``.failures`` the
        per-task post-mortems.
    """
    check_jobs(jobs)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if task_timeout is not None and not 0 < task_timeout < math.inf:
        raise ValueError(
            f"task_timeout must be positive and finite, got {task_timeout}")
    tasks = list(tasks)
    policy = RetryPolicy(max_attempts=retries + 1)
    failures: list[TaskFailure] | None = [] if retries > 0 else None
    store = open_store(store)
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

    # Workers only need the test sets of tasks that actually run: on a
    # nearly-warm store the unfiltered warmup would materialize every
    # grid function's test sample for nothing.
    if store is not None and warmup and pending:
        needed = {(task.get("function"), task.get("variant", "continuous"),
                   task.get("test_size"))
                  for task in (tasks[i] for i in pending)}
        warmup = [spec for spec in warmup if tuple(spec) in needed]

    # Serial execution reads parent memory directly: only a plan that can
    # reach a pool publishes its arrays, and the plane is the one way
    # they reach its workers.
    reaches_out = jobs is None or jobs > 1
    plane = DataPlane() if reaches_out and pending and (warmup or shared) \
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
        # tasks and the next run resumes from everything that completed.  A success also clears any failure
        # journal left by earlier attempts (this run's or a previous
        # one's), so ``failures/`` only ever describes unresolved tasks.
        def persist(j: int, record) -> None:
            store.put(plan.keys[j], record)
            store.clear_failure(plan.keys[j])

        on_result = None if store is None else persist
        fresh = _run_plan(plan, jobs, on_result, policy=policy,
                          failures=failures, task_timeout=task_timeout)
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
    context: dict | None = None,
    shared: dict | None = None,
) -> list:
    """Fan row chunks of ``[0, n_rows)`` out through :func:`execute`.

    ``worker(context, start, stop)`` must be a module-level callable
    returning a picklable per-chunk result; ``context`` is shipped once
    per worker and ``shared`` arrays are published through the data
    plane, so each chunk task pickles only its two integers.  Every
    worker that will actually run gets one contiguous chunk (inside a
    budgeted plan the pool is clamped to the lease).  Results come back
    in chunk order — for any row-wise computation their concatenation
    is bit-identical to the single-chunk call, whatever ``jobs`` says
    (pinned by the chunked-prediction equivalence tests).
    """
    if n_rows <= 0:
        return []
    size = -(-n_rows // max(_resolve_jobs(jobs), 1))
    tasks = [dict(worker=worker, start=start, stop=min(start + size, n_rows))
             for start in range(0, n_rows, size)]
    return execute(_chunk_call, tasks, jobs, context=context, shared=shared)
