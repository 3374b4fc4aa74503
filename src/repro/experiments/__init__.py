"""Evaluation harness reproducing Section 8.5 / Section 9.

:mod:`repro.experiments.harness` runs (function, method, N, seed)
combinations and aggregates the paper's quality measures;
:mod:`repro.experiments.parallel` compiles those grids into explicit
execution plans and runs them inline or on a process pool — picked from
``jobs`` alone — with results identical to the serial loop;
:mod:`repro.experiments.dataplane` is the shared-memory
broker that maps each plan's large read-only arrays zero-copy into
worker processes; :mod:`repro.experiments.store` persists finished
records in an on-disk content-addressed store (the ``store``/``resume``
knobs) so grids are resumable and incremental;
:mod:`repro.experiments.faults` is the deterministic fault-injection
harness (``REDS_FAULT_PLAN``) behind the substrate's retry/timeout/
degradation machinery — chaos tests replay bit-identically;
:mod:`repro.experiments.session` is the warm execution session
(cached worker pools, resident data plane, memoized metamodel fits)
serving repeated discovery work without per-call cold costs;
:mod:`repro.experiments.design` holds the per-table/figure experiment
configurations; :mod:`repro.experiments.report` renders the paper's
table rows and figure series as text; :mod:`repro.experiments.stats`
implements the significance tests of Section 9.
"""

from repro.experiments.harness import (
    RunRecord,
    evaluate_boxes,
    run_single,
    run_batch,
    run_third_party,
    aggregate,
    aggregate_third_party,
    average_over_functions,
    make_train_data,
    get_test_data,
    register_test_data,
)
from repro.experiments.dataplane import (
    ArrayRef,
    DataPlane,
    content_key,
    resident_stats,
    shutdown_resident,
)
from repro.experiments.design import BenchScale, scale_from_env, EXPERIMENTS
from repro.experiments.faults import FaultPlan, InjectedFault, parse_fault_plan
from repro.experiments.parallel import (
    ExecutionPlan,
    GridFailureError,
    RetryPolicy,
    TaskFailure,
    compile_plan,
    cpu_budget,
    execute,
    pool_stats,
    run_chunked,
)
from repro.experiments.session import Session
from repro.experiments.store import (
    ExperimentStore,
    ExperimentStoreError,
    open_store,
    task_key,
    code_fingerprint,
)

__all__ = [
    "RunRecord",
    "evaluate_boxes",
    "run_single",
    "run_batch",
    "run_third_party",
    "aggregate",
    "aggregate_third_party",
    "average_over_functions",
    "make_train_data",
    "get_test_data",
    "register_test_data",
    "ArrayRef",
    "DataPlane",
    "Session",
    "content_key",
    "resident_stats",
    "shutdown_resident",
    "BenchScale",
    "scale_from_env",
    "EXPERIMENTS",
    "FaultPlan",
    "InjectedFault",
    "parse_fault_plan",
    "ExecutionPlan",
    "GridFailureError",
    "RetryPolicy",
    "TaskFailure",
    "compile_plan",
    "cpu_budget",
    "execute",
    "pool_stats",
    "run_chunked",
    "ExperimentStore",
    "ExperimentStoreError",
    "open_store",
    "task_key",
    "code_fingerprint",
]
