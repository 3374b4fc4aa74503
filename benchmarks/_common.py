"""Shared plumbing for the per-table/figure benchmarks.

Every benchmark prints the paper-style table/series it regenerates and
also writes it to ``benchmarks/results/<name>.txt`` so the output
survives pytest's capture.  Scale is controlled by ``REDS_BENCH_SCALE``
(``quick`` default, ``full`` = paper-sized grid); see
:mod:`repro.experiments.design`.  ``REDS_BENCH_JOBS`` fans the
experiment grids out over that many worker processes (``0`` = all
CPUs); the records are identical to a serial run.  ``REDS_BENCH_STORE``
points at a persistent result-store directory: finished grid cells are
cached there, so re-running a benchmark recomputes only what is missing
(delete the directory, or change any result-affecting source file, to
force a cold run).  ``REDS_ENGINE`` selects the kernel engine for every
grid cell (``vectorized`` default / ``reference``).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

from repro.core.methods import parse_method
from repro.experiments.design import BenchScale

RESULTS_DIR = Path(__file__).parent / "results"

#: Metric layout of Table 3 (PRIM-based methods).
TABLE3_METRICS = (
    ("pr_auc", "PR AUC %", 100.0),
    ("precision", "precision %", 100.0),
    ("consistency", "consistency %", 100.0),
    ("n_restricted", "# restricted", 1.0),
    ("n_irrelevant", "# irrel", 1.0),
)

#: Metric layout of Table 4 (BI-based methods).
TABLE4_METRICS = (
    ("wracc", "WRAcc %", 100.0),
    ("consistency", "consistency %", 100.0),
    ("n_restricted", "# restricted", 1.0),
    ("n_irrelevant", "# irrel", 1.0),
)


def best_of(f, repeats: int):
    """Best wall-clock of ``repeats`` calls of ``f``: (seconds, result)."""
    import time

    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = f()
        best = min(best, time.perf_counter() - t0)
    return best, result


def emit(name: str, text: str) -> None:
    """Print a report block and persist it under benchmarks/results/."""
    print(f"\n{text}\n", file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


#: Repo-root mirror of the machine-readable benchmark results.  Unlike
#: ``benchmarks/results/`` (scratch output, gitignored), this directory
#: is tracked, so the perf trajectory of the kernel benchmarks lives in
#: version control alongside the code it measures.
TRACKED_RESULTS_DIR = Path(__file__).parent.parent / "results"


def emit_json(name: str, payload: dict) -> None:
    """Persist machine-readable benchmark results as JSON.

    Writes ``benchmarks/results/<name>.json`` with the measurements
    plus enough environment context (python/numpy versions, machine) to
    compare the perf trajectory across commits and machines, and
    mirrors ``BENCH_*`` records to the tracked repo-root ``results/``.
    """
    import numpy

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "benchmark": name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        **payload,
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (RESULTS_DIR / f"{name}.json").write_text(text)
    if name.startswith("BENCH_"):
        TRACKED_RESULTS_DIR.mkdir(exist_ok=True)
        (TRACKED_RESULTS_DIR / f"{name}.json").write_text(text)


def jobs_from_env() -> int | None:
    """Worker count from ``REDS_BENCH_JOBS`` (0 = all CPUs, default 1)."""
    jobs = int(os.environ.get("REDS_BENCH_JOBS", "1"))
    return jobs if jobs > 0 else None


def store_from_env():
    """Result store from ``REDS_BENCH_STORE`` (unset/empty = no caching)."""
    from repro.experiments.store import open_store

    path = os.environ.get("REDS_BENCH_STORE", "").strip()
    return open_store(path) if path else None


def engine_from_env() -> str:
    """Kernel engine from ``REDS_ENGINE`` (default ``"vectorized"``).

    Validated through the central registry; an unknown name raises a
    ``ValueError`` listing the valid ones.
    """
    from repro.engines import KNOWN_ENGINES, resolve

    engine = os.environ.get("REDS_ENGINE", "vectorized").strip().lower()
    try:
        return resolve(engine)
    except ValueError:
        raise ValueError(
            f"REDS_ENGINE must be one of {KNOWN_ENGINES}, "
            f"got {engine!r}") from None


def pick_l(scale: BenchScale, method: str) -> int | None:
    """The L override for REDS methods at this scale (None otherwise)."""
    spec = parse_method(method)
    if not spec.is_reds:
        return None
    return scale.n_new_prim if spec.family == "prim" else scale.n_new_bi


def run_method_grid(
    scale: BenchScale,
    methods: tuple[str, ...],
    *,
    functions: tuple[str, ...] | None = None,
    n: int | None = None,
    variant: str = "continuous",
):
    """Run the (function, method, rep) grid with per-method L choices."""
    from repro.experiments.harness import run_batch

    jobs = jobs_from_env()
    store = store_from_env()
    engine = engine_from_env()
    records = []
    for method in methods:
        records.extend(run_batch(
            functions or scale.functions,
            (method,),
            n or scale.n_train,
            scale.n_reps,
            variant=variant,
            n_new=pick_l(scale, method),
            tune_metamodel=scale.tune_metamodel,
            test_size=scale.test_size,
            bumping_repeats=scale.bumping_repeats,
            jobs=jobs,
            store=store,
            engine=engine,
        ))
    return records
