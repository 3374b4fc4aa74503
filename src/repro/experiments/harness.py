"""Run and aggregate scenario-discovery experiments.

Mirrors the paper's protocol (Section 8.5): training sets of size N are
drawn with the model's design (LHS, or a Halton sequence for "dsgc"),
an independent 20000-point test set measures every quality metric, each
configuration is repeated with different seeds, and consistency is the
average pairwise ``Vo/Vu`` of the chosen boxes across repetitions.

Three input-distribution variants cover the paper's studies:

* ``"continuous"`` — the main experiments (Section 9.1.1);
* ``"mixed"`` — even-numbered inputs discretised to five levels
  (Section 9.1.2);
* ``"logitnormal"`` — the semi-supervised study's non-uniform
  ``p(x)`` (Section 9.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro import warm
from repro.core.methods import DiscoveryResult, discover, parse_method
from repro.core.reds import Sampler
from repro.data import SimulationModel, get_model
from repro.metrics import (
    pairwise_consistency,
    peeling_trajectory,
    pr_auc,
    precision_recall,
    n_irrelevant,
    wracc_score,
)
from repro.sampling import (
    MIXED_LEVELS,
    discretize_even_inputs,
    get_sampler,
    logit_normal,
)
from repro.subgroup.box import Hyperbox

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
    "reds_sampler_for",
    "discrete_levels_for",
    "DEFAULT_THIRD_PARTY_ALPHA",
]

_TEST_SEED = 987_654
_TEST_SIZE = 20_000

#: Bound on the per-process test-data cache.  Each entry holds a
#: 20000-point sample (~2 MB at M = 10), grids visit functions
#: function-major, and data-plane workers resolve shared memory instead
#: of generating — so a handful of slots suffices and a worker that
#: sweeps many (function, variant, size) cells no longer accumulates
#: every test set it ever touched for the life of the process.
_TEST_CACHE_SIZE = 8

#: Section 9.3: alpha = 0.1 for "TGL" (following [58]), default otherwise.
DEFAULT_THIRD_PARTY_ALPHA = {"TGL": 0.1, "lake": 0.05}


@dataclass
class RunRecord:
    """Metrics of one (function, method, N, seed) run, all on test data."""

    function: str
    method: str
    n: int
    seed: int
    pr_auc: float
    precision: float
    recall: float
    wracc: float
    n_restricted: int
    n_irrelevant: int
    runtime: float
    chosen_box: Hyperbox
    trajectory: np.ndarray = field(repr=False, default=None)


# ----------------------------------------------------------------------
# Data generation
# ----------------------------------------------------------------------

def _variant_postprocess(x: np.ndarray, variant: str,
                         rng: np.random.Generator) -> np.ndarray:
    if variant == "mixed":
        return discretize_even_inputs(x, rng)
    return x


#: Warm-session cache of training datasets, keyed by the full
#: generation config and filled only inside a warm scope (see
#: :mod:`repro.experiments.session`).  Cached arrays are read-only, so
#: an accidental in-place mutation fails loudly instead of corrupting
#: every later request.
_TRAIN = warm.WarmCache(cap=16)


def make_train_data(
    model: SimulationModel,
    n: int,
    seed: int,
    variant: str = "continuous",
) -> tuple[np.ndarray, np.ndarray]:
    """Training dataset ``D`` for one repetition.

    For mixed-type models (``model.cat_cols`` non-empty) the design's
    categorical columns are quantized to integer codes before labeling,
    so ``D`` lives in the same space discovery and the test sample use.
    Generation is a pure function of the arguments, so a warm session
    memoizes the arrays instead of re-simulating per request.
    """
    def generate(cached: bool) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        if variant == "logitnormal":
            x = logit_normal(n, model.dim, rng)
        else:
            x = get_sampler(model.default_sampler)(n, model.dim, rng)
            x = _variant_postprocess(x, variant, rng)
        x = model.quantize(x)
        y = model.label(x, rng)
        if cached:
            x.setflags(write=False)
            y.setflags(write=False)
        return x, y

    if not warm.active():
        return generate(False)
    return _TRAIN.get_or_create((model.name, n, seed, variant),
                                lambda: generate(True))


#: Data-plane refs of test samples published by the execution plan,
#: keyed by (function, variant, size).  Worker bootstrap fills this
#: (:func:`register_test_data`), after which :func:`get_test_data` maps
#: the parent's arrays zero-copy instead of regenerating them.
_PLANE_TEST_DATA: dict[tuple, tuple] = {}


def register_test_data(refs: dict) -> None:
    """Map data-plane test arrays into this process.

    Called by the pool-worker initializer of
    :mod:`repro.experiments.parallel` with the plan's
    ``{(function, variant, size): (x_ref, y_ref)}`` refs.
    """
    _PLANE_TEST_DATA.update(refs)


@lru_cache(maxsize=_TEST_CACHE_SIZE)
def get_test_data(function: str, variant: str = "continuous",
                  size: int = _TEST_SIZE) -> tuple[np.ndarray, np.ndarray]:
    """The fixed independent test sample for a function and variant.

    Cached (bounded, :data:`_TEST_CACHE_SIZE` entries): generating 20000
    dsgc simulations takes a few seconds and every method comparison
    reuses the same test set, like the paper.  When the execution plan
    published this sample through the data plane
    (:func:`register_test_data`), the shared-memory arrays are returned
    zero-copy instead of regenerating.  The returned arrays are
    read-only — the cache hands every caller the same objects, so an
    in-place edit would silently corrupt the test set of every later
    run.
    """
    refs = _PLANE_TEST_DATA.get((function, variant, size))
    if refs is not None:
        return refs[0].resolve(), refs[1].resolve()
    model = get_model(function)
    rng = np.random.default_rng(_TEST_SEED)
    if variant == "logitnormal":
        x = logit_normal(size, model.dim, rng)
    else:
        x = rng.random((size, model.dim))
        x = _variant_postprocess(x, variant, rng)
    x = model.quantize(x)
    y = model.label(x, rng)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def reds_sampler_for(variant: str) -> Sampler | None:
    """The ``p(x)`` REDS must sample from under each variant."""
    if variant == "mixed":
        def mixed_sampler(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
            return discretize_even_inputs(rng.random((n, m)), rng)
        return mixed_sampler
    if variant == "logitnormal":
        return logit_normal
    return None  # uniform default inside reds()


def discrete_levels_for(model: SimulationModel,
                        variant: str) -> dict[int, np.ndarray] | None:
    """Per-dimension discrete levels for consistency measures.

    Covers both discretisation sources: the ``"mixed"`` variant's
    five-level grid on every even input (Section 9.1.2) and the integer
    codes of a mixed-type model's categorical columns, whose volume
    contribution is the fraction of levels a box allows.
    """
    levels: dict[int, np.ndarray] = {}
    if variant == "mixed":
        levels.update({j: MIXED_LEVELS for j in range(1, model.dim, 2)})
    for j, k in model.cat_levels_map.items():
        levels[j] = np.arange(k, dtype=float)
    return levels or None


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def evaluate_boxes(
    result: DiscoveryResult,
    x_test: np.ndarray,
    y_test: np.ndarray,
    relevant: tuple[int, ...],
    *,
    jobs: int | None = 1,
) -> dict:
    """All point and trajectory measures of one discovery result.

    Parameters
    ----------
    result:
        Output of :func:`repro.core.methods.discover`.
    x_test, y_test:
        The independent test sample (Section 8.1: never training data).
    relevant:
        Ground-truth relevant input indices of the model, for the
        #irrelevant measure.
    jobs:
        Worker processes for the trajectory evaluation over the test
        sample (None = all CPUs): every box of the peeling trajectory
        is measured on the full 20000-point test set, the slow part of
        evaluation for long trajectories.  Bit-identical for every
        setting; a budgeted grid task passes its worker lease here.

    Returns
    -------
    dict
        ``pr_auc``, ``precision``, ``recall``, ``wracc``,
        ``n_restricted``, ``n_irrelevant`` and the ``trajectory`` array.
    """
    trajectory = peeling_trajectory(result.boxes, x_test, y_test, jobs=jobs)
    prec, rec = precision_recall(result.chosen_box, x_test, y_test)
    return {
        "pr_auc": pr_auc(trajectory),
        "precision": prec,
        "recall": rec,
        "wracc": wracc_score(result.chosen_box, x_test, y_test),
        "n_restricted": result.chosen_box.n_restricted,
        "n_irrelevant": n_irrelevant(result.chosen_box, relevant),
        "trajectory": trajectory,
    }


def run_single(
    function: str,
    method: str,
    n: int,
    seed: int,
    *,
    variant: str = "continuous",
    n_new: int | None = None,
    tune_metamodel: bool = True,
    test_size: int = _TEST_SIZE,
    bumping_repeats: int = 50,
    engine: str = "vectorized",
) -> RunRecord:
    """One experiment: simulate, discover, measure on the test sample.

    One cell of the Section 8.5 protocol — also the unit of work the
    parallel engine dispatches and the result store caches, so its
    output must be a pure function of the arguments.

    Parameters
    ----------
    function:
        Table 1 model name (see ``repro.data.TABLE1``).
    method:
        Section 8.2 method name, e.g. ``"P"``, ``"RPx"``, ``"RBIcxp"``.
    n:
        Number of simulations in the training set.
    seed:
        Seed of this repetition; drives training data and discovery.
    variant:
        Input distribution: ``"continuous"`` (9.1.1), ``"mixed"``
        (9.1.2) or ``"logitnormal"`` (9.4).
    n_new:
        REDS ``L`` override (None = method default).
    tune_metamodel:
        Run the Section 8.4.3 caret-style metamodel tuning.
    test_size:
        Size of the independent test sample.
    bumping_repeats:
        ``Q`` of PRIM-with-bumping.
    engine:
        Kernel engine (``"vectorized"`` / ``"reference"``) threaded
        into :func:`repro.core.methods.discover`.  Both engines are
        pinned bit-identical, but the choice is part of the task
        configuration (and therefore of the store key) so a cached
        record always states how it was produced.

    Returns
    -------
    RunRecord
        Every Table 3-5 measure of the run, evaluated on test data.
    """
    from repro.experiments.parallel import budgeted_jobs

    model = get_model(function)
    x, y = make_train_data(model, n, seed, variant)
    x_test, y_test = get_test_data(function, variant, test_size)

    # Inside a budgeted grid worker this is the worker's lease (its
    # share of the global ``jobs`` budget); outside any plan it is
    # 1, i.e. the serial behaviour.  Results are jobs-invariant, so the
    # lease is purely a throughput knob and not part of the store key.
    inner_jobs = budgeted_jobs()
    result = discover(
        method, x, y,
        seed=seed,
        n_new=n_new,
        n_repeats=bumping_repeats,
        sampler=reds_sampler_for(variant),
        tune_metamodel=tune_metamodel,
        engine=engine,
        jobs=inner_jobs,
        cat_levels=model.cat_levels_map or None,
    )
    measures = evaluate_boxes(result, x_test, y_test, model.relevant,
                              jobs=inner_jobs)
    return RunRecord(
        function=function,
        method=method,
        n=n,
        seed=seed,
        pr_auc=measures["pr_auc"],
        precision=measures["precision"],
        recall=measures["recall"],
        wracc=measures["wracc"],
        n_restricted=measures["n_restricted"],
        n_irrelevant=measures["n_irrelevant"],
        runtime=result.runtime,
        chosen_box=result.chosen_box,
        trajectory=measures["trajectory"],
    )


def run_batch(
    functions: tuple[str, ...],
    methods: tuple[str, ...],
    n: int,
    n_reps: int,
    *,
    variant: str = "continuous",
    n_new: int | None = None,
    tune_metamodel: bool = True,
    base_seed: int = 1_000,
    test_size: int = _TEST_SIZE,
    bumping_repeats: int = 50,
    jobs: int | None = 1,
    store=None,
    resume: bool = True,
    engine: str = "vectorized",
    retries: int = 0,
    task_timeout: float | None = None,
) -> list[RunRecord]:
    """The full grid: every function x method x repetition.

    The grid compiles to an
    :class:`~repro.experiments.parallel.ExecutionPlan` (seeds fixed at
    plan time from grid position, test samples published once through
    the data plane) and runs inline, or with ``jobs`` > 1 (or None for
    all CPUs) on a process pool; records come back in grid order,
    identical to the serial run whatever the scheduling.

    Parameters
    ----------
    store:
        Optional :class:`~repro.experiments.store.ExperimentStore` (or
        directory path): finished cells are loaded instead of re-run
        and fresh cells are persisted as they complete, making the grid
        resumable and incremental.  A warm store returns records
        identical to the cold run while executing zero tasks.
    resume:
        With a store, ``False`` ignores existing records (everything
        recomputes and overwrites); reading is the default.
    engine:
        Kernel engine threaded into every cell (part of the task
        configuration, hence of the store key).
    retries, task_timeout:
        Fault tolerance (see :func:`repro.experiments.parallel.execute`):
        ``retries > 0`` retries failed cells with backoff and completes
        the grid around quarantined ones (raising a structured
        :class:`~repro.experiments.parallel.GridFailureError` at the
        end); ``task_timeout`` arms the per-cell watchdog that kills and
        respawns hung workers.
    """
    from repro.experiments.parallel import execute

    tasks = [
        dict(function=function, method=method, n=n, seed=base_seed + rep,
             variant=variant, n_new=n_new, tune_metamodel=tune_metamodel,
             test_size=test_size, bumping_repeats=bumping_repeats,
             engine=engine)
        for function in functions
        for method in methods
        for rep in range(n_reps)
    ]
    warmup = sorted({(function, variant, test_size) for function in functions})
    return execute(run_single, tasks, jobs, warmup=warmup,
                   store=store, resume=resume,
                   retries=retries, task_timeout=task_timeout)


def _third_party_single(
    dataset: str,
    method: str,
    rep: int,
    fold: int,
    *,
    n_splits: int = 5,
    alpha: float = DEFAULT_THIRD_PARTY_ALPHA["lake"],
    n_new: int | None = None,
    tune_metamodel: bool = True,
    base_seed: int = 77,
    engine: str = "vectorized",
) -> RunRecord:
    """One (repetition, fold) cell of the Section 9.3 cross-validation.

    Rebuilds the fold split from its seeds instead of shipping arrays,
    so a worker process reaches the exact same train/test rows as the
    serial loop.
    """
    from repro.data import third_party_dataset
    from repro.experiments.parallel import budgeted_jobs
    from repro.metamodels.tuning import KFold

    x, y = third_party_dataset(dataset)
    splits = list(KFold(n_splits, seed=base_seed + rep).split(len(x)))
    train, test = splits[fold]
    inner_jobs = budgeted_jobs()
    result = discover(
        method, x[train], y[train],
        seed=base_seed + rep * n_splits + fold,
        alpha=alpha,
        n_new=n_new,
        tune_metamodel=tune_metamodel,
        engine=engine,
        jobs=inner_jobs,
    )
    trajectory = peeling_trajectory(result.boxes, x[test], y[test],
                                    jobs=inner_jobs)
    prec, rec = precision_recall(result.chosen_box, x[test], y[test])
    return RunRecord(
        function=dataset,
        method=method,
        n=len(train),
        seed=base_seed + rep * n_splits + fold,
        pr_auc=pr_auc(trajectory),
        precision=prec,
        recall=rec,
        wracc=wracc_score(result.chosen_box, x[test], y[test]),
        n_restricted=result.chosen_box.n_restricted,
        n_irrelevant=0,  # no ground truth for third-party data
        runtime=result.runtime,
        chosen_box=result.chosen_box,
        trajectory=trajectory,
    )


def run_third_party(
    dataset: str,
    method: str,
    *,
    n_splits: int = 5,
    n_reps: int = 10,
    alpha: float = DEFAULT_THIRD_PARTY_ALPHA["lake"],
    n_new: int | None = None,
    tune_metamodel: bool = True,
    base_seed: int = 77,
    jobs: int | None = 1,
    store=None,
    resume: bool = True,
    engine: str = "vectorized",
    retries: int = 0,
    task_timeout: float | None = None,
) -> list[RunRecord]:
    """Section 9.3: repeated k-fold cross-validation on a fixed table.

    No simulation model exists, so quality is measured on held-out
    folds; the paper runs 5-fold CV ten times and averages.  For "TGL"
    the paper follows earlier work and uses ``alpha = 0.1``.  ``jobs``
    parallelises the (repetition, fold) cells like :func:`run_batch`,
    ``store``/``resume`` make them cacheable the same way, and
    ``retries``/``task_timeout`` give the cells the same fault
    tolerance.
    """
    from repro.experiments.parallel import execute

    tasks = [
        dict(dataset=dataset, method=method, rep=rep, fold=fold,
             n_splits=n_splits, alpha=alpha, n_new=n_new,
             tune_metamodel=tune_metamodel, base_seed=base_seed,
             engine=engine)
        for rep in range(n_reps)
        for fold in range(n_splits)
    ]
    return execute(_third_party_single, tasks, jobs, store=store,
                   resume=resume, retries=retries,
                   task_timeout=task_timeout)


def aggregate_third_party(records: list[RunRecord]) -> dict:
    """Aggregate third-party records: means + cross-fold consistency."""
    grouped: dict[tuple[str, str], list[RunRecord]] = {}
    for record in records:
        grouped.setdefault((record.function, record.method), []).append(record)
    out: dict[tuple[str, str], dict] = {}
    for key, group in grouped.items():
        boxes = [r.chosen_box for r in group]
        out[key] = {
            "pr_auc": float(np.mean([r.pr_auc for r in group])),
            "precision": float(np.mean([r.precision for r in group])),
            "recall": float(np.mean([r.recall for r in group])),
            "wracc": float(np.mean([r.wracc for r in group])),
            "consistency": (pairwise_consistency(boxes)
                            if len(boxes) >= 2 else float("nan")),
            "n_restricted": float(np.mean([r.n_restricted for r in group])),
            "n_irrelevant": 0.0,
            "runtime": float(np.mean([r.runtime for r in group])),
            "n_reps": len(group),
        }
    return out


def aggregate(records: list[RunRecord], *, variant: str = "continuous") -> dict:
    """Per-(function, method) means plus cross-repetition consistency.

    Parameters
    ----------
    records:
        Flat record list from :func:`run_batch`.
    variant:
        Input-distribution variant the records were generated with;
        ``"mixed"`` switches consistency to discrete-level volumes.

    Returns
    -------
    dict
        ``{(function, method): {metric: value}}`` with the metrics of
        Tables 3-5: pr_auc, precision, recall, wracc, consistency,
        n_restricted, n_irrelevant, runtime, n_reps.
    """
    grouped: dict[tuple[str, str], list[RunRecord]] = {}
    for record in records:
        grouped.setdefault((record.function, record.method), []).append(record)

    out: dict[tuple[str, str], dict] = {}
    for key, group in grouped.items():
        function = key[0]
        model = get_model(function)
        levels = discrete_levels_for(model, variant)
        boxes = [r.chosen_box for r in group]
        consistency = (
            pairwise_consistency(boxes, discrete_levels=levels)
            if len(boxes) >= 2 else float("nan")
        )
        out[key] = {
            "pr_auc": float(np.mean([r.pr_auc for r in group])),
            "precision": float(np.mean([r.precision for r in group])),
            "recall": float(np.mean([r.recall for r in group])),
            "wracc": float(np.mean([r.wracc for r in group])),
            "consistency": consistency,
            "n_restricted": float(np.mean([r.n_restricted for r in group])),
            "n_irrelevant": float(np.mean([r.n_irrelevant for r in group])),
            "runtime": float(np.mean([r.runtime for r in group])),
            "n_reps": len(group),
        }
    return out


def average_over_functions(aggregated: dict, methods: tuple[str, ...]) -> dict:
    """Average each metric over functions, per method (the table rows)."""
    rows: dict[str, dict] = {}
    metrics = ("pr_auc", "precision", "recall", "wracc", "consistency",
               "n_restricted", "n_irrelevant", "runtime")
    for method in methods:
        cells = [v for (fn, meth), v in aggregated.items() if meth == method]
        if not cells:
            continue
        rows[method] = {
            metric: float(np.nanmean([c[metric] for c in cells]))
            for metric in metrics
        }
    return rows
