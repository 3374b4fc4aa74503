"""The workloads, their correctness checks and the leak check.

Each workload function takes the workload seed, the measuring window in
seconds and an optional :class:`spans.Tracer`, and returns a
:class:`Run`.  Without a tracer it measures the end-to-end metrics; with
one it traces every unit of work and pairs the first units with
untraced repeats to measure the tracing overhead.  Why each workload
exists is recorded in ``run.py``'s docstring.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import numpy as np

from repro.core.reds import fit_stats
from repro.data import get_model
from repro.experiments import harness
from repro.experiments.dataplane import SEGMENT_PREFIX, resident_stats
from repro.experiments.parallel import cpu_budget, pool_stats
from repro.experiments.session import Session

#: The test-data cache itself, kept here because a traced run swaps the
#: module binding for a wrapper without ``cache_clear``.
_GET_TEST_DATA = harness.get_test_data

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

CELL_FUNCTION = "borehole"
CELL_N = 400
#: Every training set goes through every method.  What a cell costs
#: depends on its training set (the tuned configuration sets the size
#: of the labelling model) by up to a third, so each run averages over
#: three.
CELL_METHODS = ("RPx", "RBIcxp", "RPf", "Pc", "PBc", "BIc")
CELL_SEEDS = 3

#: The session explores the same four datasets (training seeds 0-3) in
#: every run, and the workload seed draws its request seeds.  A warm
#: request is mostly labelling with its dataset's tuned model, whose
#: size the tuning picks, so with seed-drawn datasets the mean over four
#: of them still moved by 40% from seed to seed, reproducibly.
SESSION_DATASETS = 4
SESSION_STREAM = ("RPx", "RPxp", "RPcx", "RBIcxp", "RPf")
SESSION_REQUEST_SEEDS = 2


# ----------------------------------------------------------------------
# Results and checks
# ----------------------------------------------------------------------

def digest_of(*parts) -> str:
    """Short SHA-256 over arrays (by bytes) and anything else (by repr)."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


def box_problems(box) -> list[str]:
    """Why ``box`` is not a box inside the unit cube (empty when it is)."""
    bounds = np.concatenate([box.lower, box.upper])
    finite = bounds[np.isfinite(bounds)]
    if np.isnan(bounds).any() or ((finite < 0) | (finite > 1)).any():
        return [f"box {box!r} leaves the unit cube"]
    return []


def measure_problems(measures: dict, box) -> list[str]:
    """Range checks on one cell's test measures and its chosen box."""
    problems = box_problems(box)
    for name, low, high in (("pr_auc", 0, 1), ("precision", 0, 1),
                            ("recall", 0, 1), ("wracc", -0.25, 0.25)):
        value = measures[name]
        if not (np.isfinite(value) and low <= value <= high):
            problems.append(f"{name}={value!r} outside [{low}, {high}]")
    return problems


def record_digest(record) -> str:
    return digest_of(record.pr_auc, record.precision, record.recall,
                     record.wracc, record.n_restricted, record.n_irrelevant,
                     record.chosen_box.lower, record.chosen_box.upper,
                     record.trajectory)


def result_digest(result) -> str:
    """Digest of a :class:`DiscoveryResult` (every box of its trajectory)."""
    parts = [result.train_quality, sorted(result.hyperparams.items())]
    for box in result.boxes:
        parts += [box.lower, box.upper]
    return digest_of(*parts)


class Tally:
    """Attempted and failed operations, and the result of every cell.

    A cell seen again must give the digest it gave the first time; a
    traced repeat of an untraced cell and a warm repeat of a cold
    request are checked the same way.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.seen: Counter = Counter()
        self._digests: dict = {}

    def record(self, key, digest: str, problems=()) -> None:
        self.attempted += 1
        self.seen[key] += 1
        problems = list(problems)
        if self._digests.setdefault(key, digest) != digest:
            problems.append("result differs from the earlier run of this cell")
        if problems:
            self.failures.append(f"{key}: {'; '.join(problems)}")

    def error(self, key) -> None:
        self.attempted += 1
        self.failures.append(f"{key}: {traceback.format_exc(limit=3)}")

    def check(self, what: str, ok: bool) -> None:
        """One operation that is not a cell, such as the leak check."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def digest(self, keys) -> str:
        """The workload's results digest over the cells ``keys``."""
        return digest_of(sorted((repr(k), self._digests[k]) for k in keys))


@dataclass
class Run:
    """What one workload invocation measured."""

    tally: Tally = field(default_factory=Tally)
    setup_s: list[float] = field(default_factory=list)
    # Whole rounds of the measuring window, in seconds at nominal host
    # speed: their wall time, cells, ``(unit, seconds)`` per unit and
    # ``(method, group, discovery seconds)`` per cell, the group being
    # the training set or dataset the cell ran on.
    wall: float = 0.0
    cells: int = 0
    unit_s: list[tuple[object, float]] = field(default_factory=list)
    samples: list[tuple[str, object, float]] = field(default_factory=list)
    request_s_p50: float = 0.0
    quality: dict = field(default_factory=dict)
    substrate: dict = field(default_factory=dict)
    units_run: int = 0
    # Traced runs only.
    traced_wall: float = 0.0
    traced_cells: int = 0
    overhead_s: list[float] = field(default_factory=list)
    coverage: list = field(default_factory=list)


# ----------------------------------------------------------------------
# Leak check
# ----------------------------------------------------------------------

def shm_segments() -> int:
    """Data-plane segments currently in ``/dev/shm``."""
    root = Path("/dev/shm")
    return sum(1 for _ in root.glob(SEGMENT_PREFIX + "*")) if root.is_dir() else 0


def live_children() -> int:
    """Child processes of this one, except the shared-memory tracker."""
    me = str(os.getpid())
    count = 0
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            state_ppid = (proc / "stat").read_text().rsplit(")", 1)[1].split()
            cmdline = (proc / "cmdline").read_bytes()
        except (OSError, IndexError):
            continue
        if state_ppid[1] == me and b"resource_tracker" not in cmdline:
            count += 1
    return count


def check_leaks(run: Run, segments_before: int) -> None:
    leaked = max(shm_segments() - segments_before, 0)
    children = live_children()
    run.substrate["experiments.dataplane.leaked_segments"] = leaked
    run.substrate["experiments.parallel.leaked_children"] = children
    run.tally.check(f"leak check: {leaked} shm segments, {children} live "
                    "child processes", leaked == 0 and children == 0)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def pool_counters(run: Run, before: dict, after: dict) -> None:
    """Pool spawns per unit of work run, and the share of reused pools."""
    spawned = after["spawned"] - before["spawned"]
    reused = after["reused"] - before["reused"]
    run.substrate["experiments.parallel.pool.spawned"] = ratio(spawned, run.units_run)
    run.substrate["experiments.parallel.pool.reuse_ratio"] = ratio(reused, spawned + reused)


# ----------------------------------------------------------------------
# The measuring loop shared by all workloads
# ----------------------------------------------------------------------

def drive(run: Run, units: list, seconds: float, call, tracer, pairs: int,
          round_len: int, first_pass: int | None = None) -> None:
    """Run ``units`` in a cycle until ``seconds`` passed.

    ``call(unit)`` runs one unit of work, records its cells in ``run``
    and returns how many cells it completed.  The first ``first_pass``
    units (default: one round) run whatever the time, which makes the
    quality metrics a function of the seed alone.  The timings count
    whole rounds of ``round_len`` units only, so every run times the
    same mix of cells, and each unit's times are read at nominal host
    speed (:mod:`hostspeed`, sampled between units).  With a tracer
    every unit runs traced, and the first ``pairs`` units run untraced
    too, in alternating order, for the tracing overhead.
    """
    first_pass = round_len if first_pass is None else first_pass
    start = time.perf_counter()
    timed, cells, marks = [], [], []
    speed = hostspeed.factor() if tracer is None else 1.0
    i = 0
    while i < first_pass or time.perf_counter() - start < seconds:
        unit = units[i % len(units)]
        run.units_run += 1 if tracer is None or i >= pairs else 2
        if tracer is None:
            mark = len(run.samples)
            t0 = time.perf_counter()
            cells.append(call(unit))
            wall = time.perf_counter() - t0
            after = hostspeed.factor()
            scale, speed = 2.0 / (speed + after), after
            run.samples[mark:] = [(method, group, s * scale)
                                  for method, group, s in run.samples[mark:]]
            timed.append((unit, wall * scale))
            marks.append(len(run.samples))
        else:
            pair = {}
            order = (False, True) if i % 2 == 0 else (True, False)
            for traced in order if i < pairs else (True,):
                named = tracer.named_s()
                t0 = time.perf_counter()
                with tracer if traced else contextlib.nullcontext():
                    done = call(unit)
                pair[traced] = time.perf_counter() - t0
                if traced:
                    run.coverage.append((unit, pair[True], tracer.named_s() - named))
            run.traced_wall += pair[True]
            run.traced_cells += done
            if False in pair:
                run.overhead_s.append(pair[True] - pair[False])
        i += 1
    if tracer is None:
        whole = len(timed) - len(timed) % round_len
        run.unit_s, run.cells = timed[:whole], sum(cells[:whole])
        run.wall = sum(s for _, s in run.unit_s)
        del run.samples[marks[whole - 1]:]


def timed_setup(run: Run, tracer, work) -> None:
    """Time one set-up unit at nominal host speed (traced with
    ``tracer`` when given)."""
    before = hostspeed.factor()
    t0 = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        work()
    wall = time.perf_counter() - t0
    run.setup_s.append(2.0 * wall / (before + hostspeed.factor()))


def group_medians(pairs) -> float:
    """Mean over groups of the median within each group, so that every
    training set or dataset weighs the same however many rounds ran."""
    groups: dict = {}
    for group, seconds in pairs:
        groups.setdefault(group, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in groups.values())


def cold_start(code: str) -> None:
    """Run ``code`` in a fresh interpreter: start, import, build inputs.

    This is the fixed cost every one-shot invocation pays before its
    first cell, so import-time work shows up in ``setup_s``.
    """
    src = str(Path(harness.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=120, stdout=subprocess.DEVNULL)


# ----------------------------------------------------------------------
# cell-tuned
# ----------------------------------------------------------------------

def cell_tuned(seed: int, seconds: float, tracer=None, setup_tracer=None) -> Run:
    run = Run()
    model = get_model(CELL_FUNCTION)
    data_seeds = tuple(CELL_SEEDS * seed + k for k in range(CELL_SEEDS))
    segments = shm_segments()
    pools = pool_stats()

    def setup() -> None:
        cold_start(
            "from repro.data import get_model\n"
            "from repro.experiments import harness\n"
            f"harness.get_test_data({CELL_FUNCTION!r})\n"
            f"for s in {data_seeds!r}:\n"
            f"    harness.make_train_data(get_model({CELL_FUNCTION!r}), {CELL_N}, s)\n")
        _GET_TEST_DATA.cache_clear()
        harness.get_test_data(CELL_FUNCTION)
        for data_seed in data_seeds:
            harness.make_train_data(model, CELL_N, data_seed)

    for _ in range(SETUP_REPEATS):
        timed_setup(run, setup_tracer, setup)
    # Lazy initialisation (first-call allocations at full L, imports
    # inside functions) finishes in one untuned, untimed cell.
    harness.run_single(CELL_FUNCTION, "RPx", CELL_N, data_seeds[0],
                       tune_metamodel=False)

    def call(unit) -> int:
        method, data_seed = unit
        key = (CELL_FUNCTION, method, CELL_N, data_seed)
        try:
            record = harness.run_single(CELL_FUNCTION, method, CELL_N, data_seed)
        except Exception:
            run.tally.error(key)
            return 0
        run.samples.append((method, data_seed, record.runtime))
        run.quality.setdefault(key, (record.pr_auc, record.wracc))
        run.tally.record(key, record_digest(record),
                         measure_problems(vars(record), record.chosen_box))
        return 1

    units = [(method, s) for s in data_seeds for method in CELL_METHODS]
    drive(run, units, seconds, call, tracer, pairs=len(CELL_METHODS),
          round_len=len(units))
    # What a caller waits for here is one training set through every
    # method: the sum of its six cells in one round.
    requests: Counter = Counter()
    for i, ((_, data_seed), s) in enumerate(run.unit_s):
        requests[i // len(units), data_seed] += s
    run.request_s_p50 = statistics.median(requests.values()) if requests else 0.0
    pool_counters(run, pools, pool_stats())
    check_leaks(run, segments)
    return run


# ----------------------------------------------------------------------
# session-explore
# ----------------------------------------------------------------------

def session_explore(seed: int, seconds: float, tracer=None, setup_tracer=None) -> Run:
    run = Run()
    jobs = cpu_budget()
    model = get_model(CELL_FUNCTION)
    segments = shm_segments()
    datasets = [harness.make_train_data(model, CELL_N, d)
                for d in range(SESSION_DATASETS)]
    request_seeds = tuple(SESSION_REQUEST_SEEDS * seed + k
                          for k in range(SESSION_REQUEST_SEEDS))
    first_seed = request_seeds[0]
    results = {}

    def request(session, d: int, method: str, request_seed: int) -> int:
        key = ("dataset", d, method, request_seed)
        x, y = datasets[d]
        try:
            result = session.discover(method, x, y, seed=request_seed)
        except Exception:
            run.tally.error(key)
            return 0
        run.samples.append((method, d, result.runtime))
        if request_seed == first_seed:
            results.setdefault(key, result)
        run.tally.record(key, result_digest(result), box_problems(result.chosen_box))
        return 1

    with Session(jobs=jobs, tune=True) as session:
        # The cold first pass of one dataset is one set-up unit: its
        # tuned boosting and forest fits, pool spawns, first publishes.
        for d in range(SESSION_DATASETS):
            timed_setup(run, setup_tracer, lambda: [
                request(session, d, method, first_seed) for method in ("RPx", "RPf")])
        run.samples.clear()
        pools, fits, resident = pool_stats(), fit_stats(), resident_stats()
        units = [(d, method, s) for s in request_seeds
                 for d in range(SESSION_DATASETS) for method in SESSION_STREAM]
        drive(run, units, seconds, lambda unit: request(session, *unit), tracer,
              pairs=len(SESSION_STREAM), round_len=len(SESSION_STREAM),
              first_pass=SESSION_DATASETS * len(SESSION_STREAM))
        pool_counters(run, pools, pool_stats())
        if run.unit_s:
            run.request_s_p50 = group_medians((d, s) for (d, _, _), s in run.unit_s)
        fits = {k: v - fits[k] for k, v in fit_stats().items()}
        resident = {k: v - resident[k] for k, v in resident_stats().items()}
    run.substrate["core.reds.fit_memo.hit_ratio"] = ratio(
        fits["hits"], fits["hits"] + fits["fits"])
    run.substrate["experiments.dataplane.segments.published"] = ratio(
        resident["published"], run.units_run)
    run.substrate["experiments.dataplane.segments.reuse_ratio"] = ratio(
        resident["reused"], resident["published"] + resident["reused"])
    for d in range(SESSION_DATASETS):
        run.tally.check(f"dataset {d}: warm RPx request never compared with cold",
                        run.tally.seen[("dataset", d, "RPx", first_seed)] >= 2)

    # Test quality of the first-seed requests, after the measuring window.
    x_test, y_test = _GET_TEST_DATA(CELL_FUNCTION)
    for key, result in sorted(results.items()):
        measures = harness.evaluate_boxes(result, x_test, y_test, model.relevant)
        run.quality[key] = (measures["pr_auc"], measures["wracc"])
        problems = measure_problems(measures, result.chosen_box)
        run.tally.check(f"{key}: {'; '.join(problems)}", not problems)
    check_leaks(run, segments)
    return run


WORKLOADS = {
    "cell-tuned": cell_tuned,
    "session-explore": session_explore,
}
