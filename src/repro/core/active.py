"""Active-learning REDS — the paper's Section 10 future-work direction.

The paper proposes combining REDS with active learning: instead of
spending the whole simulation budget on one space-filling design, run a
small initial design, then iteratively let the metamodel choose the
most informative points to simulate next (uncertainty sampling), and
only then extract scenarios from the final metamodel.

This module implements that loop for any metamodel with probability
outputs.  ``oracle`` stands for the expensive simulation model: a
callable mapping unit-cube points to binary labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.reds import Sampler
from repro.metamodels.base import Metamodel, predict_chunked
from repro.metamodels.tuning import make_metamodel

__all__ = ["active_reds", "ActiveResult", "STRATEGIES"]

Oracle = Callable[[np.ndarray], np.ndarray]

#: Available acquisition strategies.
STRATEGIES = ("uncertainty", "random")


@dataclass
class ActiveResult:
    """Output of the active-learning loop.

    ``x``/``y`` hold every simulated point (initial design + queries);
    ``sd_output`` is the subgroup-discovery result on the final
    relabelled sample; ``acquisition_history`` records the mean
    predictive uncertainty of each queried batch — useful to verify the
    loop actually concentrates on the boundary.
    """

    sd_output: Any
    metamodel: Metamodel
    x: np.ndarray
    y: np.ndarray
    acquisition_history: list[float] = field(default_factory=list)


def _select_batch(
    strategy: str,
    probabilities: np.ndarray,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray:
    if strategy == "uncertainty":
        # Smallest margin to the decision boundary first.
        order = np.argsort(np.abs(probabilities - 0.5), kind="stable")
        return order[:batch]
    return rng.choice(len(probabilities), size=batch, replace=False)


def active_reds(
    oracle: Oracle,
    dim: int,
    sd: Callable[[np.ndarray, np.ndarray], Any],
    *,
    initial: int = 100,
    budget: int = 400,
    batch: int = 50,
    metamodel: str = "boosting",
    strategy: str = "uncertainty",
    candidate_pool: int = 4_000,
    n_new: int = 20_000,
    soft_labels: bool = False,
    sampler: Sampler | None = None,
    rng: np.random.Generator | None = None,
    jobs: int | None = 1,
) -> ActiveResult:
    """REDS with an active simulation loop.

    Parameters
    ----------
    oracle:
        The simulation model: unit-cube points -> 0/1 labels.
    dim:
        Input dimensionality M.
    sd:
        Subgroup-discovery algorithm applied to the final relabelled
        sample (same contract as :func:`repro.core.reds.reds`).
    initial:
        Size of the space-filling initial design.
    budget:
        Total number of oracle calls (initial design included).
    batch:
        Points queried per active iteration.
    metamodel / strategy / candidate_pool:
        Metamodel family, acquisition strategy (``"uncertainty"`` or
        ``"random"``) and per-iteration candidate-pool size.
    n_new / soft_labels / sampler:
        Passed to the final REDS labelling step.
    jobs:
        Worker processes (None = all CPUs) for the per-round candidate
        scoring and the final relabelling, each one contiguous row
        chunk per worker via
        :func:`repro.metamodels.base.predict_chunked`, and — for the
        forest metamodel — for each round's refit, whose independent
        tree fits fan out under the same budget (clamped to the
        ambient worker lease when the loop itself runs inside a
        budgeted plan).  Bit-identical to the serial loop for every
        setting.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if initial < 2:
        raise ValueError(f"initial design must have >= 2 points, got {initial}")
    if budget < initial:
        raise ValueError(f"budget {budget} is below the initial design {initial}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if rng is None:
        rng = np.random.default_rng()
    draw = sampler if sampler is not None else (
        lambda n, m, gen: gen.random((n, m)))

    # Initial space-filling design.
    x = draw(initial, dim, rng)
    y = np.asarray(oracle(x), dtype=float)

    # Every round refits from scratch; the forest's independent tree
    # fits are the dominant cost, so hand them the loop's worker
    # budget.  Other families fit sequentially (their fits are cheap
    # relative to the candidate scoring, which fans out regardless).
    fit_kwargs = dict(jobs=jobs) if metamodel == "forest" else {}

    model = make_metamodel(metamodel, **fit_kwargs).fit(x, y)
    history: list[float] = []
    remaining = budget - initial
    while remaining > 0:
        take = min(batch, remaining)
        candidates = draw(candidate_pool, dim, rng)
        probabilities = np.clip(
            predict_chunked(model, candidates, soft=True, jobs=jobs),
            0.0, 1.0)
        picked = _select_batch(strategy, probabilities, take, rng)
        history.append(float(np.abs(probabilities[picked] - 0.5).mean()))

        x_query = candidates[picked]
        y_query = np.asarray(oracle(x_query), dtype=float)
        x = np.vstack([x, x_query])
        y = np.concatenate([y, y_query])
        model = make_metamodel(metamodel, **fit_kwargs).fit(x, y)
        remaining -= take

    # Final REDS step: relabel a large sample with the final metamodel.
    x_new = draw(n_new, dim, rng)
    if soft_labels:
        y_new = np.clip(
            predict_chunked(model, x_new, soft=True, jobs=jobs), 0.0, 1.0)
    else:
        y_new = np.asarray(predict_chunked(model, x_new, jobs=jobs),
                           dtype=float)
    sd_output = sd(x_new, y_new)

    return ActiveResult(
        sd_output=sd_output,
        metamodel=model,
        x=x,
        y=y,
        acquisition_history=history,
    )
