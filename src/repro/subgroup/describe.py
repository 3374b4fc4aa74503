"""Human-readable scenario descriptions.

PRIM's selling point for scenario discovery is that domain experts read
the result (Section 5 of the paper).  This module turns boxes into the
artefacts an analyst actually consumes: named IF-THEN rules with bounds
in the model's native units, per-box coverage statistics and a textual
peeling-trajectory summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.subgroup.box import Hyperbox

__all__ = ["describe_box", "describe_trajectory", "summarize_box",
           "BoxSummary"]


@dataclass(frozen=True)
class BoxSummary:
    """Coverage statistics of one box on one dataset."""

    n_covered: int
    n_positive_covered: int
    precision: float
    recall: float
    volume: float
    n_restricted: int


def summarize_box(box: Hyperbox, x: np.ndarray, y: np.ndarray) -> BoxSummary:
    """Compute the coverage statistics of ``box`` on ``(x, y)``."""
    y = np.asarray(y, dtype=float)
    inside = box.contains(x)
    # Computed inline (not via repro.metrics) to keep the subgroup
    # package import-cycle free: metrics builds on subgroup, not vice
    # versa.
    n = int(inside.sum())
    covered_pos = float(y[inside].sum())
    total_pos = float(y.sum())
    prec = covered_pos / n if n else 0.0
    rec = covered_pos / total_pos if total_pos else 0.0
    return BoxSummary(
        n_covered=int(inside.sum()),
        n_positive_covered=int(y[inside].sum()),
        precision=prec,
        recall=rec,
        volume=box.volume(),
        n_restricted=box.n_restricted,
    )


def _format_bound(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def describe_box(
    box: Hyperbox,
    *,
    input_names: list[str] | None = None,
    domain: np.ndarray | None = None,
    digits: int = 3,
) -> str:
    """Render a box as an IF-THEN rule (the Section 5 presentation).

    Parameters
    ----------
    box:
        The scenario to render.
    input_names:
        Replaces the generic ``a1..aM``.
    domain:
        A ``(2, M)`` array of native bounds; converts the unit-cube
        bounds to the model's native units — the form an expert expects.
    digits:
        Significant digits per bound.

    Returns
    -------
    str
        One-line rule, e.g. ``IF 0.2 <= a1 <= 0.6 THEN y = 1``.

    Examples
    --------
    >>> from repro.subgroup.box import Hyperbox
    >>> box = Hyperbox.unrestricted(3).replace(0, lower=0.2, upper=0.6)
    >>> describe_box(box.replace(2, upper=0.5), input_names=["rain", "temp", "cost"])
    'IF 0.2 <= rain <= 0.6 AND cost <= 0.5 THEN y = 1'
    >>> describe_box(box.with_cats(1, {0.0, 2.0}), input_names=["rain", "mode", "cost"])
    'IF 0.2 <= rain <= 0.6 AND mode in {0, 2} THEN y = 1'
    """
    names = input_names or [f"a{j + 1}" for j in range(box.dim)]
    if len(names) != box.dim:
        raise ValueError(f"need {box.dim} input names, got {len(names)}")
    lower = box.lower.copy()
    upper = box.upper.copy()
    if domain is not None:
        dom = np.asarray(domain, dtype=float)
        if dom.shape != (2, box.dim):
            raise ValueError(f"domain must be (2, {box.dim}), got {dom.shape}")
        width = dom[1] - dom[0]
        lower = np.where(np.isfinite(lower), dom[0] + lower * width, -np.inf)
        upper = np.where(np.isfinite(upper), dom[0] + upper * width, np.inf)

    conditions = []
    for j in box.restricted_dims:
        allowed = box.cat_restriction(j)
        if allowed is not None:
            # Category codes are nominal identifiers, never unit-cube
            # coordinates, so domain scaling does not apply to them.
            codes = ", ".join(f"{c:g}" for c in sorted(allowed))
            conditions.append(f"{names[j]} in {{{codes}}}")
            continue
        has_lower = np.isfinite(lower[j])
        has_upper = np.isfinite(upper[j])
        if has_lower and has_upper:
            conditions.append(
                f"{_format_bound(lower[j], digits)} <= {names[j]}"
                f" <= {_format_bound(upper[j], digits)}")
        elif has_lower:
            conditions.append(f"{names[j]} >= {_format_bound(lower[j], digits)}")
        else:
            conditions.append(f"{names[j]} <= {_format_bound(upper[j], digits)}")
    if not conditions:
        return "IF TRUE THEN y = 1"
    return "IF " + " AND ".join(conditions) + " THEN y = 1"


def describe_trajectory(
    boxes: list[Hyperbox],
    x: np.ndarray,
    y: np.ndarray,
    *,
    max_rows: int = 15,
) -> str:
    """A textual peeling-trajectory table (the PRIM 'dialogue').

    One row per box: support, precision, recall, volume, #restricted —
    what an analyst scans to pick the box matching their needs.  Long
    trajectories are thinned to ``max_rows`` evenly spaced rows (the
    last box is always shown).
    """
    if not boxes:
        raise ValueError("trajectory is empty")
    indices = np.arange(len(boxes))
    if len(boxes) > max_rows:
        indices = np.unique(np.linspace(0, len(boxes) - 1, max_rows).astype(int))

    lines = [f"{'box':>5} {'n':>7} {'precision':>10} {'recall':>8} "
             f"{'volume':>8} {'#restr':>7}"]
    for i in indices:
        summary = summarize_box(boxes[i], x, y)
        lines.append(
            f"{i:>5} {summary.n_covered:>7} {summary.precision:>10.3f} "
            f"{summary.recall:>8.3f} {summary.volume:>8.4f} "
            f"{summary.n_restricted:>7}")
    return "\n".join(lines)

