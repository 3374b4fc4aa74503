"""Hyperboxes: the scenario representation.

A hyperbox is a conjunction of per-input conditions (Section 3.1 of the
paper).  Numeric inputs are restricted to an interval
``[lower_j, upper_j]`` with ``-inf``/``+inf`` denoting an unrestricted
side; categorical inputs are restricted to a *set* of allowed category
codes (``cats[j]``), mirroring the classic PRIM treatment where each
peel removes one category.  Boxes are immutable; peeling and refinement
produce new boxes via :meth:`Hyperbox.replace` / :meth:`Hyperbox.with_cats`.

Volume computations follow Definition 2 of the paper: infinities are
replaced by the bounds of the reference domain (the unit cube for all
our data), and for discrete inputs the count of distinct covered levels
is used instead of interval length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Hyperbox", "cat_mask"]


def cat_mask(column: np.ndarray, allowed) -> np.ndarray:
    """Boolean membership mask of ``column`` values in a category set.

    The single shared implementation of categorical membership: both
    engines (``Hyperbox.contains`` row-wise, the batched
    :func:`repro.subgroup._kernels.contains_many`, the peel/refine
    kernels) route through this helper so their masks are bit-identical
    by construction.

    Parameters
    ----------
    column : ndarray of shape (n,)
        Category codes for one input column.
    allowed : iterable of float
        The allowed category codes (typically a ``frozenset``).

    Returns
    -------
    ndarray of bool, shape (n,)

    Examples
    --------
    >>> import numpy as np
    >>> cat_mask(np.array([0.0, 1.0, 2.0, 1.0]), frozenset({1.0, 2.0})).tolist()
    [False, True, True, True]
    """
    codes = np.array(sorted(allowed), dtype=float)
    return np.isin(np.asarray(column, dtype=float), codes)


def _contains_except(x: np.ndarray, box: Hyperbox,
                     skip_dim: int) -> np.ndarray:
    """Rows of ``x`` inside ``box`` on every restricted dimension but
    ``skip_dim``: the masking reference of PRIM's and BestInterval's
    per-dimension searches."""
    mask = np.ones(len(x), dtype=bool)
    for j in box.restricted_dims:
        if j == skip_dim:
            continue
        allowed = box.cat_restriction(j)
        if allowed is not None:
            mask &= cat_mask(x[:, j], allowed)
        else:
            mask &= (x[:, j] >= box.lower[j]) & (x[:, j] <= box.upper[j])
    return mask


def _normalise_cats(cats, dim: int):
    """Validate/canonicalise a per-column category-set tuple.

    Returns ``None`` when every entry is ``None`` (a pure-numeric box),
    else a tuple of ``frozenset | None`` of length ``dim`` whose codes
    are floats, ``-0.0`` stored as ``0.0``.
    """
    if cats is None:
        return None
    cats = tuple(cats)
    if len(cats) != dim:
        raise ValueError(f"cats must have one entry per dimension ({dim}), got {len(cats)}")
    out = []
    for allowed in cats:
        if allowed is None:
            out.append(None)
            continue
        allowed = frozenset(float(c) + 0.0 for c in allowed)
        if not allowed:
            raise ValueError("a categorical restriction must allow at least one category")
        out.append(allowed)
    if all(a is None for a in out):
        return None
    return tuple(out)


@dataclass(frozen=True)
class Hyperbox:
    """An axis-aligned box with possibly unbounded sides.

    The scenario representation of Section 3.1: a conjunction of
    per-input conditions, rendered to analysts as an IF-THEN rule.
    Numeric inputs carry interval bounds; categorical inputs carry a
    set of allowed category codes.  Immutable — every refinement
    returns a new box.

    Parameters
    ----------
    lower, upper : ndarray
        Equal-length bound vectors; ``-inf``/``+inf`` mark an
        unrestricted side.
    cats : tuple of (frozenset or None), optional
        Per-column allowed category codes. ``None`` (the default) or an
        all-``None`` tuple means no categorical restriction anywhere.
        A dimension with a categorical restriction must keep its
        numeric bounds unrestricted (``-inf``/``+inf``) — membership on
        that column is purely set-based.

    Examples
    --------
    >>> import numpy as np
    >>> box = Hyperbox.unrestricted(2).replace(0, lower=0.25, upper=0.75)
    >>> box
    Hyperbox(0.25 <= a1 <= 0.75)
    >>> box.contains(np.array([[0.5, 0.9], [0.1, 0.9]])).tolist()
    [True, False]
    >>> box.n_restricted, round(box.volume(), 3)
    (1, 0.5)
    >>> mixed = box.with_cats(1, {0.0, 2.0})
    >>> mixed
    Hyperbox(0.25 <= a1 <= 0.75 AND a2 in {0, 2})
    >>> mixed.contains(np.array([[0.5, 2.0], [0.5, 1.0]])).tolist()
    [True, False]
    """

    lower: np.ndarray
    upper: np.ndarray
    cats: tuple | None = None

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError(
                f"bounds must be equal-length vectors, got {lower.shape} / {upper.shape}"
            )
        if not (lower <= upper).all():
            raise ValueError("lower bounds must not exceed upper bounds")
        cats = _normalise_cats(self.cats, len(lower))
        if cats is not None:
            for j, allowed in enumerate(cats):
                if allowed is not None and (np.isfinite(lower[j]) or np.isfinite(upper[j])):
                    raise ValueError(
                        f"dimension {j} is categorically restricted; its numeric "
                        "bounds must stay -inf/+inf"
                    )
        # Freeze the arrays so the dataclass is genuinely immutable.
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "cats", cats)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def unrestricted(cls, dim: int) -> "Hyperbox":
        """The full input space ``prod_j [-inf, +inf]``."""
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))

    def replace(self, dim: int, lower: float | None = None,
                upper: float | None = None) -> "Hyperbox":
        """New box with one dimension's numeric bounds changed."""
        new_lower = self.lower.copy()
        new_upper = self.upper.copy()
        if lower is not None:
            new_lower[dim] = lower
        if upper is not None:
            new_upper[dim] = upper
        return Hyperbox(new_lower, new_upper, self.cats)

    def with_cats(self, dim: int, allowed) -> "Hyperbox":
        """New box with one dimension's categorical restriction changed.

        Parameters
        ----------
        dim : int
            The column to restrict.
        allowed : iterable of float or None
            Allowed category codes; ``None`` removes the restriction.
            The dimension's numeric bounds are reset to ``-inf``/``+inf``
            either way (a column is restricted *either* numerically *or*
            categorically, never both).

        Returns
        -------
        Hyperbox
        """
        cats = list(self.cats) if self.cats is not None else [None] * self.dim
        cats[dim] = None if allowed is None else frozenset(float(c) for c in allowed)
        lower = self.lower.copy()
        upper = self.upper.copy()
        lower[dim] = -np.inf
        upper[dim] = np.inf
        return Hyperbox(lower, upper, tuple(cats))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.lower)

    def cat_restriction(self, dim: int):
        """The allowed-category frozenset for ``dim``, or None."""
        return None if self.cats is None else self.cats[dim]

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Boolean membership mask for rows of ``x``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {x.shape}")
        inside = ((x >= self.lower) & (x <= self.upper)).all(axis=1)
        if self.cats is not None:
            for j, allowed in enumerate(self.cats):
                if allowed is not None:
                    inside &= cat_mask(x[:, j], allowed)
        return inside

    @property
    def restricted_dims(self) -> np.ndarray:
        """Indices of inputs restricted by this box (numeric or categorical)."""
        restricted = np.isfinite(self.lower) | np.isfinite(self.upper)
        if self.cats is not None:
            restricted = restricted | np.array(
                [allowed is not None for allowed in self.cats])
        return np.nonzero(restricted)[0]

    @property
    def n_restricted(self) -> int:
        """The paper's #restricted interpretability measure.

        Cached on first use, like :meth:`key`: beam search checks it
        for every candidate box.
        """
        cached = getattr(self, "_n_restricted", None)
        if cached is None:
            cached = len(self.restricted_dims)
            object.__setattr__(self, "_n_restricted", cached)
        return cached

    def key(self) -> tuple:
        """Hashable identity of the box (for dedup in beam search).

        A 3-tuple ``(lower, upper, cats)`` where ``cats`` is ``None``
        for pure-numeric boxes, else a per-column tuple of ``None`` or
        sorted category codes.  Cached on first use: beam search and
        the refinement memo of
        :func:`repro.subgroup.best_interval.best_interval` key every
        box many times per iteration, and the box is immutable.
        """
        cached = getattr(self, "_key", None)
        if cached is None:
            if self.cats is None:
                cats_key = None
            else:
                cats_key = tuple(
                    None if allowed is None else tuple(sorted(allowed))
                    for allowed in self.cats)
            cached = (tuple(self.lower.tolist()), tuple(self.upper.tolist()),
                      cats_key)
            object.__setattr__(self, "_key", cached)
        return cached

    # ------------------------------------------------------------------
    # Volumes (Definition 2)
    # ------------------------------------------------------------------
    def _clipped_bounds(self, reference_lower: np.ndarray,
                        reference_upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lower = np.maximum(self.lower, reference_lower)
        upper = np.minimum(self.upper, reference_upper)
        return lower, np.maximum(upper, lower)

    def volume(
        self,
        reference_lower: np.ndarray | None = None,
        reference_upper: np.ndarray | None = None,
        discrete_levels: dict[int, np.ndarray] | None = None,
    ) -> float:
        """Normalised volume within the reference domain.

        Continuous dimensions contribute their clipped interval length
        divided by the reference length; discrete dimensions (keys of
        ``discrete_levels``) contribute the fraction of levels covered.
        The unrestricted box therefore has volume 1.

        A categorically restricted dimension contributes the fraction
        of its ``discrete_levels[j]`` entries that are allowed; when no
        level set is supplied for it, it contributes 1 (callers that
        want categorical volume must pass the level grid).
        """
        ref_lo = np.zeros(self.dim) if reference_lower is None else np.asarray(reference_lower, dtype=float)
        ref_hi = np.ones(self.dim) if reference_upper is None else np.asarray(reference_upper, dtype=float)
        lower, upper = self._clipped_bounds(ref_lo, ref_hi)
        fractions = (upper - lower) / (ref_hi - ref_lo)
        if self.cats is not None:
            for j, allowed in enumerate(self.cats):
                if allowed is not None:
                    fractions[j] = 1.0
        if discrete_levels:
            for j, levels in discrete_levels.items():
                levels = np.asarray(levels, dtype=float)
                allowed = self.cat_restriction(j)
                if allowed is not None:
                    fractions[j] = cat_mask(levels, allowed).sum() / len(levels)
                else:
                    covered = ((levels >= lower[j]) & (levels <= upper[j])).sum()
                    fractions[j] = covered / len(levels)
        return float(np.prod(fractions))

    def intersection(self, other: "Hyperbox") -> "Hyperbox | None":
        """The overlap box, or None if the boxes are disjoint.

        Categorical restrictions intersect set-wise (an unrestricted
        side is the universe); an empty intersection on any column
        means the boxes are disjoint.
        """
        lower = np.maximum(self.lower, other.lower)
        upper = np.minimum(self.upper, other.upper)
        if (lower > upper).any():
            return None
        if self.cats is None and other.cats is None:
            return Hyperbox(lower, upper)
        cats = []
        for j in range(self.dim):
            a = self.cat_restriction(j)
            b = other.cat_restriction(j)
            if a is None:
                merged = b
            elif b is None:
                merged = a
            else:
                merged = a & b
                if not merged:
                    return None
            cats.append(merged)
            if merged is not None:
                # One side may restrict the column numerically while the
                # other restricts it categorically; the intersection is
                # categorical with the numeric filter folded away only
                # when the numeric side is unrestricted.
                if np.isfinite(lower[j]) or np.isfinite(upper[j]):
                    a_arr = np.array(sorted(merged))
                    kept = a_arr[(a_arr >= lower[j]) & (a_arr <= upper[j])]
                    if len(kept) == 0:
                        return None
                    cats[j] = frozenset(kept.tolist())
                    lower = lower.copy()
                    upper = upper.copy()
                    lower[j] = -np.inf
                    upper[j] = np.inf
        return Hyperbox(lower, upper, tuple(cats))

    def __repr__(self) -> str:  # compact rule-like rendering
        parts = []
        for j in self.restricted_dims:
            allowed = self.cat_restriction(j)
            if allowed is not None:
                codes = ", ".join(f"{c:g}" for c in sorted(allowed))
                parts.append(f"a{j + 1} in {{{codes}}}")
                continue
            lo = self.lower[j]
            hi = self.upper[j]
            if np.isfinite(lo) and np.isfinite(hi):
                parts.append(f"{lo:.3g} <= a{j + 1} <= {hi:.3g}")
            elif np.isfinite(lo):
                parts.append(f"a{j + 1} >= {lo:.3g}")
            else:
                parts.append(f"a{j + 1} <= {hi:.3g}")
        body = " AND ".join(parts) if parts else "TRUE"
        return f"Hyperbox({body})"
