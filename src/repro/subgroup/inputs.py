"""The one input check of the subgroup-discovery entry points.

:func:`~repro.subgroup.prim.prim_peel`,
:func:`~repro.subgroup.bumping.prim_bumping`,
:func:`~repro.subgroup.best_interval.best_interval` and the three
``optimize_*`` searches of :mod:`repro.core.hyperparams` run
:func:`check_sd_data` once per call, before any work: NaN inputs would
otherwise make the engines disagree (a NaN fails every comparison of
the masking reference but sorts last in the vectorized kernels), and a
mis-shaped validation set would return a plausible box or an
``IndexError`` from deep inside a peel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_finite", "check_peel_params", "check_sd_data"]


def check_finite(x: np.ndarray, y: np.ndarray, *, caller: str,
                 names: tuple[str, str] = ("x", "y")) -> None:
    """``ValueError`` unless every entry of ``x`` and ``y`` is finite.

    ``caller`` names the entry point and ``names`` the two arrays in
    the messages.
    """
    if not np.isfinite(x).all():
        bad = int(np.argmin(np.isfinite(x).all(axis=0)))
        raise ValueError(f"{names[0]} column {bad} holds NaN or inf; "
                         f"{caller} needs finite inputs")
    if not np.isfinite(y).all():
        raise ValueError(f"{names[1]} holds NaN or inf; {caller} needs "
                         "finite labels")


def check_sd_data(x, y, x_val=None, y_val=None, *, caller: str):
    """``(x, y, x_val, y_val)`` as float arrays a subgroup search can use.

    ``x`` must be a 2-D array of finite values and ``y`` a finite
    vector with one label per row.  Validation data come as a pair: a
    2-D ``x_val`` with the columns of ``x``, at least one row, and one
    finite label per row in ``y_val``.  Absent validation data stay
    ``None``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    if y.ndim != 1 or len(y) != len(x):
        raise ValueError(f"x and y disagree: {len(x)} rows vs y of shape "
                         f"{y.shape}")
    check_finite(x, y, caller=caller)
    if (x_val is None) != (y_val is None):
        raise ValueError("x_val and y_val must be provided together")
    if x_val is not None:
        x_val = np.asarray(x_val, dtype=float)
        y_val = np.asarray(y_val, dtype=float)
        if x_val.ndim != 2 or x_val.shape[1] != x.shape[1]:
            raise ValueError(
                f"x_val must be a 2-D array with the {x.shape[1]} columns of "
                f"x, got shape {x_val.shape}")
        if y_val.ndim != 1 or len(y_val) != len(x_val):
            raise ValueError(f"x_val and y_val disagree: {len(x_val)} rows vs "
                             f"y_val of shape {y_val.shape}")
        if not len(x_val):
            raise ValueError(f"x_val has no rows; {caller} needs validation "
                             "data to choose its box")
        check_finite(x_val, y_val, caller=caller, names=("x_val", "y_val"))
    return x, y, x_val, y_val


def check_peel_params(alpha: float, min_support: int) -> None:
    """``ValueError`` unless ``alpha`` and ``min_support`` can drive a peel."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
