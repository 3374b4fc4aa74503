"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.subgroup.box import Hyperbox

try:
    from hypothesis import HealthCheck, settings

    # One fixed, derandomized profile so the property-based differential
    # suite (tests/test_property_differential.py) is exactly as
    # reproducible as the seeded tests: no flaky shrink sessions in CI,
    # identical example streams everywhere.  Select explicitly with
    # HYPOTHESIS_PROFILE=ci (the tier-1 workflow does); "dev" allows a
    # larger budget for local exploration.
    settings.register_profile(
        "ci",
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", max_examples=100, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - hypothesis always in requirements
    pass


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def planted_box_data(
    n: int,
    dim: int,
    lower: float = 0.2,
    upper: float = 0.6,
    n_active: int = 2,
    noise: float = 0.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, Hyperbox]:
    """Uniform points with y = 1 exactly inside a planted axis box.

    The box restricts the first ``n_active`` dimensions to
    ``[lower, upper]``; optional label noise flips a share of labels.
    """
    gen = np.random.default_rng(seed)
    x = gen.random((n, dim))
    inside = ((x[:, :n_active] >= lower) & (x[:, :n_active] <= upper)).all(axis=1)
    y = inside.astype(np.int64)
    if noise > 0:
        flips = gen.random(n) < noise
        y = np.where(flips, 1 - y, y)
    bounds_lo = np.full(dim, -np.inf)
    bounds_hi = np.full(dim, np.inf)
    bounds_lo[:n_active] = lower
    bounds_hi[:n_active] = upper
    return x, y, Hyperbox(bounds_lo, bounds_hi)
