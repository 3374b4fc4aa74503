"""Central kernel-engine registry: one name check, and one worker-count
check.

Every layer that takes an ``engine=`` knob (tree/forest/boosting,
PRIM, BestInterval, ``discover``, the harness, the CLI, benchmarks)
resolves the name through :func:`resolve` instead of scattering
``engine in (...)`` string checks.  Two engines exist:

* ``"vectorized"`` — the numpy sort-once kernels (the default);
* ``"reference"`` — the pinned per-item reference loops that the
  equivalence suites compare the vectorized kernels against.

Every layer that takes a ``jobs=`` knob checks it through
:func:`check_jobs` where the value is set.
"""

from __future__ import annotations

__all__ = ["KNOWN_ENGINES", "check_jobs", "resolve"]

#: Every engine name any layer accepts, in default-first order.
KNOWN_ENGINES = ("vectorized", "reference")


def resolve(engine: str) -> str:
    """Validate an engine name and return it.

    Raises one early ``ValueError`` listing the valid names for any
    unknown engine — the single place a bad ``--engine`` /
    ``REDS_ENGINE`` value surfaces.
    """
    if engine not in KNOWN_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {KNOWN_ENGINES}")
    return engine


def check_jobs(jobs: int | None) -> None:
    """``ValueError`` unless ``jobs`` is a worker count: ``None`` (all
    CPUs) or at least 0.  Entry points that take ``jobs`` call it where
    the value is set, so a bad one fails whether or not the call fans
    out."""
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0 or None, got {jobs}")
