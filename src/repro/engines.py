"""Central kernel-engine registry: one name check.

Every layer that takes an ``engine=`` knob (tree/forest/boosting,
PRIM, BestInterval, ``discover``, the harness, the CLI, benchmarks)
resolves the name through :func:`resolve` instead of scattering
``engine in (...)`` string checks.  Two engines exist:

* ``"vectorized"`` — the numpy sort-once kernels (the default);
* ``"reference"`` — the pinned per-item reference loops that the
  equivalence suites compare the vectorized kernels against.
"""

from __future__ import annotations

__all__ = ["KNOWN_ENGINES", "resolve"]

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
