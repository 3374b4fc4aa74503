"""Space-filling experiment designs on the unit hypercube.

All designs return an ``(n, m)`` float array with rows in ``[0, 1]^m``.
Simulation models scale these to their native input domains themselves
(see :mod:`repro.data.model`), so samplers and models stay decoupled.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

__all__ = [
    "latin_hypercube",
    "halton_sequence",
    "uniform_random",
    "quantize_levels",
    "QuantizedUniform",
    "get_sampler",
    "SAMPLERS",
]

# The first 100 primes are plenty: no model in the study has more than
# 30 inputs, and Halton quality degrades for very high bases anyway.
_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
    281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359,
    367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439,
    443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541,
]


def _check_shape(n: int, m: int) -> None:
    if n <= 0:
        raise ValueError(f"number of points must be positive, got {n}")
    if m <= 0:
        raise ValueError(f"number of dimensions must be positive, got {m}")


def uniform_random(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Plain Monte-Carlo sample of ``n`` points in ``[0, 1]^m``."""
    _check_shape(n, m)
    return rng.random((n, m))


def latin_hypercube(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube sample: each margin is stratified into ``n`` cells.

    For every dimension independently, the ``n`` points occupy the ``n``
    equal-width strata ``[i/n, (i+1)/n)`` exactly once, with a uniform
    jitter inside each stratum.  This is the classic McKay et al. design
    the paper uses for all analytic functions.
    """
    _check_shape(n, m)
    # Stratum index permutation per dimension, plus in-stratum jitter.
    samples = np.empty((n, m))
    strata = np.arange(n, dtype=float)
    for j in range(m):
        samples[:, j] = (rng.permutation(strata) + rng.random(n)) / n
    return samples


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of ``indices`` in the given base."""
    result = np.zeros(len(indices), dtype=float)
    fraction = 1.0 / base
    remaining = indices.copy()
    while remaining.any():
        result += fraction * (remaining % base)
        remaining //= base
        fraction /= base
    return result


def halton_sequence(
    n: int,
    m: int,
    rng: np.random.Generator | None = None,
    *,
    skip: int = 20,
) -> np.ndarray:
    """Halton low-discrepancy sequence in ``[0, 1]^m``.

    The paper samples the "dsgc" simulation with a Halton sequence
    (Halton 1964).  When ``rng`` is given, the sequence is randomised with
    a Cranley-Patterson rotation (random shift modulo 1) so repeated
    experiments see different but equally well-spread designs; without it
    the raw deterministic sequence is returned.  The first ``skip``
    elements are dropped, a standard guard against the strongly
    correlated start of the sequence.
    """
    _check_shape(n, m)
    if m > len(_PRIMES):
        raise ValueError(f"Halton sequence supports at most {len(_PRIMES)} dimensions")
    indices = np.arange(skip + 1, skip + n + 1, dtype=np.int64)
    samples = np.column_stack([_radical_inverse(indices, _PRIMES[j]) for j in range(m)])
    if rng is not None:
        samples = (samples + rng.random(m)) % 1.0
    return samples


def quantize_levels(u: np.ndarray,
                    cat_levels: dict[int, int]) -> np.ndarray:
    """Map unit-interval columns of a design to integer category codes.

    The bridge between continuous space-filling designs and categorical
    model inputs: column ``j`` listed in ``cat_levels`` is mapped from
    ``[0, 1)`` to the codes ``0 .. K-1`` by ``floor(u * K)`` (the value
    ``1.0`` maps to ``K - 1``).  Equal-width strata mean a stratified
    design (Latin hypercube, Halton) yields near-balanced level counts —
    the category-aware analogue of its margin stratification — while
    plain Monte-Carlo designs get multinomially distributed counts.

    Parameters
    ----------
    u : ndarray of shape (n, m)
        A design on the unit hypercube.
    cat_levels : dict[int, int]
        Maps column index -> number of category levels (>= 2).

    Returns
    -------
    ndarray of shape (n, m)
        A copy of ``u`` with the listed columns replaced by float codes
        ``0.0 .. K-1``.

    Examples
    --------
    >>> import numpy as np
    >>> u = np.array([[0.1, 0.74], [0.9, 0.26]])
    >>> quantize_levels(u, {1: 4}).tolist()
    [[0.1, 2.0], [0.9, 1.0]]
    """
    x = np.array(u, dtype=float, copy=True)
    for j, k in cat_levels.items():
        if k < 2:
            raise ValueError(f"column {j} needs >= 2 levels, got {k}")
        if j < 0 or j >= x.shape[1]:
            raise ValueError(f"cat_levels column {j} out of range "
                             f"for {x.shape[1]} columns")
        x[:, j] = np.minimum(np.floor(u[:, j] * k), k - 1)
    return x


@dataclass(frozen=True, init=False)
class QuantizedUniform:
    """Uniform Monte-Carlo sampler with categorical columns quantized.

    ``QuantizedUniform(levels)(n, m, rng)`` is
    ``quantize_levels(rng.random((n, m)), levels)``: uniform on the
    numeric columns, uniform over the integer codes ``0 .. K-1`` on the
    columns ``levels`` maps to ``K``.  Unlike a closure over ``levels``
    it compares and hashes by what it draws, and like ``rng.random`` it
    fills rows in order, so a shorter draw from the same generator state
    is a prefix of a longer one.
    """

    levels: tuple[tuple[int, int], ...]

    def __init__(self, levels: Mapping[int, int]) -> None:
        object.__setattr__(self, "levels", tuple(sorted(
            (int(j), int(k)) for j, k in levels.items())))

    def __call__(self, n: int, m: int,
                 rng: np.random.Generator) -> np.ndarray:
        return quantize_levels(rng.random((n, m)), dict(self.levels))


SAMPLERS = {
    "lhs": latin_hypercube,
    "halton": halton_sequence,
    "uniform": uniform_random,
}


def get_sampler(name: str):
    """Look up a sampler by name (``"lhs"``, ``"halton"``, ``"uniform"``)."""
    try:
        return SAMPLERS[name]
    except KeyError:
        raise KeyError(
            f"unknown sampler {name!r}; available: {sorted(SAMPLERS)}"
        ) from None
