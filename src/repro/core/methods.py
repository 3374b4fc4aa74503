"""Method registry: build any evaluated method from its paper name.

Naming conventions of Section 8.2:

* ``"P"`` — PRIM peeling with default ``alpha = 0.05``;
* ``"Pc"`` — PRIM with cross-validated ``alpha``;
* ``"PB"`` / ``"PBc"`` — PRIM with bumping (``Q = 50``), default /
  cross-validated hyperparameters;
* ``"BI"`` / ``"BI5"`` — BestInterval with beam size 1 / 5;
* ``"BIc"`` — BestInterval with cross-validated depth ``m``;
* REDS methods start with ``"R"``: then the SD algorithm (``P`` or
  ``BI``), an optional ``c`` (SD hyperparameters tuned on ``D``), the
  metamodel letter (``f`` = random forest, ``x`` = XGBoost-style
  boosting, ``s`` = RBF SVM), and an optional trailing ``p`` for the
  soft-label ("probabilities") modification.  Examples: ``"RPx"``,
  ``"RPfp"``, ``"RPcxp"``, ``"RBIcxp"``.

Defaults follow Table 2: ``mp = 20``, ``Q = 50``, ``L = 10^5`` for
PRIM-based REDS and ``L = 10^4`` for BI-based REDS.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import hyperparams as hp
from repro.core.reds import (Sampler, check_label_rows, check_training_data,
                              reds)
from repro.engines import check_jobs, resolve as resolve_engine
from repro.sampling.designs import QuantizedUniform
from repro.subgroup.best_interval import best_interval
from repro.subgroup.box import Hyperbox
from repro.subgroup.bumping import prim_bumping
from repro.subgroup.prim import prim_peel

__all__ = ["MethodSpec", "DiscoveryResult", "parse_method", "discover"]

_METAMODEL_BY_LETTER = {"f": "forest", "x": "boosting", "s": "svm"}
_REDS_PATTERN = re.compile(r"^R(P|BI)(c?)([fxs])(p?)$")

#: Table 2 defaults.
DEFAULT_ALPHA = 0.05
DEFAULT_MIN_SUPPORT = 20
DEFAULT_BUMPING_REPEATS = 50
DEFAULT_L_PRIM = 100_000
DEFAULT_L_BI = 10_000


@dataclass(frozen=True)
class MethodSpec:
    """Parsed method name."""

    name: str
    sd: str                      # "prim" | "bumping" | "bi"
    optimize: bool               # the "c" suffix
    beam_size: int = 1           # BI only
    metamodel: str | None = None  # REDS only: "forest" | "boosting" | "svm"
    soft_labels: bool = False    # REDS "p" modification

    @property
    def is_reds(self) -> bool:
        return self.metamodel is not None

    @property
    def family(self) -> str:
        """"prim" for trajectory-producing methods, "bi" otherwise."""
        return "bi" if self.sd == "bi" else "prim"


def parse_method(name: str) -> MethodSpec:
    """Parse a Section 8.2 method name into a :class:`MethodSpec`."""
    plain = {
        "P": MethodSpec(name, "prim", optimize=False),
        "Pc": MethodSpec(name, "prim", optimize=True),
        "PB": MethodSpec(name, "bumping", optimize=False),
        "PBc": MethodSpec(name, "bumping", optimize=True),
        "BI": MethodSpec(name, "bi", optimize=False, beam_size=1),
        "BI5": MethodSpec(name, "bi", optimize=False, beam_size=5),
        "BIc": MethodSpec(name, "bi", optimize=True, beam_size=1),
    }
    if name in plain:
        return plain[name]
    match = _REDS_PATTERN.match(name)
    if match is None:
        raise ValueError(
            f"unknown method name {name!r}; expected one of {sorted(plain)} "
            "or a REDS name like 'RPx', 'RPfp', 'RPcxp', 'RBIcxp'"
        )
    sd_token, c_token, am_token, p_token = match.groups()
    return MethodSpec(
        name=name,
        sd="prim" if sd_token == "P" else "bi",
        optimize=bool(c_token),
        metamodel=_METAMODEL_BY_LETTER[am_token],
        soft_labels=bool(p_token),
    )


@dataclass
class DiscoveryResult:
    """Unified output of any method.

    ``boxes`` is the trajectory-like sequence used for PR AUC (nested
    boxes for PRIM, the Pareto set for bumping, a single box for BI);
    ``chosen_box`` is the "last box" used for the point measures.
    """

    method: str
    boxes: list[Hyperbox]
    chosen_box: Hyperbox
    runtime: float
    hyperparams: dict = field(default_factory=dict)
    train_quality: float = 0.0


def _check_inputs(spec: MethodSpec, x: np.ndarray, y: np.ndarray) -> None:
    """Reject data the method cannot use, before any work starts."""
    check_training_data(
        x, y, caller="discover",
        binary_for=(f"method {spec.name!r} relabels through a "
                    f"{spec.metamodel} classifier and")
        if spec.is_reds else None)
    if spec.optimize and len(x) < hp.CV_FOLDS:
        raise ValueError(
            f"method {spec.name!r} tunes its hyperparameters by "
            f"{hp.CV_FOLDS}-fold cross-validation and needs at least "
            f"{hp.CV_FOLDS} rows, got {len(x)}; use the method without "
            "'c' to keep the default hyperparameters")


def discover(
    name: str,
    x: np.ndarray,
    y: np.ndarray,
    *,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
    min_support: int = DEFAULT_MIN_SUPPORT,
    n_repeats: int = DEFAULT_BUMPING_REPEATS,
    n_new: int | None = None,
    sampler: Sampler | None = None,
    pool: np.ndarray | None = None,
    tune_metamodel: bool = True,
    paste: bool = False,
    engine: str = "vectorized",
    jobs: int | None = 1,
    cat_levels: dict[int, int] | None = None,
) -> DiscoveryResult:
    """Run the method ``name`` on dataset ``(x, y)``.

    Parameters beyond the data mirror Table 2 and the REDS knobs:
    ``alpha`` is used when the method does not optimise it; ``n_new``
    overrides the ``L`` default; ``sampler``/``pool`` set the REDS input
    distribution (Sections 9.1.2 / 9.4); ``tune_metamodel`` can disable
    the caret-style metamodel grid search for quick runs; ``engine``
    selects the kernel engine (``"vectorized"`` / ``"reference"``) for
    PRIM peeling, the SD-hyperparameter searches of the ``c`` methods,
    the BestInterval beam search (see
    :func:`repro.subgroup.prim.prim_peel` and
    :func:`repro.subgroup.best_interval.best_interval`) *and* the
    metamodel layer of REDS methods (tree growth and stacked ensemble
    prediction, see :mod:`repro.metamodels._kernels`); ``jobs`` fans
    the data-parallel stages (metamodel tuning folds, pool labeling,
    bumping repeats) out over worker processes with bit-identical
    results.

    ``cat_levels`` declares categorical inputs as a ``{column index:
    level count}`` map (:attr:`repro.data.model.SimulationModel.cat_levels_map`).
    The listed columns must hold integer codes ``0 .. K-1``; subgroup
    discovery then peels/refines them category-wise (subset
    restrictions instead of intervals), and REDS methods draw their
    relabeling sample with those columns quantized to the same codes.
    Hyperparameter optimisation (the ``c`` methods) still scores
    candidates on ordinal-coded data — a deliberate simplification
    that only affects which ``alpha``/``m`` gets picked, never the
    discovery semantics.  The metamodel layer likewise treats the codes
    as ordered integers (the documented ordinal fallback, see
    :mod:`repro.metamodels._kernels`).
    """
    spec = parse_method(name)
    engine = resolve_engine(engine)
    check_jobs(jobs)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_inputs(spec, x, y)
    rows = {"x": x}
    if spec.is_reds and pool is not None:
        pool = rows["pool"] = check_label_rows(pool, x.shape[1],
                                               caller="discover", what="pool")
    if cat_levels:
        bad = [j for j in cat_levels if not 0 <= int(j) < x.shape[1]]
        if bad:
            raise ValueError(
                f"cat_levels columns {bad} out of range for {x.shape[1]} inputs")
        cat_levels = {int(j): int(k) for j, k in cat_levels.items()}
        for what, data in rows.items():
            for j, k in cat_levels.items():
                codes = data[:, j]
                if not ((codes == np.floor(codes)) & (codes >= 0)
                        & (codes < k)).all():
                    raise ValueError(
                        f"cat_levels column {j} of {what} must hold integer "
                        f"codes in [0, {k}), got values in "
                        f"[{codes.min():g}, {codes.max():g}]")
    cat_cols = tuple(sorted(cat_levels)) if cat_levels else ()
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    chosen_params: dict = {}

    # ------------------------------------------------------------------
    # Resolve SD hyperparameters (on D, also for REDS methods).
    # ------------------------------------------------------------------
    if spec.sd in ("prim", "bumping"):
        if spec.optimize:
            alpha = hp.optimize_alpha(x, y, min_support=min_support,
                                      seed=seed, engine=engine)
        chosen_params["alpha"] = alpha
    depth = None
    if spec.sd == "bumping":
        if spec.optimize:
            depth = hp.optimize_bumping_features(
                x, y, alpha=alpha, min_support=min_support, seed=seed,
                engine=engine)
        else:
            depth = x.shape[1]
        chosen_params["m"] = depth
    if spec.sd == "bi":
        if spec.optimize:
            depth = hp.optimize_bi_depth(x, y, beam_size=spec.beam_size,
                                         seed=seed, engine=engine)
        else:
            depth = x.shape[1]
        chosen_params["m"] = depth
        chosen_params["bs"] = spec.beam_size

    # ------------------------------------------------------------------
    # Build the SD callable.  For REDS methods the *original* simulated
    # dataset serves as PRIM's validation set: the relabelled points
    # only guide the peeling, while box selection and the minimum-
    # support constraint stay grounded in real simulations.  Otherwise
    # the selection would chase metamodel artefacts into arbitrarily
    # deep (tiny, unstable) boxes, destroying the consistency gains the
    # paper reports.
    # ------------------------------------------------------------------
    validation = (x, y) if spec.is_reds else (None, None)
    if spec.sd == "prim":
        def run_sd(data_x: np.ndarray, data_y: np.ndarray):
            return prim_peel(data_x, data_y, alpha=alpha,
                             min_support=min_support, paste=paste,
                             x_val=validation[0], y_val=validation[1],
                             engine=engine, cat_cols=cat_cols)
    elif spec.sd == "bumping":
        def run_sd(data_x: np.ndarray, data_y: np.ndarray):
            return prim_bumping(
                data_x, data_y, alpha=alpha, min_support=min_support,
                n_repeats=n_repeats, n_features=depth, rng=rng,
                x_val=validation[0], y_val=validation[1],
                engine=engine, cat_cols=cat_cols, jobs=jobs,
            )
    else:
        def run_sd(data_x: np.ndarray, data_y: np.ndarray):
            return best_interval(data_x, data_y, depth=depth,
                                 beam_size=spec.beam_size, engine=engine,
                                 cat_cols=cat_cols)

    # ------------------------------------------------------------------
    # Run, possibly through REDS.
    # ------------------------------------------------------------------
    if spec.is_reds:
        if n_new is None:
            n_new = DEFAULT_L_PRIM if spec.family == "prim" else DEFAULT_L_BI
        if cat_levels and sampler is None and pool is None:
            # The relabeling sample must live in the same mixed input
            # space as D: uniform on the numeric columns, uniform over
            # the integer codes on the categorical ones.
            sampler = QuantizedUniform(cat_levels)
        chosen_params["L"] = n_new if pool is None else len(pool)
        chosen_params["metamodel"] = spec.metamodel
        reds_result = reds(
            x, y, run_sd,
            metamodel=spec.metamodel,
            n_new=n_new,
            soft_labels=spec.soft_labels,
            sampler=sampler,
            pool=pool,
            tune=tune_metamodel,
            rng=rng,
            engine=engine,
            jobs=jobs,
        )
        sd_output = reds_result.sd_output
    else:
        sd_output = run_sd(x, y)

    runtime = time.perf_counter() - t0
    boxes, chosen_box, train_quality = _extract_boxes(spec, sd_output)
    return DiscoveryResult(
        method=name,
        boxes=boxes,
        chosen_box=chosen_box,
        runtime=runtime,
        hyperparams=chosen_params,
        train_quality=train_quality,
    )


def _extract_boxes(spec: MethodSpec, sd_output) -> tuple[list[Hyperbox], Hyperbox, float]:
    if spec.sd == "prim":
        return (list(sd_output.boxes), sd_output.chosen_box,
                float(sd_output.val_means[sd_output.chosen]))
    if spec.sd == "bumping":
        boxes = list(sd_output.boxes)
        if not boxes:  # degenerate: fall back to the unrestricted box
            full = Hyperbox.unrestricted(1)
            return [full], full, 0.0
        return boxes, sd_output.chosen_box, float(sd_output.precisions.max())
    return [sd_output.box], sd_output.box, float(sd_output.wracc)
