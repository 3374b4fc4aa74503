"""The paper's contribution: REDS and the method registry.

:func:`repro.core.reds.reds` implements Algorithm 4; the
:mod:`repro.core.methods` registry builds every method evaluated in the
paper from its Section 8.2 name (``"P"``, ``"Pc"``, ``"PB"``, ``"PBc"``,
``"BI"``, ``"BI5"``, ``"BIc"``, ``"RPf"``, ``"RPx"``, ``"RPs"``,
``"RPxp"``, ``"RPfp"``, ``"RPcxp"``, ``"RBIcxp"``, ``"RBIcfp"``, ...).

The attribute ``repro.core.reds`` is the function, which shadows the
submodule of the same name (so does ``import repro.core.reds as m``);
the module is reached with ``importlib.import_module("repro.core.reds")``,
as ``tests/test_label_memo.py`` does.
"""

from repro.core.reds import reds, REDSResult
from repro.core.active import active_reds, ActiveResult, STRATEGIES
from repro.core.methods import discover, parse_method, DiscoveryResult, MethodSpec
from repro.core.hyperparams import (
    optimize_alpha,
    optimize_bumping_features,
    optimize_bi_depth,
    depth_grid,
    ALPHA_GRID,
)

__all__ = [
    "reds",
    "REDSResult",
    "active_reds",
    "ActiveResult",
    "STRATEGIES",
    "discover",
    "parse_method",
    "DiscoveryResult",
    "MethodSpec",
    "optimize_alpha",
    "optimize_bumping_features",
    "optimize_bi_depth",
    "depth_grid",
    "ALPHA_GRID",
]
