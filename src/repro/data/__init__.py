"""Simulation-model substrate: every data source of Table 1 of the paper.

The registry exposes 33 simulation models (analytic test functions plus
the "dsgc" smart-grid simulation) and the two third-party datasets
("TGL" and "lake").  Each model maps points of the unit hypercube to a
binary "interesting" label, exactly as in the paper's experimental
pipeline: sample inputs, simulate, binarise with a threshold.
"""

from repro.data.levers import LEVER_MODELS, get_lever_model
from repro.data.model import SimulationModel, make_dataset
from repro.data.registry import (
    get_model,
    third_party_dataset,
    ALL_FUNCTIONS,
    CONTINUOUS_FUNCTIONS,
    MIXED_INPUT_FUNCTIONS,
    LEVER_FUNCTIONS,
    THIRD_PARTY,
    TABLE1,
    Table1Entry,
)

__all__ = [
    "SimulationModel",
    "make_dataset",
    "get_model",
    "get_lever_model",
    "third_party_dataset",
    "ALL_FUNCTIONS",
    "CONTINUOUS_FUNCTIONS",
    "MIXED_INPUT_FUNCTIONS",
    "LEVER_FUNCTIONS",
    "LEVER_MODELS",
    "THIRD_PARTY",
    "TABLE1",
    "Table1Entry",
]
