"""Conditional branch predictor families and the simulation driver.

``simulate`` and its stream types load with the package. Every other name
loads its module on first access, so code that only reads streams (charax,
helper) does not import the predictors. No predictor imports numpy.
"""

from importlib import import_module

# eager: loaded lazily, ``simulate`` would be shadowed by its own submodule,
# which the import system sets as a package attribute once it is imported
from .simulate import MispredictionStream, SimRecord, simulate

_LAZY = {
    name: module
    for module, names in (
        ("base", "ConditionalPredictor"),
        ("ensemble", "EnsembleConfig TageSCL ensemble_config"),
        ("history", "FoldedRegister GlobalHistory fold_history"),
        ("loop", "LoopPredictor"),
        ("perceptron", "Perceptron"),
        ("presets", "PRESET_NAMES estimate_storage load_predictor_config make_predictor"),
        ("sc", "CorrectorConfig StatisticalCorrector"),
        ("simple", "AlwaysTaken Bimodal Gshare"),
        ("tage", "AllocationStats Tage TageConfig"),
    )
    for name in names.split()
}

__all__ = sorted(["MispredictionStream", "SimRecord", "simulate", *_LAZY])


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
