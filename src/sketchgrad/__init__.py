"""Sketch-compressed distributed Adam-type optimization on a simulated cluster.

The names below are the documented API (see README, "Library"); every
other public name is importable from its own module.
"""

from .sketch import CountSketch, SketchConfig, merge, scale, sketch_vector
from .compressors import ProtocolConfig, sketched_topk_aggregate
from .optimizers import HyperParams, OptimizerState, step
from .simulation import ProblemSpec, RunConfig, run

__all__ = [
    "CountSketch",
    "HyperParams",
    "OptimizerState",
    "ProblemSpec",
    "ProtocolConfig",
    "RunConfig",
    "SketchConfig",
    "merge",
    "run",
    "scale",
    "sketch_vector",
    "sketched_topk_aggregate",
    "step",
]

__version__ = "0.1.0"
