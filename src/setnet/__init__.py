"""Deep learning on set-structured data with permutation-equivariant layers.

Self-contained: a float64 tensor core, tape-based reverse-mode autodiff,
equivariant set layers over packed variable-cardinality batches, optimizers,
data pipelines, training experiments, and a CLI.
"""

from .errors import (
    BudgetError,
    ConfigError,
    ContractError,
    DegenerateMeshError,
    DegenerateSetError,
    DimensionError,
    EmptyReductionError,
    FormatError,
    NumericError,
    SetNetError,
)
from .layers import (
    Dense,
    Dropout,
    EquivariantLayer,
    NormalizeSets,
    SetBatch,
    SetPool,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "SetNetError",
    "DimensionError",
    "EmptyReductionError",
    "NumericError",
    "ContractError",
    "FormatError",
    "ConfigError",
    "BudgetError",
    "DegenerateSetError",
    "DegenerateMeshError",
    "SetBatch",
    "EquivariantLayer",
    "Dense",
    "SetPool",
    "NormalizeSets",
    "Dropout",
    "evaluate",
    "__version__",
]
