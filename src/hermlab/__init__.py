"""hermlab: a numerical laboratory for left-invariant Hermitian geometry."""

from .classifiers import classify
from .functionals import (
    first_variation,
    gauduchon_critical_residual,
    gauduchon_functional,
    residual_report,
    torsion_critical_residual,
    torsion_functional,
)
from .lie_hermitian import (
    HermitianStructure,
    RealLieData,
    StructureConstants,
    catalog,
    complexify,
    frame_change,
    unitary_reduction,
    validate,
)
from .optimizer import OptimConfig, OptimTrace, minimize
from .tensor_algebra import cholesky
from .torsion_engine import TorsionPackage, analyze

__version__ = "0.1.0"

__all__ = [
    "HermitianStructure",
    "OptimConfig",
    "OptimTrace",
    "RealLieData",
    "StructureConstants",
    "TorsionPackage",
    "analyze",
    "catalog",
    "cholesky",
    "classify",
    "complexify",
    "first_variation",
    "frame_change",
    "gauduchon_critical_residual",
    "gauduchon_functional",
    "minimize",
    "residual_report",
    "torsion_critical_residual",
    "torsion_functional",
    "unitary_reduction",
    "validate",
    "__version__",
]
