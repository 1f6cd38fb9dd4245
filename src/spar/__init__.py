"""Sparse projected averaged regression.

Ensembles of L2-penalized GLMs fitted on screened and randomly
projected predictors, with threshold and ensemble-size selection on a
validation set or by cross-validation.

This namespace holds the user surface: the fits, their specs and result
types, data and model I/O, plugin registration and the errors.  The
building blocks (generators, screening methods, the solver, the grid
scorers) are imported from their modules, e.g. spar.projection.gen_cw.
"""

from .api import fit_spar, fit_spar_cv
from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_model,
    save_csv,
    save_model,
    serialize_model,
)
from .ensemble import (
    AveragedCoef,
    MarginalModel,
    ModelSpec,
    SparEnsemble,
    StandardizationStats,
    standardize,
)
from .errors import (
    ConfigError,
    CvError,
    DataError,
    DomainError,
    InsufficientDataError,
    NumericError,
    ParseError,
    SingularError,
    SparError,
    VersionError,
)
from .families import Family
from .projection import ProjectionMatrix, RpSpec, register_rp_plugin
from .screening import ScreenSpec, register_screen_plugin
from .selection import GridCell, SelectionGrid

__version__ = "0.1.0"

__all__ = [
    "AveragedCoef",
    "ConfigError",
    "CvError",
    "DataError",
    "Dataset",
    "DomainError",
    "Family",
    "GridCell",
    "InsufficientDataError",
    "MarginalModel",
    "ModelSpec",
    "NumericError",
    "ParseError",
    "ProjectionMatrix",
    "RpSpec",
    "ScreenSpec",
    "SelectionGrid",
    "SingularError",
    "SparEnsemble",
    "SparError",
    "StandardizationStats",
    "SyntheticSpec",
    "VersionError",
    "fit_spar",
    "fit_spar_cv",
    "generate_synthetic",
    "load_csv",
    "load_model",
    "register_rp_plugin",
    "register_screen_plugin",
    "save_csv",
    "save_model",
    "serialize_model",
    "standardize",
]
