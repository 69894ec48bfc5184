"""Pseudospectral simulator and verification harness for the Schrodinger map
flow on the torus: a chart-side fixed-point solver for the associated
derivative Schrodinger equation, an independent structure-preserving sphere
integrator, and space-time norm diagnostics for the underlying dispersive
estimates.
"""

from .errors import (
    ChartViolation,
    ConfigError,
    DegenerateInput,
    EmptyEnsemble,
    GridMismatch,
    InnerDivergence,
    MaxIterExceeded,
    NoContraction,
    RepresentationMismatch,
    SmapError,
    UnsupportedDirection,
    ValidationFailure,
    WindowTooShort,
)
from .geometry import SphereField, sobolev_distance, stereo_lift, stereo_project
from .grid import GridSpec
from .nonlinearity import DealiasPolicy
from .report import NormReport
from .solver import (
    PicardHistory,
    Trajectory,
    duhamel_map,
    free_trajectory,
    midpoint_snapshots,
    picard_solve,
)
from .spacetime import (
    DirectionSet,
    SpaceTimeSpectrum,
    fsigma_upper,
    lemma_diagnostics,
    nsigma_upper,
    spacetime_transform,
)
from .spectral import (
    ComplexField,
    eta0,
    eta_shell,
    hsigma_norm,
    l2_norm,
    psi,
    transform,
)

__version__ = "0.1.0"
