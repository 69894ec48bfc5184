"""Pseudospectral simulator and verification harness for the Schrodinger map
flow on the torus: a chart-side fixed-point solver for the associated
derivative Schrodinger equation, an independent structure-preserving sphere
integrator, and space-time norm diagnostics for the underlying dispersive
estimates.
"""

from .errors import (
    AxisOutOfRange,
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
from .nonlinearity import DealiasPolicy, cross_rhs, n_zero, nonlinearity
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
    lpq_norm,
    nsigma_upper,
    spacetime_transform,
    xk_norm,
)
from .spectral import (
    ComplexField,
    apply_jsigma,
    eta0,
    eta_shell,
    free_propagate,
    gradient,
    hsigma_norm,
    l2_norm,
    lp_project,
    psi,
    transform,
)

__version__ = "0.1.0"
