"""Executable topological surgery plus the hole-drilling predator-prey flow.

Two halves that meet in the middle: combinatorial surgery on curves and
triangulated surfaces (with certifying invariants), and the three-species
system whose trajectories carry out the same surgery on nested shells when
a parameter crosses B/A = 1.
"""

from .dynamics import (
    EigenData,
    EquilibriumReport,
    SlowManifold,
    SystemParams,
    eigen,
    equilibria,
    jacobian,
    region,
    rhs,
    slow_manifold,
)
from .integrate import IntegrationError, Trajectory, integrate, resample
from .manifolds import (
    InvalidManifold,
    InvariantReport,
    OneManifold,
    Surface,
    build_standard,
    globe,
    invariants,
    subdivide,
)
from .morse import LevelSetFrame, morse_frames
from .orbits import (
    LimitCycle,
    LimitCycleNotFound,
    ShellClassification,
    WindingProfile,
    classify_shell,
    detect_limit_cycle,
    poincare,
    winding_profile,
)
from .solid import SectionReport, SolidFamily, cross_section_check, solid_surgery
from .surgery import (
    AnnulusSite,
    CurveSite,
    DiscPairSite,
    GluingMap,
    InvalidSite,
    surgery_1d_0,
    surgery_2d_0,
    surgery_2d_1,
)

__version__ = "0.1.0"
