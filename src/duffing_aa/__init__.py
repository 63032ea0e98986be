"""Global action-angle coordinates for the double-well Duffing oscillator.

The phase plane is covered twice by complex squaring; on the covered plane
every orbit turns clockwise around the single center (1, 0), so one global
angle (and an action built on it) describes all three orbit regions at
once.  Subpackage map:

  dynamics     the original vector field and its Hamiltonian
  covering     the two-sheeted covering map, its inverse and the cut
  integrate    RK4 / adaptive RK45 integration of the original plane,
               with the covered images, cut events and sheets
  actionangle  the global angle, its unwrapping and the action integrals
  verify       seeded numerical cross-checks for every closed formula
  cli          scenario runner, figure export (CSV/SVG) and `verify`
"""

from .actionangle import (
    action_covered,
    action_original,
    dH_dtheta,
    energy_angle_curve,
    theta_dot_of,
    theta_of,
    unwrap_theta,
)
from .covering import (
    CoveredState,
    Sheet,
    cover_map,
    covered_field,
    inverse_cover,
)
from .dynamics import (
    Params,
    State,
    duffing_field,
    energy_rate,
    hamiltonian,
    state_on_level,
)
from .exceptions import (
    CenterSingular,
    ConfigError,
    DegenerateCrossing,
    DuffingError,
    MaxStepsExceeded,
    NoReturn,
    OnSeparatrix,
    OriginSingular,
    StepFailure,
    UnwrapAmbiguous,
)
from .integrate import (
    CUT_CROSSING,
    DEFAULT_CONFIG,
    Event,
    IntegratorConfig,
    Trajectory,
    find_period,
    integrate_original,
)
from .verify import CheckReport, run_all, run_check

__version__ = "0.1.0"

# numpy is the only backend; the benchmark report (perfbench/run.py) still
# reads this name
USING_NUMBA = False

__all__ = [
    "USING_NUMBA",
    "action_covered",
    "action_original",
    "dH_dtheta",
    "energy_angle_curve",
    "theta_dot_of",
    "theta_of",
    "unwrap_theta",
    "CoveredState",
    "Sheet",
    "cover_map",
    "covered_field",
    "inverse_cover",
    "Params",
    "State",
    "duffing_field",
    "energy_rate",
    "hamiltonian",
    "state_on_level",
    "CenterSingular",
    "ConfigError",
    "DegenerateCrossing",
    "DuffingError",
    "MaxStepsExceeded",
    "NoReturn",
    "OnSeparatrix",
    "OriginSingular",
    "StepFailure",
    "UnwrapAmbiguous",
    "CUT_CROSSING",
    "DEFAULT_CONFIG",
    "Event",
    "IntegratorConfig",
    "Trajectory",
    "find_period",
    "integrate_original",
    "CheckReport",
    "run_all",
    "run_check",
]
