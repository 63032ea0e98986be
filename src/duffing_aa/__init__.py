"""Global action-angle coordinates for the double-well Duffing oscillator.

The phase plane is covered twice by complex squaring; on the covered plane
every orbit turns clockwise around the single center (1, 0), so one global
angle (and an action built on it) describes all three orbit regions at
once.  Subpackage map:

  dynamics     the original vector field and its Hamiltonian
  covering     the covering map square, its sheet rule sheet_sign, its
               inverse principal_root and the covered field, elementwise
  integrate    adaptive RK45 integration of the original plane, and the
               periods of its closed orbits
  actionangle  the global angle, its unwrapping and the action integrals
  verify       seeded numerical cross-checks for every closed formula
  cli          scenario runner, figure export (CSV/SVG) and `verify`
"""

import types

from .actionangle import (action_covered, action_original, dH_dtheta,
                          energy_angle_curve, theta_dot_of, theta_of, unwrap_theta)
from .covering import covered_field, principal_root, sheet_sign, square
from .dynamics import (Params, State, duffing_field, energy_rate, hamiltonian,
                       state_on_level)
from .exceptions import (CenterSingular, ConfigError, DuffingError, MaxStepsExceeded,
                         NoReturn, OnSeparatrix, OriginSingular, StepFailure,
                         UnwrapAmbiguous)
from .integrate import (DEFAULT_CONFIG, IntegratorConfig, Trajectory, find_period,
                        integrate_original)
from .verify import CheckReport, run_all, run_check

__version__ = "0.1.0"

# numpy is the only backend; the benchmark report (perfbench/run.py) still
# reads this name
USING_NUMBA = False

# the public names are the non-module names imported or defined above
__all__ = [n for n, v in list(globals().items())
           if not n.startswith("_") and not isinstance(v, types.ModuleType)]
