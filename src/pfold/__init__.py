"""Global solution curves and fold detection for self-similar radial
p-Laplace problems (Gelfand, MEMS, and Joseph-Lundgren type nonlinearities).
"""

from .model import (
    CharacteristicQuadratic,
    ClassSpec,
    ClosedForms,
    ConditionResult,
    InvalidParamsError,
    Params,
    ProblemClass,
    RegimeReport,
    ValidityError,
    beta_exponent,
    characteristic_quadratic,
    check_conditions,
    class_spec,
    closed_forms,
    guiding_bracket,
    guiding_curvature,
    guiding_eval,
    validate_params,
)
from .ivp import (
    IntegrationError,
    IntegratorConfig,
    PhaseStats,
    State,
    Trajectory,
    TruncatedTrajectoryError,
    integrate,
    pohozaev,
    residual,
    startup_state,
)
from .curve import (
    ConvergenceReport,
    CurvePoint,
    IntersectionRecord,
    SolutionCurve,
    TurningPoint,
    build_curve,
    check_interlacing,
    convergence,
    curve_values,
    intersections,
    monitor,
    profile,
    shooting_check,
    singular_profile,
    turning_points,
)

__version__ = "0.1.0"
