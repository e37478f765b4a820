"""Global solution curves and fold detection for self-similar radial
p-Laplace problems (Gelfand, MEMS, and Joseph-Lundgren type nonlinearities).

The closed forms of :mod:`pfold.model` load with the package.  The public
names of :mod:`pfold.ivp` and :mod:`pfold.curve`, which step and read
trajectories with numpy, load with their module on first access (PEP 562),
so that ``import pfold`` and ``pfold analyze`` run without numpy.  The table
``_LAZY`` is the one list of those names: each module's ``__all__`` is
read from it.
"""

from . import model
from .model import *  # noqa: F401,F403

__version__ = "0.1.0"

# The public names of each module that loads on first access, and the one
# list of them: ``ivp.__all__`` and ``curve.__all__`` are read from here.
_LAZY = {
    "ivp": ("State", "PhaseStats", "Trajectory", "TruncatedTrajectoryError",
            "startup_state", "integrate", "residual", "pohozaev"),
    "curve": ("CurvePoint", "SolutionCurve", "TurningPoint", "IntersectionRecord",
              "ConvergenceReport", "FoldAnswer", "curve_values", "monitor", "build_curve",
              "turning_points", "fold_answer", "intersections", "check_interlacing",
              "convergence", "profile", "singular_profile", "shooting_check"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [*model.__all__, *_OWNER, "model", *_LAZY]


def __getattr__(name):
    """Import the module that owns ``name`` and bind its public names here."""
    owner = name if name in _LAZY else _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime reports
    __import__(f"{__name__}.{owner}")
    module = globals()[owner]
    if owner != name:
        globals().update((key, getattr(module, key)) for key in _LAZY[owner])
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
