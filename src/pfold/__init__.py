"""Global solution curves and fold detection for self-similar radial
p-Laplace problems (Gelfand, MEMS, and Joseph-Lundgren type nonlinearities).
"""

from .model import *  # noqa: F401,F403
from .ivp import *  # noqa: F401,F403
from .curve import *  # noqa: F401,F403

__version__ = "0.1.0"
