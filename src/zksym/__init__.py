"""Riemannian geometry of Z_2^k-symmetric reductive homogeneous spaces.

A generic graded-Lie-algebra engine plus the flag manifold
SO(5)/SO(2)xSO(2)xSO(1) as the built-in instance: adapted metrics,
orthonormal frames, the invariant connection, curvature, Ricci tensor and
the solution families of the first Ledger condition.
"""

from . import algebra, analysis, geometry, metric, so5
from .algebra import *
from .analysis import *
from .geometry import *
from .metric import *
from .so5 import *

__version__ = "0.1.0"

__all__ = algebra.__all__ + analysis.__all__ + geometry.__all__ + metric.__all__ + so5.__all__
