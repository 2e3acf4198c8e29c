"""Exact arithmetic for polylogarithms at non-positive integer indices.

The package computes Li(s1,...,sr)(z) = sum_{n1>...>nr>0} n1^s1...nr^sr z^n1
as a canonical rational function in Q[z, 1/(1-z)], expands such values
through the Magnus polynomial basis of the free algebra on two
letters, and generates and verifies Q-linear functional equations
among them.  Everything is exact; no floating point anywhere.
"""

from . import freealg, magnus, polylog, ratpoly, words
from .freealg import *  # noqa: F401,F403
from .magnus import *  # noqa: F401,F403
from .polylog import *  # noqa: F401,F403
from .ratpoly import *  # noqa: F401,F403
from .words import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*words.__all__, *freealg.__all__, *ratpoly.__all__, *magnus.__all__, *polylog.__all__, "__version__"]
