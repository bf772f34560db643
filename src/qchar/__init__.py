"""Exact q-series arithmetic and dual-route verification of series-product identities.

The package computes the same formal power series two independent ways --
as a finite product of rescaled Euler products, and as a lattice sum over a
positive-definite quadratic exponent function -- and checks the expansions
against each other coefficient by coefficient, to any requested truncation
order, in exact integer arithmetic.  The public names are those of the four
modules' __all__ lists, each listed once, in its module.
"""

from . import affine, identities, qseries, quadform
from .qseries import *
from .quadform import *
from .affine import *
from .identities import *

__version__ = "0.1.0"

__all__ = [
    *qseries.__all__,
    *quadform.__all__,
    *affine.__all__,
    *identities.__all__,
    "__version__",
]
