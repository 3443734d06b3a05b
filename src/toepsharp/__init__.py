"""Sharp Toeplitz determinant bounds for inverse coefficients of
subordination-defined starlike and convex function classes, with
extremal attainment certificates and numerical sharpness verification.
"""

import importlib

__version__ = "0.1.0"

from .coeffs import ClassKind, FunctionalKind, PhiSpec  # noqa: F401
from .schwarz import SchurParams  # noqa: F401
from .bounds import BoundReport, fekete_szego_bound, omega_region, theorem_bound  # noqa: F401
from .extremal import attainment, extremal_coeffs, inverse_coeffs  # noqa: F401

# The numerical oracle is the only numpy user.  It and its names load on
# first access (PEP 562), so the exact-arithmetic paths never import numpy.
_ORACLE_NAMES = frozenset({"VerificationReport", "Verdict", "lemma1_scan", "maximize"})


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
