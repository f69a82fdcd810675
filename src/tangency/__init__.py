"""Validated-numerics certification of generically unfolding quadratic
homoclinic tangencies in one-parameter families of planar maps.

The library verifies, rigorously on machine arithmetic, heteroclinic chains
of covering relations with cone conditions for the projectivized dynamics of
a planar map family, plus the disk parameterizations of the center-(un)stable
manifolds that pin the tangency parameter.  The bundled drivers reproduce the
full certification for the Henon family (``tangency.henon``) and for an
analytically solvable model map (``tangency.toy``); the ``tangency`` CLI
exposes both.
"""

from tangency.covering import (
    CoveringCertificate,
    EnclosureError,
    VerificationInconclusive,
    check_chain,
    check_covering,
)
from tangency.cones import (
    ConeCertificate,
    check_cone_chain,
    check_cone_link,
    cone_matrix,
    rump_positive_definite,
)
from tangency.hset import Frame, HSet, QuadraticForm
from tangency.interval import Interval, IntervalError
from tangency.kernels import BACKEND
from tangency.linalg import inverse_enclosure
from tangency.manifold import DiskCertificate, verify_disk
from tangency.projective import ChartError, ChartMap

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ChartError",
    "ChartMap",
    "ConeCertificate",
    "CoveringCertificate",
    "DiskCertificate",
    "EnclosureError",
    "Frame",
    "HSet",
    "Interval",
    "IntervalError",
    "QuadraticForm",
    "VerificationInconclusive",
    "check_chain",
    "check_cone_chain",
    "check_cone_link",
    "check_covering",
    "cone_matrix",
    "inverse_enclosure",
    "rump_positive_definite",
    "verify_disk",
    "__version__",
]
