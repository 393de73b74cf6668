"""Exact-arithmetic toolkit for weight-two newform product formulas.

Computes newform q-expansions from rational elliptic curves by point
counting, extracts the infinite-product exponents g_n, reproduces the
embedded building-block table, verifies the classical eta/theta identities,
and searches for product decompositions under the two linear constraints.
"""

__version__ = "0.1.0"

from .elliptic import Curve, ReductionInfo, an_expansion, count_points, curve_from_quintuple, reduction_at
from .eta import EtaQuotient, eta_quotient_series, eta_signed, euler_product, verify_e2_identity
from .products import (
    BlockProfile,
    ExponentSequence,
    block_profile,
    extract_exponents,
    infer_block,
    log_derivative_quotient,
    reconstruct,
)
from .qseries import PowerSeries

__all__ = [
    "BlockProfile",
    "Curve",
    "EtaQuotient",
    "ExponentSequence",
    "PowerSeries",
    "ReductionInfo",
    "an_expansion",
    "block_profile",
    "count_points",
    "curve_from_quintuple",
    "eta_quotient_series",
    "eta_signed",
    "euler_product",
    "extract_exponents",
    "infer_block",
    "log_derivative_quotient",
    "reconstruct",
    "reduction_at",
    "verify_e2_identity",
]
