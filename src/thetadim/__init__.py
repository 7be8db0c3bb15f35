"""Exact Verlinde numbers and theta-bundle dimension identities.

Computes dimensions of spaces of theta functions for SL(n) (fixed
determinant) and GL(n) (full) moduli of vector bundles on a genus-g curve,
with every trigonometric value backed by a certified interval enclosure
and an integrality certificate, and mechanically verifies the identities
relating the two families: the transfer law, the level-rank involution,
theta-bundle pullback and rescaling factorizations, and genus-1 closed
forms.
"""

from importlib import import_module

from .intervals import (
    DEFAULT_MAX_PRECISION_BITS,
    AmbiguousInterval,
    CertificationError,
    CertifiedInterval,
    CosecantSquaredTerm,
    NoIntegerInInterval,
    certify_integer,
    evaluate_sum,
)
from .verlinde import (
    DimResult,
    IntegralityViolation,
    UnsupportedQuery,
    VerlindeQuery,
    beauville_sum,
    gl_dim,
    reduced_sum_terms,
    sl_dim,
    symmetric_power_dim,
)

# The identity checks and the symbolic theta layer are imported on first
# use of one of their names (PEP 562), so a dimension lookup never compiles
# them; each name is then cached in this module's globals.
_LAZY = {
    "checks": (
        "CHECK_NAMES",
        "CheckFailure",
        "CheckReport",
        "GridBounds",
        "InvolutionTriple",
        "grid_sweep",
        "involution",
    ),
    "theta": (
        "DegreeMismatch",
        "FormalLineClass",
        "NonIntegralExponent",
        "NotAMultiple",
        "PullbackFactorization",
        "RootEquation",
        "ThetaDescriptor",
        "complementary_invariants",
        "jacobian_pullback",
        "pullback_split",
        "theta_rescale",
    ),
}
_HOME = {name: home for home, names in _LAZY.items() for name in names}


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "AmbiguousInterval",
    "CHECK_NAMES",
    "CertificationError",
    "CertifiedInterval",
    "CheckFailure",
    "CheckReport",
    "CosecantSquaredTerm",
    "DEFAULT_MAX_PRECISION_BITS",
    "DegreeMismatch",
    "DimResult",
    "FormalLineClass",
    "GridBounds",
    "IntegralityViolation",
    "InvolutionTriple",
    "NoIntegerInInterval",
    "NonIntegralExponent",
    "NotAMultiple",
    "PullbackFactorization",
    "RootEquation",
    "ThetaDescriptor",
    "UnsupportedQuery",
    "VerlindeQuery",
    "beauville_sum",
    "certify_integer",
    "complementary_invariants",
    "evaluate_sum",
    "gl_dim",
    "grid_sweep",
    "involution",
    "jacobian_pullback",
    "pullback_split",
    "reduced_sum_terms",
    "sl_dim",
    "symmetric_power_dim",
    "theta_rescale",
]
