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

# Each public name, once, under the module that defines it.  The dimension
# engine (`intervals`, `verlinde`) is bound at import; the identity checks
# and the symbolic theta layer are imported on first use of one of their
# names (PEP 562), so a dimension lookup never compiles them.
_EXPORTS = {
    "intervals": (
        "DEFAULT_MAX_PRECISION_BITS",
        "AmbiguousInterval",
        "CertificationError",
        "CertifiedInterval",
        "CosecantSquaredTerm",
        "NoIntegerInInterval",
        "certify_integer",
        "evaluate_sum",
    ),
    "verlinde": (
        "DimResult",
        "IntegralityViolation",
        "UnsupportedQuery",
        "VerlindeQuery",
        "beauville_sum",
        "gl_dim",
        "reduced_sum_terms",
        "sl_dim",
        "symmetric_power_dim",
    ),
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
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _bind(namespace: dict, home: str) -> None:
    """Put the names that module `home` exports into `namespace`, keeping any
    name already bound there, such as a wrapper set by a tracer; the package
    and `thetadim.cli` both bind their names through it."""
    module = import_module(f".{home}", __name__)
    for name in _EXPORTS[home]:
        namespace.setdefault(name, getattr(module, name))


_bind(globals(), "intervals")
_bind(globals(), "verlinde")


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(globals(), home)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
