"""Photon-count distributions under binomial attenuation.

Exact thinning of finite-support photon-number distributions, Poisson
approximation error certificates, multi-photon risk estimation, and a
seeded Monte Carlo cross-check.
"""

import importlib

from .errors import (
    AllVacuumError,
    DegenerateLambdaError,
    DistributionError,
    DuplicateIndexError,
    InvalidParameterError,
    NegativeMassError,
    NotNormalizedError,
    PhotonThinError,
    TargetExceedsMeanError,
    TermOverflowError,
    ZeroMeanError,
)
from .pmf import (
    AttenuationCoefficient,
    MomentSummary,
    Pmf,
    make_pmf,
    moments,
    poisson_family,
    tv_distance,
)

# Names of the kernels, by module. They are imported on first access
# (PEP 562), so that importing the package, or a CLI command, loads only
# the kernels it uses; of these, only montecarlo loads numpy.
_LAZY = {
    "approximation": (
        "ApproxReport", "build_report", "predicted_delta", "risk_approx", "risk_exact",
        "thinned_reference",
    ),
    "montecarlo": ("McConfig", "McResult", "simulate_thinned"),
    "thinning": ("eta_for_target_lambda", "thin_direct", "thin_via_gf"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "ApproxReport",
    "AttenuationCoefficient",
    "McConfig",
    "McResult",
    "MomentSummary",
    "Pmf",
    "build_report",
    "eta_for_target_lambda",
    "make_pmf",
    "moments",
    "poisson_family",
    "predicted_delta",
    "risk_approx",
    "risk_exact",
    "simulate_thinned",
    "thin_direct",
    "thin_via_gf",
    "thinned_reference",
    "tv_distance",
    "AllVacuumError",
    "DegenerateLambdaError",
    "DistributionError",
    "DuplicateIndexError",
    "InvalidParameterError",
    "NegativeMassError",
    "NotNormalizedError",
    "PhotonThinError",
    "TargetExceedsMeanError",
    "TermOverflowError",
    "ZeroMeanError",
]


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    # Cached, so that later lookups are plain global reads.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_MODULE))
