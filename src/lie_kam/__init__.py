"""Lie-series normal forms and direct simulation for a driven symmetric top.

Subpackage map:

- :mod:`lie_kam.series`     truncated Fourier-Taylor algebra and norms
- :mod:`lie_kam.operators`  averaging, small-divisor inversion, homological solver
- :mod:`lie_kam.normalform` Lie transform, quadratic remainder, bound certificates
- :mod:`lie_kam.rigidbody`  direct ODE integration on the momentum sphere
- :mod:`lie_kam.presets`    ready-made physical configurations
- :mod:`lie_kam.cli`        command-line entry point (``lie-kam``)
"""
from .series import (
    DomainConfig,
    FourierTaylorSeries,
    TruncationSpec,
)

__version__ = "0.1.0"

# the product kernel in use, recorded in benchmark provenance
BACKEND_NAME = "python"

__all__ = [
    "BACKEND_NAME",
    "DomainConfig",
    "FourierTaylorSeries",
    "TruncationSpec",
    "__version__",
]
