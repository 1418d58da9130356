"""Certified numerics for trigonometric polynomials on the circle.

Core layers:

- trigpoly: coefficient algebra, A_p norms as enclosing intervals;
- gridcert: certified sup / min-abs / sign bounds, superlevel arcs,
  exact arc-restricted Fourier integrals;
- rudin_shapiro, kahane, concentration, riesz: the constructive
  ingredients (flat polynomials, interpolation measures, Bernstein
  bounds, Riesz-type products);
- principal, helson, cyclicity: the assembled pipelines (thin supported
  smooth functions, staged Helson construction, l^p cyclicity probes);
- descent: the smoothed minimizer behind the extension probe and the
  multiplier deficit;
- cli: subcommand front end with reproducible artifacts.
"""

from .errors import CertificateError, PreconditionError, ResourceError
from .trigpoly import CoeffSeq, Interval, QComplex, TrigPoly

__all__ = [
    "CertificateError",
    "PreconditionError",
    "ResourceError",
    "CoeffSeq",
    "Interval",
    "QComplex",
    "TrigPoly",
]

__version__ = "0.1.0"
