"""Cell-edge Shannon capacity model for small-cell spectrum efficiency.

The model maps (cell radius, path loss exponent) to an achievable
spectrum efficiency by scaling a calibrated edge SNR with distance:

    SE(r, alpha) = log2(1 + (2**calibration_se - 1) * (ref_radius / r)**alpha)

At r == ref_radius the exponent term is exactly 1 for every alpha, so
the calibration value is recovered alpha-invariantly.  Below the
reference radius a larger alpha raises the edge SNR (the reference
point is "inside" the decay), above it a larger alpha lowers it; the
reference radius is therefore the crossover between the two regimes.
"""
from __future__ import annotations

import math

from .scenario import FixedSE, ShannonEdgeSE, SpectrumEffSource, ValidationError, _check_positive


def resolve_se(source: SpectrumEffSource, radius_m: float, alpha: float) -> float:
    """Numeric spectrum efficiency (bit/s/Hz) for a cell, whatever its configured source."""
    if isinstance(source, FixedSE):
        return source.bit_per_s_per_hz
    if not isinstance(source, ShannonEdgeSE):
        raise ValidationError(f"spectrum_eff: unsupported source {type(source).__name__}")
    # any type but int and float (bools, arrays, numpy floats) takes the full rule
    if not (type(radius_m) in (int, float) and type(alpha) in (int, float)
            and radius_m > 0 and alpha > 0):
        _check_positive(radius_m=radius_m, alpha=alpha)
    try:
        se = math.log2(1.0 + (2.0 ** source.calibration_se - 1.0)
                       * (source.ref_radius_m / radius_m) ** alpha)
    except OverflowError:
        se = math.inf
    if not math.isfinite(se):
        raise ValidationError(
            f"spectrum_eff: edge SNR overflows a float at radius_m={radius_m!r}, "
            f"alpha={alpha!r}, calibration_se={source.calibration_se!r}")
    return se
