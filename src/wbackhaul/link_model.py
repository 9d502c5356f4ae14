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

from .scenario import (FixedSE, ShannonEdgeSE, SpectrumEffSource, ValidationError,
                       _check_positive, _check_type, _pow)


def resolve_se(source: SpectrumEffSource, radius_m: float, alpha: float) -> float:
    """Numeric spectrum efficiency (bit/s/Hz) for a cell, whatever its configured source."""
    radius_m, alpha = _check_positive(radius_m=radius_m, alpha=alpha)
    _check_type("spectrum_eff", source, (FixedSE, ShannonEdgeSE), "FixedSE or ShannonEdgeSE")
    return _finite_se(source, radius_m, alpha, "")


def _se(source: SpectrumEffSource, radius_m, alpha, power=_pow, log2=math.log2):
    """The spectrum efficiency of checked arguments, with each power taken by
    power and the logarithm by log2: _pow and math.log2 give a float, inf or
    NaN where the edge SNR overflows a float; sweep_report's _power and _log2
    give the float64 column of the numbers in the object arrays among the
    arguments, equal to the float's at each point.  A fixed source reads
    neither radius_m nor alpha."""
    if isinstance(source, FixedSE):
        return source.bit_per_s_per_hz
    return log2(1.0 + (power(2.0, source.calibration_se) - 1.0)
                * power(source.ref_radius_m / radius_m, alpha))


def _finite_se(source: SpectrumEffSource, radius_m: float, alpha: float, cell: str) -> float:
    """_se of checked arguments, or the error of an edge SNR that overflows a
    float; cell is "" for the library call, else the cell's JSON path and a dot."""
    se = _se(source, radius_m, alpha)
    if math.isfinite(se):
        return se
    raise ValidationError(
        f"{cell}spectrum_eff: edge SNR overflows a float at radius_m={radius_m!r}, "
        f"alpha={alpha!r}, calibration_se={source.calibration_se!r}")
