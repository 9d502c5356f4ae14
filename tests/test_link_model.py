import math

import numpy as np
import pytest

from wbackhaul.link_model import resolve_se
from wbackhaul.scenario import FixedSE, ShannonEdgeSE, ValidationError

SHANNON_5 = ShannonEdgeSE(5.0)


@pytest.mark.parametrize("se,snr0", [(5.0, 31.0), (1.0, 1.0), (10.0, 1023.0)])
def test_calibrate_snr0(se, snr0):
    # the edge SNR at the reference radius is 2**se - 1: with alpha = 1,
    # twice the reference radius halves it
    assert resolve_se(ShannonEdgeSE(se), 100.0, 1.0) == math.log2(1.0 + snr0 * 0.5)


def test_calibration_point_exact_and_alpha_invariant():
    for alpha in (2.5, 3.0, 3.2, 3.7, 4.0):
        assert resolve_se(SHANNON_5, 50.0, alpha) == 5.0


def test_hand_computed_values():
    # log2(1 + 31 * 2**3.2) and log2(1 + 31 * 0.5**3.2), evaluated by hand
    assert resolve_se(SHANNON_5, 25.0, 3.2) == pytest.approx(8.159, abs=1e-3)
    assert resolve_se(SHANNON_5, 100.0, 3.2) == pytest.approx(2.129, abs=1e-3)


def test_alpha_monotonicity_crossover():
    # below the reference radius SE rises with alpha, above it falls,
    # at the reference it is flat: the radius-50 crossover mechanism
    alphas = np.linspace(2.5, 4.0, 16)
    for r in (10.0, 25.0, 49.0):
        vals = [resolve_se(SHANNON_5, r, a) for a in alphas]
        assert all(y > x for x, y in zip(vals, vals[1:]))
    for r in (51.0, 75.0, 200.0):
        vals = [resolve_se(SHANNON_5, r, a) for a in alphas]
        assert all(y < x for x, y in zip(vals, vals[1:]))
    flat = {resolve_se(SHANNON_5, 50.0, a) for a in alphas}
    assert flat == {5.0}


def test_radius_monotonicity_and_positivity():
    radii = np.geomspace(5.0, 500.0, 25)
    vals = [resolve_se(SHANNON_5, r, 3.2) for r in radii]
    assert all(y < x for x, y in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_se_approaches_calibration_for_every_alpha():
    source = ShannonEdgeSE(7.0, ref_radius_m=80.0)
    for alpha in (2.5, 3.2, 4.0):
        assert resolve_se(source, 80.0 * (1 + 1e-12), alpha) == pytest.approx(7.0, rel=1e-9)


def test_resolve_se():
    assert resolve_se(FixedSE(4.5), 50.0, 3.2) == 4.5
    got = resolve_se(ShannonEdgeSE(5.0, 50.0), 100.0, 3.2)
    assert got == pytest.approx(math.log2(1 + 31 * 0.5 ** 3.2), rel=1e-12)


def test_model_invariants():
    with pytest.raises(ValidationError):
        ShannonEdgeSE(0.0)
    with pytest.raises(ValidationError):
        resolve_se(SHANNON_5, 0.0, 3.2)
    with pytest.raises(ValidationError):
        resolve_se(SHANNON_5, 50.0, 0.0)
    with pytest.raises(ValidationError,
                       match="^spectrum_eff: must be FixedSE or ShannonEdgeSE, got 'x'$"):
        resolve_se("x", 50.0, 3.2)


@pytest.mark.parametrize("source,radius_m,alpha", [
    (SHANNON_5, 1e-6, 60.0),          # (ref / r) ** alpha overflows
    (ShannonEdgeSE(2000.0), 50.0, 3.2),   # 2 ** calibration_se overflows
    (ShannonEdgeSE(1020.0), 1.0, 3.2),    # the product overflows to inf
])
def test_overflowing_edge_snr_names_the_field(source, radius_m, alpha):
    with pytest.raises(ValidationError, match="spectrum_eff.*radius_m.*alpha"):
        resolve_se(source, radius_m, alpha)
