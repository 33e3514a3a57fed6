"""``tests/calibration.py``'s integral kinds on a small slice at the
default seed: each error stays within its estimate."""
import pytest

import calibration

# slices of the kinds that integrate many draws, small enough that the
# thirteen cases take about 3 s together; the spherical faces of tuple 2
# and simplex 1's prism cells are the first whose errors are not 0
TAKE = {
    "cs_pairing": slice(0, 1),
    "defect_spherical": slice(2, 3),
    "defect_chart": slice(0, 1),
    "derivation_mc3": slice(0, 8),
    "prism_simplices": slice(0, 1),
    "prism_cells": slice(1, 2),
}

# the estimate of a flat prism cell bounds the rounding of the sum, not
# of each near-zero integrand value: the open FOUND line on the prism
# cells in CHANGES.md (ROADMAP item 15a); cell 2 of simplex 1 reads 1.4
FLAT_CELLS = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="a flat prism cell's estimate does not cover its error")


@pytest.mark.parametrize("kind", [
    pytest.param(kind, id=kind.__name__,
                 marks=FLAT_CELLS if kind is calibration.prism_cells else ())
    for _, kind in calibration.KINDS])
def test_error_estimates_cover_their_errors(kind):
    take = (TAKE[kind.__name__],) if kind.__name__ in TAKE else ()
    _, pairs = kind(calibration.SEEDS[0], *take)
    assert pairs
    assert max(calibration.ratio(e, est) for e, est in pairs) <= 1.0
