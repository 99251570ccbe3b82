import math

import numpy as np
import pytest
from scipy.optimize import brentq

from coldpa.config import reference_system
from coldpa.errors import DomainError, GridMismatchError
from coldpa.grids import (MomentumSpectrum, build_grid, build_uniform,
                          gaussian)
from coldpa.observables import (ThermalYield, detect_hole,
                                find_momentum_peaks, level_populations,
                                momentum_at_radius, radius_from_momentum,
                                thermal_yield, _smooth_density)
from coldpa.potentials import find_crossing
from coldpa.spectrum import solve_levels
from coldpa.units import kb_hartree

MU, DE, A, RE = 2000.0, 0.01, 0.8, 4.0


def _morse(r):
    x = np.exp(-A * (np.asarray(r, dtype=float) - RE))
    return DE * (x * x - 2.0 * x)


_morse.asymptote = 0.0


@pytest.fixture(scope="module")
def well():
    grid = build_uniform(1.5, 30.0, 256, MU)
    return grid, solve_levels(_morse, grid)


# --- level projections -----------------------------------------------------------

def test_projection_recovers_coefficients(well):
    grid, levels = well
    amp = 0.6 * levels.state(0) + 0.8j * levels.state(3)
    pops = level_populations(grid, amp, levels)
    assert pops[0] == pytest.approx(0.36, abs=1e-10)
    assert pops[3] == pytest.approx(0.64, abs=1e-10)
    others = np.delete(pops, [0, 3])
    assert np.max(others) < 1e-20


def test_projection_rejects_foreign_grid(well):
    grid, levels = well
    other = build_uniform(1.5, 30.0, 255, MU)
    with pytest.raises(GridMismatchError):
        level_populations(other, np.zeros(other.n), levels)
    # and so is an amplitude without one value per grid point
    for amp in (np.zeros(grid.n - 1), np.zeros((grid.n, 2))):
        with pytest.raises(GridMismatchError, match="amplitude length"):
            level_populations(grid, amp, levels)


def test_bound_and_continuum_fractions(well):
    # analyze reports the bound fraction, the populations in the bound
    # window's levels, and the channel norm minus it
    grid, levels = well
    bound_levels = solve_levels(_morse, grid, window=(-np.inf, 0.0))
    mix = (math.sqrt(0.7) * levels.state(1)
           + math.sqrt(0.3) * levels.state(bound_levels.n_levels + 4))
    bound = np.sum(level_populations(grid, mix, bound_levels))
    assert bound == pytest.approx(0.7, abs=1e-9)
    assert np.sum(np.abs(mix) ** 2 * grid.w) - bound == pytest.approx(
        0.3, abs=1e-9)
    ground = levels.state(0)
    assert (np.sum(np.abs(ground) ** 2 * grid.w)
            - np.sum(level_populations(grid, ground, bound_levels))
            == pytest.approx(0.0, abs=1e-10))


# --- momentum peaks ---------------------------------------------------------------

def _three_humps(noise=0.0, seed=None):
    k = np.linspace(-20.0, 20.0, 2001)
    amp = (0.9 * np.exp(-((k + 12.0) / 0.7) ** 2)
           + 0.6 * np.exp(-((k + 5.0) / 0.5) ** 2)
           + 0.3 * np.exp(-((k - 3.0) / 0.4) ** 2)
           + 0.05 * np.exp(-((k - 0.3) / 0.8) ** 2))
    if noise:
        amp = amp + noise * np.random.default_rng(seed).standard_normal(k.size)
    return MomentumSpectrum(k=k, amp=amp.astype(complex), dk=float(k[1] - k[0]))


def test_peaks_found_and_ordered_noiseless():
    spec = _three_humps()
    peaks = find_momentum_peaks(spec)
    assert [round(p.k, 1) for p in peaks] == [-12.0, -5.0, 3.0, 0.3]
    assert all(a.height > b.height for a, b in zip(peaks, peaks[1:]))
    # the k cutoff drops the slow hump near zero
    fast = find_momentum_peaks(spec, k_min=2.0)
    assert [round(p.k, 1) for p in fast] == [-12.0, -5.0, 3.0]


def test_peaks_with_noise_floor():
    spec = _three_humps(noise=1e-4, seed=5)
    peaks = find_momentum_peaks(spec, k_min=2.0, max_peaks=3)
    got = sorted(p.k for p in peaks)
    np.testing.assert_allclose(got, [-12.0, -5.0, 3.0], atol=2 * spec.dk)


def test_peak_indices_point_into_spectrum():
    spec = _three_humps()
    for p in find_momentum_peaks(spec):
        assert spec.k[p.index] == p.k
        assert abs(spec.amp[p.index]) ** 2 == p.height


# --- gap-momentum inversion ---------------------------------------------------------

@pytest.fixture(scope="module")
def analog():
    return reference_system()


def test_momentum_radius_round_trip(analog):
    k = float(momentum_at_radius(analog, 50.0))
    assert k > 0
    assert radius_from_momentum(analog, k) == pytest.approx(50.0, abs=1e-6)
    # sign of k is irrelevant for the inversion
    assert radius_from_momentum(analog, -k) == pytest.approx(50.0, abs=1e-6)


def test_momentum_at_radius_vectorized(analog):
    r = np.array([40.0, 60.0, 90.0])
    k = momentum_at_radius(analog, r)
    assert k.shape == (3,)
    assert np.all(np.diff(k) > 0)       # gap grows outward past the crossing


def test_momentum_inversion_of_many_peaks_at_once(analog):
    # one vectorised bisection for every peak matches a scalar brentq on
    # the outer branch; a peak off the branch is NaN in the array and
    # raises alone
    rc = find_crossing(analog)
    k_in = momentum_at_radius(analog, np.array([31.0, 43.6, 68.4, 150.0]))
    k = np.concatenate([k_in, [20.0, 0.0]])
    radii = radius_from_momentum(analog, k, rc=rc)
    assert radii.shape == (6,) and np.isnan(radii[4:]).all()
    for kk, r in zip(k_in, radii):
        e_target = kk ** 2 / (2.0 * analog.mu)
        ref = brentq(lambda x: analog.excited.value(x)
                     - analog.ground.value(x) - e_target,
                     rc * (1.0 + 1e-6), analog.working_range[1], xtol=1e-10)
        assert abs(r - ref) <= 1e-9
        assert radius_from_momentum(analog, kk, rc=rc) == r
    for kk in k[4:]:
        with pytest.raises(DomainError, match="outside the outer branch"):
            radius_from_momentum(analog, kk, rc=rc)


def test_momentum_inversion_domain_errors(analog):
    with pytest.raises(DomainError):
        momentum_at_radius(analog, 20.0)        # inside the crossing
    with pytest.raises(DomainError):
        radius_from_momentum(analog, 20.0)      # above the asymptotic gap


# --- thermal chain ------------------------------------------------------------------

def test_thermal_yield_identities():
    base = thermal_yield(1e-4, 1.1e-4, 3e-9, 121135.9, 1e15, 1e8)
    assert isinstance(base, ThermalYield)
    kt = kb_hartree * 1.1e-4
    assert base.zp == pytest.approx(1e-4 * kt / 3e-9, rel=1e-12)
    z = (2.0 * math.pi * 121135.9 * kt) ** 1.5 * 1e15 / (2.0 * math.pi) ** 3
    assert base.z_translational == pytest.approx(z, rel=1e-12)
    assert base.p_thermal == pytest.approx(base.zp / z, rel=1e-12)
    assert base.n_molecules == pytest.approx(
        0.5 * (1e8) ** 2 * base.p_thermal * 0.75, rel=1e-12)

    # scaling behavior
    assert thermal_yield(2e-4, 1.1e-4, 3e-9, 121135.9, 1e15, 1e8).zp \
        == pytest.approx(2 * base.zp, rel=1e-12)
    assert thermal_yield(1e-4, 1.1e-4, 6e-9, 121135.9, 1e15, 1e8).zp \
        == pytest.approx(base.zp / 2, rel=1e-12)
    assert thermal_yield(1e-4, 1.1e-4, 3e-9, 121135.9, 2e15, 1e8).p_thermal \
        == pytest.approx(base.p_thermal / 2, rel=1e-12)
    assert thermal_yield(1e-4, 1.1e-4, 3e-9, 121135.9, 1e15, 2e8).n_molecules \
        == pytest.approx(4 * base.n_molecules, rel=1e-12)
    full_spin = thermal_yield(1e-4, 1.1e-4, 3e-9, 121135.9, 1e15, 1e8,
                              spin_factor=1.0)
    assert full_spin.n_molecules == pytest.approx(base.n_molecules / 0.75,
                                                  rel=1e-12)


def test_thermal_yield_validation():
    with pytest.raises(DomainError):
        thermal_yield(-1e-4, 1e-4, 3e-9, 1e5, 1e15, 1e8)
    with pytest.raises(DomainError):
        thermal_yield(1e-4, 0.0, 3e-9, 1e5, 1e15, 1e8)
    with pytest.raises(DomainError):
        thermal_yield(1e-4, 1e-4, 0.0, 1e5, 1e15, 1e8)
    with pytest.raises(DomainError):
        thermal_yield(1e-4, 1e-4, 3e-9, 1e5, -1e15, 1e8)


# --- depletion hole ------------------------------------------------------------------

def test_smoothing_preserves_constants():
    grid = build_uniform(2.0, 200.0, 256, 121135.9)
    sm = _smooth_density(grid, np.ones(grid.n), 2.0)
    np.testing.assert_allclose(sm, 1.0, atol=1e-12)


@pytest.mark.parametrize("width", [0.25, 2.0])
def test_smoothing_matches_the_dense_kernel(analog, width):
    # the banded row blocks against the full n x n kernel, on a grid whose
    # spacing varies and whose box spans 29 or 232 widths
    grid = build_grid(analog, 420, 2.0, 60.0, kind="adaptive")
    assert grid.kind == "adaptive"
    rng = np.random.default_rng(3)
    amp = rng.standard_normal((grid.n, 2)) + 1j * rng.standard_normal(
        (grid.n, 2))
    dr = grid.r[:, None] - grid.r[None, :]
    wk = np.exp(-0.5 * (dr / width) ** 2) * grid.w[None, :]
    dense = ((wk @ np.abs(amp) ** 2).T / np.sum(wk, axis=1)).T
    np.testing.assert_allclose(_smooth_density(grid, amp, width), dense,
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(_smooth_density(grid, amp[:, 1], width),
                               dense[:, 1], rtol=1e-13, atol=0)


def test_hole_detected_in_notched_packet():
    grid = build_uniform(2.0, 200.0, 512, 121135.9)
    before = gaussian(grid, 100.0, 15.0)
    notch = np.sqrt(1.0 - 0.8 * np.exp(-(((grid.r - 80.0) / 5.0) ** 2)))
    rep = detect_hole(grid, before, before * notch, threshold=0.5)
    assert rep.r_lo < 80.0 < rep.r_hi
    assert rep.r_deepest == pytest.approx(80.0, abs=1.0)
    assert 0.6 < rep.depth < 0.85            # smoothing dilutes the raw 0.8
    assert 3.0 < rep.r_hi - rep.r_lo < 10.0


def test_hole_requires_depletion():
    grid = build_uniform(2.0, 200.0, 256, 121135.9)
    before = gaussian(grid, 100.0, 15.0)
    with pytest.raises(DomainError):
        detect_hole(grid, before, before, threshold=0.5)
    with pytest.raises(DomainError):
        detect_hole(grid, before, before, threshold=1.5)
    # a bad width is refused as such, not reported as a run without a hole
    for width in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="smooth_width"):
            detect_hole(grid, before, before, smooth_width=width)
