import math

import numpy as np
import pytest

from coldpa import spectrum
from coldpa.config import RunConfig
from coldpa.errors import DomainError, ResolutionError
from coldpa.grids import build_uniform, gaussian
from coldpa.spectrum import (adiabatic_period, beat_period, continuum_state,
                             count_nodes, franck_condon, solve_levels,
                             vibrational_period)
from coldpa.units import convert

MU, DE, A, RE = 2000.0, 0.01, 0.8, 4.0


def _morse(r):
    x = np.exp(-A * (np.asarray(r, dtype=float) - RE))
    return DE * (x * x - 2.0 * x)


_morse.asymptote = 0.0


def _morse_exact(v):
    w0 = A * math.sqrt(2.0 * DE / MU)
    vv = np.asarray(v) + 0.5
    return -DE + w0 * vv - w0**2 / (4.0 * DE) * vv**2


def _free(r):
    return np.zeros_like(np.asarray(r, dtype=float))


# --- eigenvalues ---------------------------------------------------------------

def test_morse_levels_closed_form():
    g = build_uniform(1.5, 30.0, 512, MU)
    levels = solve_levels(_morse, g)
    np.testing.assert_allclose(levels.energies[:6], _morse_exact(np.arange(6)),
                               rtol=1e-10)


def test_bound_count_and_filter():
    g = build_uniform(1.5, 30.0, 512, MU)
    levels = solve_levels(_morse, g)
    bound = levels.bound()
    # sqrt(2 mu De)/a = 7.9, so exactly 8 levels sit below threshold
    assert bound.n_levels == 8
    assert np.all(bound.energies < 0.0)
    assert levels.energies[8] > 0.0
    assert bound.states.shape == (g.n, 8)


def test_level_nodes_count_v():
    g = build_uniform(1.5, 30.0, 512, MU)
    bound = solve_levels(_morse, g).bound()
    for v in range(bound.n_levels):
        assert count_nodes(bound.state(v)) == v


def test_levels_orthonormal_under_quadrature():
    g = build_uniform(1.5, 30.0, 512, MU)
    bound = solve_levels(_morse, g).bound()
    for v in range(bound.n_levels):
        for w in range(v, bound.n_levels):
            ov = franck_condon(g, bound.state(v), bound.state(w))
            assert ov == pytest.approx(1.0 if v == w else 0.0, abs=1e-10)


def test_energy_window_subset():
    g = build_uniform(1.5, 30.0, 512, MU)
    full = solve_levels(_morse, g)
    # an open lower end keeps every level up to hi
    for lo, hi in ((-0.007, -0.001), (-np.inf, -0.001)):
        win = solve_levels(_morse, g, window=(lo, hi))
        keep = (full.energies > lo) & (full.energies < hi)
        np.testing.assert_allclose(win.energies, full.energies[keep],
                                   rtol=1e-12)
        assert win.first_index == int(np.nonzero(keep)[0][0])
    # the bound window holds the bound levels, states equal up to sign
    bound = full.bound()
    win = solve_levels(_morse, g, window=(-np.inf, _morse.asymptote))
    np.testing.assert_allclose(win.energies, bound.energies, rtol=1e-12)
    assert win.first_index == 0
    for v in range(bound.n_levels):
        a, b = win.state(v), bound.state(v)
        np.testing.assert_allclose(a * np.sign(a @ b), b, atol=1e-10)
    with pytest.raises(DomainError):
        solve_levels(_morse, g, window=(1.0, -1.0))


def test_resolution_verification():
    fine = build_uniform(1.5, 30.0, 512, MU)
    solve_levels(_morse, fine, verify_resolution=True, drift_tol=1e-8)
    coarse = build_uniform(1.5, 30.0, 48, MU)
    with pytest.raises(ResolutionError):
        solve_levels(_morse, coarse, verify_resolution=True, drift_tol=1e-8)


def test_rotational_constants():
    g = build_uniform(1.5, 30.0, 512, MU)
    bound = solve_levels(_morse, g).bound()
    bv = np.array([bound.rotational_constant(v) for v in range(8)])
    assert np.all(np.diff(bv) < 0)          # outward drift with v
    assert bv[0] == pytest.approx(1.0 / (2.0 * MU * RE**2), rel=0.1)


# --- continuum reference ---------------------------------------------------------

def test_free_box_spacing_identity():
    # free-particle box levels obey dE/dn = 2 E / n exactly (centered diff)
    g = build_uniform(2.0, 12.0, 256, MU)
    e50 = (50.0 * np.pi / 10.0) ** 2 / (2.0 * MU)
    ref = continuum_state(_free, g, e50)
    assert ref.index == 50
    assert ref.energy == pytest.approx(e50, rel=1e-12)
    assert ref.e_above == ref.energy
    assert ref.de_dn == pytest.approx(2.0 * ref.energy / ref.index, rel=1e-10)
    assert np.sum(np.abs(ref.state) ** 2 * g.w) == pytest.approx(1.0, rel=1e-12)


def test_continuum_above_a_well():
    g = build_uniform(1.5, 30.0, 512, MU)
    ref = continuum_state(_morse, g, 0.001)
    assert ref.e_above > 0
    assert ref.energy == pytest.approx(0.001, abs=ref.de_dn)
    assert ref.de_dn > 0
    # the state is the matching column of the full spectrum, held alone
    full = solve_levels(_morse, g)
    j = ref.index - 1
    assert ref.energy == pytest.approx(full.energies[j], rel=1e-12)
    np.testing.assert_allclose(ref.state, full.state(j),
                               atol=1e-10 * np.max(np.abs(ref.state)))
    assert ref.state.base is None


def test_continuum_state_matches_full_spectrum(monkeypatch):
    # the reference Cs pair on an adaptive 420-point grid over [2, 60] bohr
    cfg = RunConfig.parse(
        "[system]\ndetuning_cm = 140.0\ncoupling_cm = 13.17\n"
        "r_min = 2.0\nr_max = 1000.0\n\n[excited]\ncalibrate_rc = 29.3\n\n"
        "[grid]\nn = 420\nr_lo = 2.0\nr_hi = 60.0\nmapping = adaptive\n")
    sys_ = cfg.build_system()
    grid = cfg.build_grid(sys_)
    ground = sys_.ground
    full = solve_levels(ground, grid)
    solves = []
    windowed = spectrum.solve_levels

    def counted(*args, **kwargs):
        solves.append(kwargs["window"])
        return windowed(*args, **kwargs)

    monkeypatch.setattr(spectrum, "solve_levels", counted)
    # three thermal targets (kT = 7.6e-5 1/cm at 0.11 mK), then three high
    # above threshold, where the grid levels are sparser than the free box
    # and the first window misses the upper neighbour
    for e_cm in (3e-5, 1e-4, 5e-4, 1000.0, 1e4, 1e5):
        solves.clear()
        target = ground.asymptote + convert(e_cm, "cm-1", "hartree")
        ref = continuum_state(ground, grid, target)
        above = np.nonzero(full.energies > ground.asymptote)[0]
        j = above[np.argmin(np.abs(full.energies[above] - target))]
        assert ref.index == j + 1
        assert ref.energy == pytest.approx(full.energies[j], rel=1e-12)
        # differences of near-equal energies: compare on the energy's scale
        scale = abs(ref.energy)
        assert ref.e_above == pytest.approx(
            full.energies[j] - ground.asymptote, abs=1e-12 * scale)
        de_dn = 0.5 * (full.energies[j + 1] - full.energies[j - 1])
        assert ref.de_dn == pytest.approx(de_dn, abs=1e-12 * scale)
        np.testing.assert_allclose(ref.state, full.state(j),
                                   atol=1e-10 * np.max(np.abs(ref.state)))
        # one window, and the full spectrum where it misses
        assert len(solves) <= 2
    assert len(solves) > 1
    monkeypatch.undo()
    # a window returns the same columns, signs included, as the full solve
    hi = 0.5 * (full.energies[80] + full.energies[81])
    win = solve_levels(ground, grid, window=(-np.inf, hi))
    assert win.n_levels == 81
    np.testing.assert_allclose(win.states, full.states[:, :81],
                               atol=1e-10 * np.max(np.abs(full.states)))


def test_continuum_edge_errors():
    g = build_uniform(2.0, 12.0, 64, MU)

    class Wall:
        asymptote = 1e6
        def __call__(self, r):
            return np.zeros_like(np.asarray(r, dtype=float))

    with pytest.raises(ResolutionError):
        continuum_state(Wall(), g, 2e6)
    with pytest.raises(ResolutionError):
        continuum_state(_free, g, 1e9)      # lands on the spectrum edge


# --- characteristic periods -------------------------------------------------------

def test_beat_period_closed_form():
    w, ov, ee, eg = 6e-5, 0.2, 1.0e-4, 0.4e-4
    om = math.hypot(w * ov, 0.5 * (ee - eg))
    assert beat_period(ee, eg, ov, w) == pytest.approx(math.pi / om, rel=1e-12)
    # pure-coupling and pure-detuning limits
    assert beat_period(1.0, 1.0, 1.0, w) == pytest.approx(math.pi / w)
    assert beat_period(ee, eg, 0.0, w) == pytest.approx(
        2.0 * math.pi / (ee - eg))
    with pytest.raises(DomainError):
        beat_period(1.0, 1.0, 0.0, w)


def test_vibrational_period():
    e = np.array([0.0, 2e-4, 3.5e-4])
    assert vibrational_period(e, 0) == pytest.approx(2 * math.pi / 2e-4)
    assert vibrational_period(e, 1) == pytest.approx(2 * math.pi / 1.5e-4)
    with pytest.raises(DomainError):
        vibrational_period(e, 2)
    with pytest.raises(DomainError):
        vibrational_period(np.array([1.0, 1.0]), 0)


def test_adiabatic_period():
    assert adiabatic_period(2e-4) == pytest.approx(math.pi * 1e4)
    assert adiabatic_period(-2e-4) == pytest.approx(math.pi * 1e4)
    with pytest.raises(DomainError):
        adiabatic_period(0.0)


def test_franck_condon_with_gaussian():
    g = build_uniform(1.5, 30.0, 512, MU)
    bound = solve_levels(_morse, g).bound()
    probe = gaussian(g, RE, 0.4)
    fc = np.array([franck_condon(g, bound.state(v), probe.real)
                   for v in range(8)])
    assert np.sum(fc**2) <= 1.0 + 1e-9
    assert fc[0] ** 2 > 0.5                 # probe sits on the well bottom
