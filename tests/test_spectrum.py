import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from coldpa import spectrum
from coldpa.config import RunConfig
from coldpa.errors import DomainError, NumericsError, ResolutionError
from coldpa.grids import build_uniform, gaussian, kinetic_matrix, normalize
from coldpa.observables import level_populations
from coldpa.spectrum import (adiabatic_period, beat_period, bound_populations,
                             continuum_state, count_nodes, franck_condon,
                             hamiltonian_matrix, solve_levels,
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


def _reference_grid(n, r_hi):
    """The reference Cs pair on an adaptive n-point grid over [2, r_hi]
    bohr: n=420 over [2, 60] and the n=1400, [2, 200] grid of the
    desk-scale analog run."""
    cfg = RunConfig.parse(
        "[system]\ndetuning_cm = 140.0\ncoupling_cm = 13.17\n"
        "r_min = 2.0\nr_max = 1000.0\n\n[excited]\ncalibrate_rc = 29.3\n\n"
        f"[grid]\nn = {n}\nr_lo = 2.0\nr_hi = {r_hi!r}\n"
        "mapping = adaptive\n")
    sys_ = cfg.build_system()
    return sys_, cfg.build_grid(sys_)


@pytest.fixture(scope="module")
def analog_grid():
    return _reference_grid(1400, 200.0)


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
    levels = solve_levels(_morse, g)
    bound = levels.bound()
    bv = np.array([bound.rotational_constant(v) for v in range(8)])
    # the blocked pass over all 512 levels sums in another order
    np.testing.assert_allclose(
        levels.rotational_constants(),
        [levels.rotational_constant(v) for v in range(g.n)], rtol=1e-13)
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
    # a fixed start vector: the same call gives the same bits
    again = continuum_state(_morse, g, 0.001)
    assert np.array_equal(again.state, ref.state)
    assert (again.energy, again.de_dn) == (ref.energy, ref.de_dn)
    # below threshold the level sought is the first continuum one
    low = continuum_state(_morse, g, -0.009)
    assert low.index == 9
    assert low.energy == pytest.approx(full.energies[8], rel=1e-12)
    assert low.de_dn == pytest.approx(
        0.5 * (full.energies[9] - full.energies[7]), rel=1e-10)


def test_continuum_widens_past_crowded_bound_levels(monkeypatch):
    # a potential far above the kinetic scale (about 0.04 hartree here)
    # sets the spectrum: 11 bound levels 1 hartree apart just below
    # threshold, continuum levels 50 apart above it. The 6 levels nearest
    # a target just above threshold are all bound, the 12 nearest end on
    # the first continuum level, so only 24 hold it and both neighbours
    g = build_uniform(2.0, 12.0, 64, MU)
    table = np.where(np.arange(g.n) < 11, -1.0 - np.arange(g.n),
                     50.0 * (np.arange(g.n) - 10))

    def crowded(r):
        return table

    crowded.asymptote = 0.0
    full = solve_levels(crowded, g)
    asked = []
    lanczos = spectrum.eigsh

    def counted(op, k, **kwargs):
        asked.append(k)
        return lanczos(op, k, **kwargs)

    monkeypatch.setattr(spectrum, "eigsh", counted)
    ref = continuum_state(crowded, g, 1.0)
    assert asked == [6, 12, 24]
    assert ref.index == 12
    assert ref.energy == pytest.approx(full.energies[11], rel=1e-12)
    assert ref.de_dn == pytest.approx(
        0.5 * (full.energies[12] - full.energies[10]), rel=1e-12)
    np.testing.assert_allclose(ref.state, full.state(11),
                               atol=1e-10 * np.max(np.abs(ref.state)))


def test_continuum_state_matches_full_spectrum(monkeypatch):
    sys_, grid = _reference_grid(420, 60.0)
    ground = sys_.ground
    full = solve_levels(ground, grid)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("continuum_state ran a dense eigensolve")

    monkeypatch.setattr(spectrum, "eigh", no_eigensolve)
    monkeypatch.setattr(spectrum, "solve_levels", no_eigensolve)
    # three thermal targets (kT = 7.6e-5 1/cm at 0.11 mK), then three high
    # above threshold, where the grid levels are sparser than the free box
    for e_cm in (3e-5, 1e-4, 5e-4, 1000.0, 1e4, 1e5):
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
        assert 0.0 <= ref.residual <= 1e-10
    monkeypatch.undo()
    # a window returns the same columns, signs included, as the full solve
    hi = 0.5 * (full.energies[80] + full.energies[81])
    win = solve_levels(ground, grid, window=(-np.inf, hi))
    assert win.n_levels == 81
    np.testing.assert_allclose(win.states, full.states[:, :81],
                               atol=1e-10 * np.max(np.abs(full.states)))


def test_continuum_target_on_a_box_level(monkeypatch):
    g = build_uniform(2.0, 12.0, 256, MU)
    full = solve_levels(_morse, g)
    first = int(np.count_nonzero(full.energies <= 0.0))
    # H - E_j is singular to rounding: the inertia and the Lanczos values
    # must still agree on which side of the shift E_j lies
    for j in (first, first + 1, 100, g.n - 2):
        ref = continuum_state(_morse, g, full.energies[j])
        assert ref.index == j + 1
        assert ref.energy == pytest.approx(full.energies[j], rel=1e-12)
        np.testing.assert_allclose(ref.state, full.state(j),
                                   atol=1e-10 * np.max(np.abs(ref.state)))
    # an exactly zero pivot (info > 0) moves the shift and factors again
    calls = []
    factor = spectrum.dsytrf

    def singular_once(*args, **kwargs):
        ldu, ipiv, info = factor(*args, **kwargs)
        calls.append(info)
        return ldu, ipiv, info if len(calls) > 1 else 1

    builds = []

    def counted(grid):
        builds.append(grid)
        return kinetic_matrix(grid)

    monkeypatch.setattr(spectrum, "dsytrf", singular_once)
    monkeypatch.setattr(spectrum, "kinetic_matrix", counted)
    ref = continuum_state(_morse, g, full.energies[100])
    assert len(calls) == 2
    assert ref.index == 101
    assert ref.energy == pytest.approx(full.energies[100], rel=1e-12)
    # the retry rebuilt H from the factor's untouched triangle, not anew:
    # a fresh call at the moved shift factors the same H - sigma
    assert len(builds) == 1
    monkeypatch.setattr(spectrum, "dsytrf", factor)
    shift = 1e-12 * np.abs(hamiltonian_matrix(_morse, g).diagonal()).max()
    fresh = continuum_state(_morse, g, full.energies[100] + shift)
    assert (fresh.index, fresh.energy, fresh.de_dn) == (
        ref.index, ref.energy, ref.de_dn)
    np.testing.assert_array_equal(fresh.state, ref.state)
    # a shift that never stops being singular is reported, not looped on
    monkeypatch.setattr(spectrum, "dsytrf",
                        lambda *a, **kw: factor(*a, **kw)[:2] + (1,))
    with pytest.raises(NumericsError):
        continuum_state(_morse, g, full.energies[100])


def test_continuum_edge_errors():
    g = build_uniform(2.0, 12.0, 64, MU)
    box = solve_levels(_free, g).energies

    class Wall:
        def __init__(self, asymptote):
            self.asymptote = asymptote

        def __call__(self, r):
            return np.zeros_like(np.asarray(r, dtype=float))

    with pytest.raises(ResolutionError, match="fewer than three"):
        continuum_state(Wall(1e6), g, 2e6)      # no level above threshold
    # two levels above threshold are too few, three are enough
    two = Wall(0.5 * (box[-3] + box[-2]))
    with pytest.raises(ResolutionError, match="fewer than three"):
        continuum_state(two, g, box[-2])
    three = Wall(0.5 * (box[-4] + box[-3]))
    ref = continuum_state(three, g, box[-2])
    assert ref.index == g.n - 1
    assert ref.de_dn == pytest.approx(0.5 * (box[-1] - box[-3]), rel=1e-10)
    # past the top of the spectrum the nearest level has no upper neighbour
    with pytest.raises(ResolutionError, match="spectrum edge"):
        continuum_state(_free, g, 1e9)
    with pytest.raises(ResolutionError, match="spectrum edge"):
        continuum_state(three, g, box[-1] + 0.01 * (box[-1] - box[-2]))


def test_hamiltonian_refuses_a_non_finite_potential():
    g = build_uniform(2.0, 12.0, 64, MU)
    for bad in (np.nan, np.inf):
        table = _morse(g.r)
        table[[17, 40]] = bad
        with pytest.raises(DomainError, match=re.escape(
                f"channel potential is {bad} at r = {float(g.r[17])!r} bohr")):
            hamiltonian_matrix(table, g)
    # a curve from the config names its channel, on every eigensolve path
    sys_, grid = _reference_grid(420, 60.0)
    assert (sys_.ground.name, sys_.excited.name) == ("ground", "excited")
    broken = dataclasses.replace(sys_.excited, cn=np.nan)
    for solve in (lambda: solve_levels(broken, grid),
                  lambda: bound_populations(broken, grid, grid.r),
                  lambda: continuum_state(broken, grid, 1e-9)):
        with pytest.raises(DomainError, match=re.escape(
                f"excited potential is nan at r = {float(grid.r[0])!r}")):
            solve()


def _spread_amplitude(grid, bound):
    """A unit complex amplitude over bound levels and the box continuum."""
    mid = 0.5 * (grid.r_lo + grid.r_hi)
    # half the local grid momentum: most of the packet lies in the continuum
    k0 = 0.5 * np.pi / grid.dr_local[np.searchsorted(grid.r, mid)]
    amp = gaussian(grid, mid, 0.1 * grid.r_hi, k0=k0)
    top = bound.n_levels - 1
    for v in (0, top // 2, top):
        amp = amp + (0.3 + 0.2j * v / top) * bound.state(v)
    return normalize(grid, amp)


@pytest.mark.parametrize("which", ["n420", "analog"])
def test_bound_populations_match_windowed_levels(which, analog_grid):
    sys_, grid = (_reference_grid(420, 60.0) if which == "n420"
                  else analog_grid)
    for curve in (sys_.ground, sys_.excited):
        bound = solve_levels(curve, grid, window=(-np.inf, curve.asymptote))
        amp = _spread_amplitude(grid, bound)
        want = level_populations(grid, amp, bound)
        energies, pops = bound_populations(curve, grid, amp)
        np.testing.assert_allclose(energies, bound.energies, rtol=1e-13,
                                   atol=0.0)
        np.testing.assert_allclose(pops, want, rtol=0.0, atol=1e-12)
        # the amplitude reaches the continuum: the bound part is not all
        assert 0.05 < np.sum(pops) < 0.95


def _peak_n2(fn, n):
    """tracemalloc peak of fn() above what was allocated before it, in
    n x n arrays of doubles."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / (8.0 * n * n)
    finally:
        tracemalloc.stop()


def test_dense_solves_hold_at_most_two_matrices(analog_grid):
    sys_, grid = analog_grid
    n = grid.n
    assert n >= 1000 and grid.kind == "adaptive"
    assert _peak_n2(lambda: kinetic_matrix(grid), n) <= 1.5
    for curve in (sys_.ground, sys_.excited):
        bound = (-np.inf, curve.asymptote)
        assert _peak_n2(lambda: solve_levels(curve, grid), n) <= 2.2
        assert _peak_n2(lambda: solve_levels(curve, grid, window=bound),
                        n) <= 2.2
        amp = gaussian(grid, 60.0, 10.0, k0=0.3)
        assert _peak_n2(lambda: bound_populations(curve, grid, amp),
                        n) <= 1.5


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
