import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from coldpa import spectrum
from coldpa.config import RunConfig
from coldpa.errors import DomainError, NumericsError, ResolutionError
from coldpa.grids import (build_uniform, gaussian, inner, kinetic_matrix,
                          normalize)
from coldpa.observables import level_populations
from coldpa.spectrum import (adiabatic_period, continuum_state, count_nodes,
                             hamiltonian_matrix, solve_levels)
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
            ov = inner(g, bound.state(v), bound.state(w)).real
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
    bv = bound.rotational_constants()[:8]
    # the blocked pass over all 512 levels sums in another order than
    # <1 / (2 mu R^2)> level by level
    q = g.w / (2.0 * MU * g.r**2)
    np.testing.assert_allclose(
        levels.rotational_constants(),
        [np.sum(np.abs(levels.states[:, v]) ** 2 * q) for v in range(g.n)],
        rtol=1e-13)
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
    # threshold, continuum levels 50 apart above it. The 4 and the 8
    # levels nearest a target just above threshold are all bound, so only
    # the 16 nearest hold the first continuum level and both neighbours
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
    assert asked == [4, 8, 16]
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

    # every dense eigensolve starts by reducing H to tridiagonal form
    monkeypatch.setattr(spectrum, "dsytrd", no_eigensolve)
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


@pytest.mark.parametrize("n, r_hi, most", [(420, 60.0, 34), (1400, 200.0, 21)])
def test_continuum_thermal_targets_take_few_solves(n, r_hi, most):
    # the thermal targets above, on the reference grid and on the analog
    # run's. Asked first for the four levels nearest the shift, ARPACK
    # converges within its first 20-vector Lanczos pass at n=1400 (asked
    # for six it restarted once: 31 solves); at n=420 it restarts once
    # either way (six took 32)
    sys_, grid = _reference_grid(n, r_hi)
    ground = sys_.ground
    for e_cm in (3e-5, 1e-4, 5e-4):
        target = ground.asymptote + convert(e_cm, "cm-1", "hartree")
        assert continuum_state(ground, grid, target).solves <= most


def test_continuum_counts_every_factor_solve(monkeypatch):
    sys_, grid = _reference_grid(420, 60.0)
    target = sys_.ground.asymptote + convert(1e3, "cm-1", "hartree")
    calls = []
    solve = spectrum.dsytrs

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "dsytrs", counted)
    ref = continuum_state(sys_.ground, grid, target)
    assert ref.solves == len(calls) > 0
    # a fixed start vector: the count repeats exactly
    assert continuum_state(sys_.ground, grid, target).solves == ref.solves
    assert len(calls) == 2 * ref.solves


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
                  lambda: solve_levels(broken, grid, window=(-np.inf, 0.0)),
                  lambda: continuum_state(broken, grid, 1e-9)):
        with pytest.raises(DomainError, match=re.escape(
                f"excited potential is nan at r = {float(grid.r[0])!r}")):
            solve()


def _spread_amplitude(grid, bound):
    """A unit complex amplitude over bound levels and the box continuum."""
    mid = 0.5 * (grid.r_lo + grid.r_hi)
    # half the local grid momentum: most of the packet lies in the continuum
    k0 = 0.5 * np.pi / grid.w[np.searchsorted(grid.r, mid)]
    amp = gaussian(grid, mid, 0.1 * grid.r_hi, k0=k0)
    top = bound.n_levels - 1
    for v in (0, top // 2, top):
        amp = amp + (0.3 + 0.2j * v / top) * bound.state(v)
    return normalize(grid, amp)


@pytest.mark.parametrize("which", ["n420", "analog"])
def test_bound_populations_match_windowed_levels(which, analog_grid):
    # the reference is the full solve's bound columns, by MRRR; analyze
    # projects on the bound window's, by inverse iteration
    sys_, grid = (_reference_grid(420, 60.0) if which == "n420"
                  else analog_grid)
    for curve in (sys_.ground, sys_.excited):
        bound = solve_levels(curve, grid).bound()
        amp = _spread_amplitude(grid, bound)
        want = level_populations(grid, amp, bound)
        win = solve_levels(curve, grid, window=(-np.inf, curve.asymptote))
        pops = level_populations(grid, amp, win)
        np.testing.assert_allclose(win.energies, bound.energies, rtol=1e-13,
                                   atol=0.0)
        np.testing.assert_allclose(pops, want, rtol=0.0, atol=1e-12)
        # the amplitude reaches the continuum: the bound part is not all
        assert 0.05 < np.sum(pops) < 0.95


def test_a_level_on_the_asymptote_is_not_bound():
    # the asymptote does not enter H, so it can sit on a level to the bit;
    # every bound-level consumer must then leave that level out
    g = build_uniform(1.5, 30.0, 512, MU)

    def on_level(r):
        return _morse(r)

    on_level.asymptote = float(solve_levels(_morse, g).energies[8])
    full = solve_levels(on_level, g)
    assert full.energies[8] == on_level.asymptote
    bound = full.bound()
    win = solve_levels(on_level, g, window=(-np.inf, on_level.asymptote))
    pops = level_populations(g, g.r, win)
    assert bound.n_levels == win.n_levels == len(pops) == 8
    assert np.array_equal(win.energies, bound.energies)
    # a window's upper end is open at every level, not only the asymptote
    e = full.energies
    assert solve_levels(on_level, g, window=(e[2], e[6])).n_levels == 3


def _named_morse(r):
    return _morse(r)


_named_morse.asymptote = 0.0
_named_morse.name = "ground"


@pytest.mark.parametrize("grid_name", ["morse512", "n420"])
def test_one_reduction_gives_every_energy_to_the_bit(grid_name, monkeypatch):
    # T plus fixed symmetric +-2 ulp noise: the energies of the windowed
    # solve and the full one must still agree to the bit, as both come
    # from one dsterf pass over one reduction
    if grid_name == "morse512":
        grid = build_uniform(1.5, 30.0, 512, MU)
        curves = (_morse,)
    else:
        sys_, grid = _reference_grid(420, 60.0)
        curves = (sys_.ground, sys_.excited)

    def noisy(g):
        t = kinetic_matrix(g)
        k = np.random.default_rng(5).integers(-2, 3, t.shape)
        k = np.triu(k) + np.triu(k, 1).T
        return t + k * np.spacing(np.abs(t))

    monkeypatch.setattr(spectrum, "kinetic_matrix", noisy)
    assert np.array_equal(noisy(grid), noisy(grid).T)
    for curve in curves:
        asym = curve.asymptote
        full = solve_levels(curve, grid)
        win = solve_levels(curve, grid, window=(-np.inf, asym))
        assert np.array_equal(win.energies, full.bound().energies)
        e = full.energies
        lo, hi = 0.5 * (e[1] + e[2]), 0.5 * (e[5] + e[6])
        assert np.array_equal(
            solve_levels(curve, grid, window=(lo, hi)).energies, e[2:6])
        # a window between two levels holds none of them
        empty = solve_levels(curve, grid, window=(e[3], 0.5 * (e[3] + e[4])))
        assert empty.n_levels == 0 and empty.first_index == 4


def test_empty_window_gives_no_levels():
    g = build_uniform(1.5, 30.0, 512, MU)
    e = solve_levels(_morse, g).energies
    for lo, hi, first in ((e[0] - 1.0, e[0] - 0.5, 0),
                          (e[2], 0.5 * (e[2] + e[3]), 3),
                          (e[-1], e[-1] + 1.0, g.n)):
        win = solve_levels(_morse, g, window=(lo, hi))
        assert win.n_levels == 0
        assert win.states.shape == (g.n, 0)
        # first_index counts the levels at or below lo
        assert win.first_index == first


def _full_solve(curve, g):
    return solve_levels(curve, g)


def _window_solve(curve, g):
    return solve_levels(curve, g, window=(-1.0, 0.0))


# MRRR (dstemr) serves the full spectrum alone, inverse iteration (dstein)
# a window alone; every solve reaches the other routines
_SOLVES = {"dstemr": (_full_solve,), "dstein": (_window_solve,)}


@pytest.mark.parametrize("routine,info", [("dsytrd", -2), ("dsterf", 1),
                                          ("dstemr", 2), ("dstein", 3),
                                          ("dormqr", -5)])
def test_lapack_failure_names_routine_and_channel(routine, info,
                                                  monkeypatch):
    g = build_uniform(2.0, 12.0, 64, MU)
    real = getattr(spectrum, routine)
    monkeypatch.setattr(spectrum, routine,
                        lambda *a, **kw: real(*a, **kw)[:-1] + (info,))
    want = re.escape(f"LAPACK {routine} failed on the ground Hamiltonian "
                     f"(info {info})")
    for solve in _SOLVES.get(routine, (_full_solve, _window_solve)):
        with pytest.raises(NumericsError, match=want):
            solve(_named_morse, g)
        # an unnamed curve is reported as a channel
        with pytest.raises(NumericsError, match="on the channel Hamiltonian"):
            solve(_morse, g)


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
        # a window holds H and its kept columns, not two n x n arrays
        assert _peak_n2(lambda: solve_levels(curve, grid, window=bound),
                        n) <= 1.4
        # and so does analyze's projection on the bound window
        amp = gaussian(grid, 60.0, 10.0, k0=0.3)
        assert _peak_n2(lambda: level_populations(
            grid, amp, solve_levels(curve, grid, window=bound)), n) <= 1.5


# --- characteristic periods -------------------------------------------------------

def test_adiabatic_period():
    assert adiabatic_period(2e-4) == pytest.approx(math.pi * 1e4)
    assert adiabatic_period(-2e-4) == pytest.approx(math.pi * 1e4)
    with pytest.raises(DomainError):
        adiabatic_period(0.0)


def test_franck_condon_with_gaussian():
    g = build_uniform(1.5, 30.0, 512, MU)
    bound = solve_levels(_morse, g).bound()
    probe = gaussian(g, RE, 0.4)
    fc = np.array([inner(g, bound.state(v), probe.real).real
                   for v in range(8)])
    assert np.sum(fc**2) <= 1.0 + 1e-9
    assert fc[0] ** 2 > 0.5                 # probe sits on the well bottom
