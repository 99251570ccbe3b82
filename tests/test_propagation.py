from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from coldpa.errors import (DomainError, GridMismatchError,
                           SpectralBoundsError)
from coldpa.grids import TwoChannelState, build_grid, build_uniform, gaussian
from coldpa.potentials import CoupledSystem, PotentialCurve, PulseEnvelope
from coldpa.propagation import (PropagationPlan, TimeSeries, _Engine,
                                propagate, spectral_bounds, step)
from coldpa.spectrum import hamiltonian_matrix
from coldpa.units import ps2au

CM = 1.0 / 219474.6313705


class _ZeroCurve:
    asymptote = 0.0

    def value(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


def _free_system():
    env = SimpleNamespace(flat_value=0.0, segments=(),
                          value=lambda t: 0.0)
    return SimpleNamespace(ground=_ZeroCurve(), excited=_ZeroCurve(),
                           coupling=0.0, envelope=env)


def _offset_pair(delta=60 * CM, w=13 * CM, mu=5000.0):
    """Identical wells offset by a constant: spatial motion factors out and
    the channel amplitudes obey a closed 2x2 problem."""
    kw = dict(de=300 * CM, re=6.0, a=0.7, cn=100 * CM, n=6, switch_radius=9.0)
    env = PulseEnvelope.from_ps([("sin2", 0, 2, 0, 1), ("const", 2, 12, 1, 1),
                                 ("sin2", 12, 14, 1, 0),
                                 ("const", 14, 15, 0, 0)])
    sys_ = CoupledSystem(
        ground=PotentialCurve(asymptote=0.0, **kw),
        excited=PotentialCurve(asymptote=delta, **kw),
        coupling=w, mu=mu, envelope=env, working_range=(1.0, 50.0),
    )
    grid = build_uniform(3.0, 12.0, 64, mu)
    init = TwoChannelState(grid, gaussian(grid, 6.0, 0.44), np.zeros(grid.n))
    return sys_, grid, init


def _two_level_reference(env, w, delta, t_eval):
    def rhs(t, y):
        f = float(env.value(t))
        return [-1j * (w * f) * y[1], -1j * ((w * f) * y[0] + delta * y[1])]

    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), [1.0 + 0j, 0j],
                    t_eval=t_eval, rtol=1e-11, atol=1e-13, method="DOP853")
    return np.abs(sol.y[0]) ** 2, np.abs(sol.y[1]) ** 2


# --- plan ---------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(DomainError):
        PropagationPlan(t_start=1.0, t_end=1.0)
    with pytest.raises(DomainError):
        PropagationPlan(t_start=0.0, t_end=1.0, dt_flat=-1.0)
    with pytest.raises(DomainError):
        PropagationPlan(t_start=0.0, t_end=1.0, cheb_tol=1e-3)
    with pytest.raises(DomainError):
        PropagationPlan(t_start=0.0, t_end=1.0, spectral_margin=0.01)
    with pytest.raises(DomainError):
        PropagationPlan(t_start=0.0, t_end=1.0, snapshots=(2.0,))


def test_plan_from_ps():
    plan = PropagationPlan.from_ps(t_start=1.0, t_end=5.0, snapshots=(2.0,))
    assert plan.t_start == pytest.approx(1.0 * ps2au)
    assert plan.t_end == pytest.approx(5.0 * ps2au)
    assert plan.snapshots[0] == pytest.approx(2.0 * ps2au)


# --- spectral bounds ------------------------------------------------------------

def test_bounds_contain_coupled_spectrum():
    sys_, grid, _ = _offset_pair()
    e_lo, e_hi, cap = spectral_bounds(sys_, grid)
    n = grid.n
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = hamiltonian_matrix(
        lambda r: np.minimum(sys_.ground.value(r), cap), grid)
    h[n:, n:] = hamiltonian_matrix(
        lambda r: np.minimum(sys_.excited.value(r), cap), grid)
    w = sys_.coupling * sys_.envelope.flat_value
    h[:n, n:] = np.eye(n) * w
    h[n:, :n] = np.eye(n) * w
    evals = np.linalg.eigvalsh(h)
    assert e_lo < evals[0] and evals[-1] < e_hi
    # margin is real: bounds are strictly wider than the spectrum
    assert evals[0] - e_lo > 0.02 * (e_hi - e_lo)


def test_bounds_contain_coupled_spectrum_on_mapped_grid():
    sys_, _, _ = _offset_pair()
    grid = build_grid(sys_, 120, 3.0, 12.0, kind="adaptive")
    e_lo, e_hi, cap = spectral_bounds(sys_, grid)
    n = grid.n
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = hamiltonian_matrix(
        lambda r: np.minimum(sys_.ground.value(r), cap), grid)
    h[n:, n:] = hamiltonian_matrix(
        lambda r: np.minimum(sys_.excited.value(r), cap), grid)
    w = sys_.coupling * sys_.envelope.flat_value
    h[:n, n:] = np.eye(n) * w
    h[n:, :n] = np.eye(n) * w
    evals = np.linalg.eigvalsh(h)
    assert e_lo < evals[0] and evals[-1] < e_hi


# --- single steps ---------------------------------------------------------------

@pytest.mark.parametrize("n", [256, 320])     # dense and transform kernels
def test_free_gaussian_closed_form(n):
    sys_ = _free_system()
    mu, r0, sigma, k0 = 2000.0, 18.0, 0.5, 1.0
    grid = build_uniform(2.0, 40.0, n, mu)
    st = TwoChannelState(grid, gaussian(grid, r0, sigma, k0), np.zeros(n))
    for _ in range(4):
        st = step(sys_, grid, st, 200.0, f=0.0)
    a = sigma**2 + 1j * st.t / (2.0 * mu)
    c = grid.r - r0 - k0 * st.t / mu
    ref = ((2.0 * sigma**2 / np.pi) ** 0.25 / np.sqrt(2.0 * a)
           * np.exp(-c**2 / (4.0 * a) + 1j * k0 * grid.r
                    - 1j * k0**2 * st.t / (2.0 * mu)))
    np.testing.assert_allclose(st.g, ref, atol=1e-12)
    assert np.max(np.abs(st.e)) == 0.0
    assert st.norm() == pytest.approx(1.0, abs=1e-13)


def test_step_time_reversal():
    sys_, grid, init = _offset_pair()
    dt = 0.05 * ps2au
    fwd = step(sys_, grid, init, dt, f=0.7)
    back = step(sys_, grid, fwd, -dt, f=0.7)
    np.testing.assert_allclose(back.g, init.g, atol=1e-12)
    np.testing.assert_allclose(back.e, init.e, atol=1e-12)


def test_step_rejects_foreign_grid():
    sys_, grid, init = _offset_pair()
    other = build_uniform(3.0, 12.0, 65, grid.mu)
    with pytest.raises(GridMismatchError):
        step(sys_, other, init, 10.0)


# --- full runs -------------------------------------------------------------------

def test_populations_track_two_level_reference():
    # offset wells factor into (spatial) x (2x2); populations must follow
    # the exactly integrated two-level problem through ramps and flat top
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=15.0, dt_flat=0.1)
    ts = propagate(sys_, grid, plan, init)
    pg, pe = _two_level_reference(sys_.envelope, sys_.coupling, 60 * CM, ts.t)
    np.testing.assert_allclose(ts.pop_g, pg, atol=2e-5)
    np.testing.assert_allclose(ts.pop_e, pe, atol=2e-5)
    assert ts.norm_drift() < 1e-10


def test_midpoint_freezing_is_second_order():
    sys_, grid, init = _offset_pair()
    errs = []
    for dt_ramp in (0.04, 0.02, 0.01):
        plan = PropagationPlan.from_ps(t_start=0.0, t_end=2.0,
                                       dt_ramp=dt_ramp, dt_flat=0.1)
        ts = propagate(sys_, grid, plan, init)
        _, pe = _two_level_reference(sys_.envelope, sys_.coupling, 60 * CM,
                                     np.array([0.0, 2.0 * ps2au]))
        errs.append(abs(ts.pop_e[-1] - pe[-1]))
    assert 3.2 < errs[0] / errs[1] < 4.8
    assert 3.2 < errs[1] / errs[2] < 4.8


def test_norm_conserved_over_many_steps():
    sys_, grid, init = _offset_pair()
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    pair = np.stack([init.g, init.e]).astype(complex)
    n0 = np.sqrt(np.sum(np.abs(pair) ** 2 * grid.w))
    for _ in range(1000):
        pair = eng.step(pair, 0.02 * ps2au, 1.0)
    n1 = np.sqrt(np.sum(np.abs(pair) ** 2 * grid.w))
    assert abs(n1 - n0) < 1e-11


def test_snapshots_land_exactly():
    sys_, grid, init = _offset_pair()
    snaps_ps = (0.0, 1.3, 7.25, 15.0)
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=15.0, dt_flat=0.1,
                                   snapshots=snaps_ps)
    ts = propagate(sys_, grid, plan, init)
    assert len(ts.snapshots) == 4
    for snap, t_ps in zip(ts.snapshots, snaps_ps):
        assert abs(snap.t - t_ps * ps2au) < 1e-9
    assert ts.final() is ts.snapshots[-1]
    assert np.all(np.diff(ts.t) > 0)
    # populations at the final snapshot agree with the recorded series
    assert ts.final().population_e() == pytest.approx(ts.pop_e[-1], rel=1e-12)
    for key in ("e_lo", "e_hi", "v_cap", "matvecs", "max_order"):
        assert key in ts.meta


def test_propagate_validates_initial():
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=1.0)
    bad = TwoChannelState(grid, 0.5 * init.g, init.e)
    with pytest.raises(DomainError):
        propagate(sys_, grid, plan, bad)


def test_empty_series_has_no_final():
    ts = TimeSeries(t=np.zeros(1), pop_g=np.ones(1), pop_e=np.zeros(1),
                    norm=np.ones(1), snapshots=[], grid=None)
    with pytest.raises(DomainError):
        ts.final()


def test_runaway_recurrence_is_caught():
    # declaring too small a spectral span must be detected, not aliased
    sys_, grid, init = _offset_pair()
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    eng.half_span *= 0.15
    pair = np.stack([init.g, init.e]).astype(complex)
    with pytest.raises(SpectralBoundsError):
        eng.step(pair, 60.0 / eng.half_span, 1.0)


def test_runaway_recurrence_is_caught_on_fft_path():
    # the pre-scaled FFT arrays must follow a changed (e_mid, half_span)
    sys_, grid, init = _offset_pair()
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    eng.h_dense = None
    pair = np.stack([init.g, init.e]).astype(complex)
    eng.step(pair, 0.02 * ps2au, 1.0)
    eng.half_span *= 0.15
    with pytest.raises(SpectralBoundsError):
        eng.step(pair, 60.0 / eng.half_span, 1.0)


# --- exact propagation of constant intervals on the dense path ------------------

@pytest.mark.parametrize("mapping, n, dt_ps", [("uniform", 64, 0.02),
                                              ("adaptive", 120, 0.005)])
def test_eigen_path_matches_chebyshev_kernels(mapping, n, dt_ps):
    # dt is cut on the adaptive grid, whose larger spectral span would
    # otherwise ask for order 362 per step
    sys_, grid, _ = _offset_pair()
    if mapping == "adaptive":
        grid = build_grid(sys_, n, 3.0, 12.0, kind=mapping)
    assert grid.kind == mapping and grid.n == n
    pair = np.stack([gaussian(grid, 6.0, 0.44),
                     np.zeros(grid.n)]).astype(complex)
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    fft = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    fft.h_dense = None
    dt = dt_ps * ps2au
    # one step: dense and transform-kernel recurrences
    ref = eng.step(pair, dt, 1.0)
    np.testing.assert_allclose(fft.step(pair, dt, 1.0), ref,
                               rtol=0, atol=1e-12)
    # the exact path against both recurrences after 200 steps, and
    # against the dense one after 1000
    exact = list(eng.steps(pair, dt, np.ones(1000), const=True))
    assert eng.eigensolves == 1 and len(exact) == 1000
    assert eng.eigen_orthogonality < 1e-12
    dense = kernel = pair
    for k in range(200):
        dense = eng.step(dense, dt, 1.0)
        kernel = fft.step(kernel, dt, 1.0)
    np.testing.assert_allclose(exact[199], dense, rtol=0, atol=1e-10)
    np.testing.assert_allclose(exact[199], kernel, rtol=0, atol=1e-10)
    for k in range(800):
        dense = eng.step(dense, dt, 1.0)
    np.testing.assert_allclose(exact[-1], dense, rtol=0, atol=1e-10)


def test_ramp_only_plan_does_no_eigensolve():
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=2.0, dt_ramp=0.004)
    ts = propagate(sys_, grid, plan, init)
    assert len(ts.t) - 1 == 500
    assert ts.meta["eigensolves"] == 0
    assert ts.meta["matvecs"] == 500 * ts.meta["max_order"]


def test_flat_top_and_dark_tail_do_one_eigensolve_each():
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=15.0, dt_ramp=0.005,
                                   dt_flat=0.005)
    ts = propagate(sys_, grid, plan, init)
    meta = ts.meta
    assert len(ts.t) - 1 == 800 + 2000 + 200
    assert meta["eigensolves"] == 2
    # one matvec per Chebyshev term, on the 800 ramp steps only
    assert meta["matvecs"] == 800 * meta["max_order"]
    assert meta["eigen_orthogonality"] < 1e-12
    assert ts.norm_drift() < 1e-10


def test_single_step_constant_interval_is_exact_too():
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=14.0, t_end=15.0, dt_flat=1.0)
    ts = propagate(sys_, grid, plan, init)
    assert len(ts.t) - 1 == 1
    assert ts.meta["eigensolves"] == 1
    assert ts.meta["matvecs"] == 0


def test_meta_reports_kinetic_fft_length():
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=14.0, t_end=14.01, dt_flat=0.01)
    assert propagate(sys_, grid, plan, init).meta["kinetic_fft_len"] == 0
    for mapping, n, size in (("uniform", 300, 960), ("adaptive", 300, 960)):
        g = build_grid(sys_, n, 3.0, 12.0, kind=mapping)
        start = TwoChannelState(g, gaussian(g, 6.0, 0.44), np.zeros(g.n))
        meta = propagate(sys_, g, plan, start).meta
        assert meta["kinetic_fft_len"] == g.kinetic_fft_len == size


# --- plan values must be finite ---------------------------------------------------

@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["dt_ramp", "dt_flat", "spectral_margin",
                                  "v_cap", "snapshots"])
def test_plan_rejects_non_finite_values(name, value):
    kw = {name: (1.0, value) if name == "snapshots" else value}
    with pytest.raises(DomainError, match=name):
        PropagationPlan(t_start=0.0, t_end=2.0, **kw)


# --- bounds measured from the coupled operator ------------------------------------

def _coupled_h(sys_, grid, cap, f):
    n = grid.n
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = hamiltonian_matrix(np.minimum(sys_.ground.value(grid.r), cap),
                                   grid)
    h[n:, n:] = hamiltonian_matrix(np.minimum(sys_.excited.value(grid.r), cap),
                                   grid)
    h[:n, n:] = h[n:, :n] = np.eye(n) * sys_.coupling * f
    return h


def test_measured_bounds_contain_every_envelope_value_and_are_tight():
    sys_, grid, _ = _offset_pair()
    e_lo, e_hi, cap = spectral_bounds(sys_, grid)
    for f in (0.0, 0.5, 1.0):
        evals = np.linalg.eigvalsh(_coupled_h(sys_, grid, cap, f))
        assert e_lo < evals[0] and evals[-1] < e_hi
    # the margin of 5 percent a side, and no more
    assert e_hi - e_lo <= 1.15 * (evals[-1] - evals[0])


@pytest.mark.parametrize("n", [120, 300])     # dense and transform kernels
def test_lambda_max_matches_dense_spectrum(n):
    sys_, _, _ = _offset_pair()
    grid = build_grid(sys_, n, 3.0, 12.0, kind="adaptive")
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    assert (eng.h_dense is None) == (n > 256) and eng.bound_matvecs > 0
    top = np.linalg.eigvalsh(_coupled_h(sys_, grid, eng.cap, 1.0))[-1]
    assert eng.lambda_max == pytest.approx(top, rel=1e-8)
    assert eng.e_lo < eng.lambda_max < eng.e_hi


def test_measured_bounds_and_orders_repeat_exactly():
    sys_, grid, init = _offset_pair()
    a = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    b = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    assert (a.e_lo, a.e_hi) == (b.e_lo, b.e_hi)
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=2.5, dt_ramp=0.01)
    metas = [propagate(sys_, grid, plan, init).meta for _ in range(2)]
    for key in ("e_lo", "e_hi", "lambda_max", "bound_matvecs", "matvecs",
                "max_order"):
        assert metas[0][key] == metas[1][key]
    assert metas[0]["matvecs"] == 200 * metas[0]["max_order"]


def _adaptive_300():
    sys_, _, _ = _offset_pair()
    grid = build_grid(sys_, 300, 3.0, 12.0, kind="adaptive")
    pair = np.stack([gaussian(grid, 6.0, 0.44),
                     0.5 * gaussian(grid, 6.5, 0.6)]).astype(complex)
    return sys_, grid, pair


@pytest.mark.parametrize("f", [0.5, 1.0])
def test_fft_step_matches_exact_propagator(f):
    # one step above the dense cut against exp(-i H dt) from eigh of the
    # capped coupled H in the phi representation
    sys_, grid, pair = _adaptive_300()
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    assert eng.h_dense is None
    dt = 0.002 * ps2au
    evals, vecs = np.linalg.eigh(_coupled_h(sys_, grid, eng.cap, f))
    rj = np.sqrt(grid.jac)
    phi = (pair * rj).ravel()
    out = vecs @ (np.exp(-1j * evals * dt) * (vecs.T @ phi))
    exact = out.reshape(2, grid.n) / rj
    np.testing.assert_allclose(eng.step(pair, dt, f), exact, rtol=0,
                               atol=1e-11)


def test_meta_times_the_series_and_the_kinetic_step():
    sys_, grid, pair = _adaptive_300()
    init = TwoChannelState(grid, pair[0], pair[1])
    init = TwoChannelState(grid, init.g / init.norm(), init.e / init.norm())
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=0.004, dt_ramp=0.002)
    meta = propagate(sys_, grid, plan, init).meta
    assert meta["matvecs"] > 0
    assert 0.0 < meta["kinetic_s"] <= meta["series_s"]
    # the dense path times its steps and runs no FFT
    sys_, grid, init = _offset_pair()
    meta = propagate(sys_, grid, plan, init).meta
    assert meta["series_s"] > 0.0 and meta["kinetic_s"] == 0.0
