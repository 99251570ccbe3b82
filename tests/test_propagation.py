from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from coldpa.errors import (DomainError, GridMismatchError,
                           SpectralBoundsError)
from coldpa.grids import TwoChannelState, build_uniform, gaussian
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
    pair = np.column_stack([init.g, init.e]).astype(complex)
    n0 = np.sqrt(np.sum(np.abs(pair) ** 2 * grid.w[:, None]))
    for _ in range(1000):
        pair = eng.step(pair, 0.02 * ps2au, 1.0)
    n1 = np.sqrt(np.sum(np.abs(pair) ** 2 * grid.w[:, None]))
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
    pair = np.column_stack([init.g, init.e]).astype(complex)
    with pytest.raises(SpectralBoundsError):
        eng.step(pair, 60.0 / eng.half_span, 1.0)


# --- dense propagator on constant segments ----------------------------------------

def test_cached_propagator_matches_vector_recurrence():
    sys_, grid, init = _offset_pair()
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    dt = 0.02 * ps2au
    u = eng.propagator(dt, 1.0)
    assert u.shape == (2 * grid.n, 2 * grid.n)
    assert eng.propagator_builds == 1
    pair = np.column_stack([init.g, init.e]).astype(complex)
    # one step: U product, dense recurrence and transform-kernel recurrence
    fft = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    fft.h_dense = None
    ref = eng.step(pair, dt, 1.0)
    np.testing.assert_allclose((u @ pair.reshape(-1)).reshape(pair.shape),
                               ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fft.step(pair, dt, 1.0), ref,
                               rtol=0, atol=1e-12)
    cached = vector = pair
    for _ in range(1000):
        cached = (u @ cached.reshape(-1)).reshape(pair.shape)
        vector = eng.step(vector, dt, 1.0)
    np.testing.assert_allclose(cached, vector, rtol=0, atol=1e-10)


def test_ramp_only_plan_builds_no_propagator():
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=2.0, dt_ramp=0.004)
    ts = propagate(sys_, grid, plan, init)
    assert len(ts.t) - 1 == 500 > 2 * grid.n
    assert ts.meta["propagator_builds"] == 0
    assert ts.meta["cached_steps"] == 0


def test_flat_top_and_dark_tail_build_one_propagator_each():
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=15.0, dt_ramp=0.005,
                                   dt_flat=0.005)
    ts = propagate(sys_, grid, plan, init)
    meta = ts.meta
    assert meta["propagator_builds"] == 2
    assert meta["cached_steps"] == 2000 + 200
    # one matvec per Chebyshev term: 800 ramp steps plus the two builds
    assert meta["matvecs"] == (800 + 2) * meta["max_order"]
    assert ts.norm_drift() < 1e-10


@pytest.mark.parametrize("n_steps, builds", [(64, 0), (65, 1)])
def test_propagator_built_only_beyond_n_steps(n_steps, builds):
    sys_, grid, init = _offset_pair()
    assert grid.n == 64
    plan = PropagationPlan.from_ps(t_start=14.0, t_end=15.0,
                                   dt_flat=1.0 / n_steps)
    ts = propagate(sys_, grid, plan, init)
    assert len(ts.t) - 1 == n_steps
    assert ts.meta["propagator_builds"] == builds
    assert ts.meta["cached_steps"] == builds * n_steps
