import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from coldpa.errors import (DomainError, GridMismatchError,
                           SpectralBoundsError)
from coldpa.grids import TwoChannelState, build_grid, build_uniform, gaussian
from coldpa.potentials import CoupledSystem, PotentialCurve, PulseEnvelope
from coldpa import propagation
from coldpa.propagation import (BLOCK_STEPS, PropagationPlan, _Engine,
                                propagate)
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


def _bounds(sys_, grid):
    """(e_lo, e_hi, cap) the engine declares under the plan's defaults."""
    eng = _Engine(sys_, grid, PropagationPlan.cheb_tol,
                  PropagationPlan.spectral_margin)
    return eng.e_lo, eng.e_hi, eng.cap


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
    e_lo, e_hi, cap = _bounds(sys_, grid)
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
    e_lo, e_hi, cap = _bounds(sys_, grid)
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
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    # J = 1 on a uniform grid, so phi = sqrt(J) psi is psi
    psi = np.array([gaussian(grid, r0, sigma, k0), np.zeros(n)])
    run = eng._series(200.0)
    for _ in range(4):
        psi = run(psi, 0.0)[0]
    st = TwoChannelState(grid, *psi, 4 * 200.0)
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
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    psi = np.array([init.g, init.e])
    back = eng._series(-dt)(eng._series(dt)(psi, 0.7)[0], 0.7)[0]
    np.testing.assert_allclose(back, psi, atol=1e-12)


def test_propagate_rejects_foreign_grid():
    sys_, grid, init = _offset_pair()
    other = build_uniform(3.0, 12.0, 65, grid.mu)
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=1.0)
    with pytest.raises(GridMismatchError):
        propagate(sys_, other, plan, init)


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
    run = eng._series(0.02 * ps2au)
    for _ in range(1000):
        pair = run(pair, 1.0)[0]
    n1 = np.sqrt(np.sum(np.abs(pair) ** 2 * grid.w))
    assert abs(n1 - n0) < 1e-11


@pytest.mark.parametrize("mapping, n, snaps_ps, dt", [
    ("uniform", 64, (0.0, 1.3, 7.25, 15.0), {"dt_flat": 0.1}),
    ("adaptive", 120, (0.0, 1.3, 7.25, 15.0), {"dt_flat": 0.1}),
    # FFT-path blocks over the adaptive grid's wide span take orders in the
    # thousands at 0.1 ps, so a short window across the ramp's end
    ("adaptive", 300, (1.998, 1.999, 2.0, 2.003),
     {"dt_ramp": 0.0005, "dt_flat": 0.0005}),
], ids=["uniform-64", "adaptive-120", "adaptive-300"])
def test_snapshots_land_exactly(mapping, n, snaps_ps, dt):
    # J != 1 on the adaptive grids (dense and FFT path), so the recorded
    # populations, from phi = sqrt(J) psi, and the snapshots, in psi,
    # disagree there if a conversion is missing
    sys_, grid, init = _offset_pair()
    if mapping == "adaptive":
        grid = build_grid(sys_, n, 3.0, 12.0, kind=mapping)
        init = TwoChannelState(grid, gaussian(grid, 6.0, 0.44), np.zeros(n))
    assert grid.kind == mapping and grid.n == n
    plan = PropagationPlan.from_ps(t_start=snaps_ps[0], t_end=snaps_ps[-1],
                                   snapshots=snaps_ps, **dt)
    ts = propagate(sys_, grid, plan, init)
    assert len(ts.snapshots) == 4
    assert np.all(np.diff(ts.t) > 0)
    start = ts.snapshots[0]
    np.testing.assert_allclose([start.g, start.e], [init.g, init.e],
                               rtol=1e-12, atol=0)
    for snap, t_ps in zip(ts.snapshots, snaps_ps):
        assert abs(snap.t - t_ps * ps2au) < 1e-9
        # populations at every snapshot agree with the recorded series
        (i,) = np.flatnonzero(ts.t == snap.t)
        assert snap.population_g() == pytest.approx(ts.pop_g[i], rel=1e-12)
        assert snap.population_e() == pytest.approx(ts.pop_e[i], rel=1e-12)
    for key in ("e_lo", "e_hi", "v_cap", "matvecs", "max_order"):
        assert key in ts.meta


def test_propagate_validates_initial():
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=1.0)
    bad = TwoChannelState(grid, 0.5 * init.g, init.e)
    with pytest.raises(DomainError):
        propagate(sys_, grid, plan, bad)


@pytest.mark.parametrize("channel", ["ground", "excited"])
@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
def test_propagate_refuses_a_non_finite_initial_state(channel, fill):
    # NaN fails every comparison, so a norm check alone would pass it
    sys_, grid, init = _offset_pair()
    plan = PropagationPlan.from_ps(t_start=0.0, t_end=1.0)
    amp = {"ground": init.g.copy(), "excited": init.e.copy()}
    amp[channel][7] = fill
    bad = TwoChannelState(grid, amp["ground"], amp["excited"])
    with pytest.raises(DomainError, match=re.escape(
            f"initial {channel} amplitude is {complex(fill)} at node 7")):
        propagate(sys_, grid, plan, bad)


def test_runaway_recurrence_is_caught():
    # declaring too small a spectral span must be detected, not aliased
    sys_, grid, init = _offset_pair()
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    eng.half_span *= 0.15
    pair = np.stack([init.g, init.e]).astype(complex)
    with pytest.raises(SpectralBoundsError):
        eng._series(60.0 / eng.half_span)(pair, 1.0)


def test_runaway_recurrence_is_caught_on_fft_path():
    # the pre-scaled FFT arrays must follow a changed (e_mid, half_span)
    sys_, grid, init = _offset_pair()
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    eng.h_dense = None
    pair = np.stack([init.g, init.e]).astype(complex)
    eng._series(0.02 * ps2au)(pair, 1.0)
    eng.half_span *= 0.15
    with pytest.raises(SpectralBoundsError):
        eng._series(60.0 / eng.half_span)(pair, 1.0)


@pytest.mark.parametrize("n", [64, 300])      # dense and transform kernels
def test_non_finite_term_is_caught(monkeypatch, n):
    # one NaN out of the operator makes every later term NaN, which no
    # growth test (max > guard) sees
    sys_, _, _ = _offset_pair()
    grid = build_uniform(3.0, 12.0, n, 5000.0)
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    assert (eng.h_dense is None) == (n > 256)
    operator = eng._operator

    def poisoned(*args):
        apply2a = operator(*args)

        def apply(x, out):
            apply2a(x, out=out)
            out.flat[3] = np.nan
            return out

        return apply

    monkeypatch.setattr(eng, "_operator", poisoned)
    pair = np.stack([gaussian(grid, 6.0, 0.44),
                     np.zeros(grid.n)]).astype(complex)
    with pytest.raises(SpectralBoundsError, match="not finite"):
        eng._series(0.005 * ps2au)(pair, 1.0)


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
    # one step: dense and transform-kernel recurrences, on pair as phi
    ref = eng._series(dt)(pair, 1.0)[0]
    np.testing.assert_allclose(fft._series(dt)(pair, 1.0)[0], ref,
                               rtol=0, atol=1e-12)
    # the exact path against both recurrences after 200 steps, and
    # against the dense one after 1000
    exact = list(eng.steps(pair, dt, np.ones(1000), const=True))
    assert eng.eigensolves == 1 and len(exact) == 1000
    assert eng.eigen_orthogonality < 1e-12
    dense = kernel = pair
    dense_run, kernel_run = eng._series(dt), fft._series(dt)
    for k in range(200):
        dense = dense_run(dense, 1.0)[0]
        kernel = kernel_run(kernel, 1.0)[0]
    np.testing.assert_allclose(exact[199], dense, rtol=0, atol=1e-10)
    np.testing.assert_allclose(exact[199], kernel, rtol=0, atol=1e-10)
    for k in range(800):
        dense = dense_run(dense, 1.0)[0]
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
                                   dt_flat=0.005, snapshots=(15.0,))
    ts = propagate(sys_, grid, plan, init)
    meta = ts.meta
    assert len(ts.t) - 1 == 800 + 2000 + 200
    assert meta["eigensolves"] == 2
    # one matvec per Chebyshev term, on the 800 ramp steps only
    assert meta["matvecs"] == 800 * meta["max_order"]
    assert meta["eigen_orthogonality"] < 1e-12
    assert ts.norm_drift() < 1e-10
    # snapshots that split the f = 1 flat top reuse its decomposition
    split = propagate(sys_, grid, PropagationPlan.from_ps(
        t_start=0.0, t_end=15.0, dt_ramp=0.005, dt_flat=0.005,
        snapshots=(4.0, 6.0, 8.0, 10.0, 15.0)), init)
    assert split.meta["eigensolves"] == 2
    assert len(split.t) == len(ts.t)
    for a, b in ((split.snapshots[-1].g, ts.snapshots[-1].g),
                 (split.snapshots[-1].e, ts.snapshots[-1].e)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


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
    for mapping, n, size in (("uniform", 300, 625), ("adaptive", 300, 625)):
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
    e_lo, e_hi, cap = _bounds(sys_, grid)
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


class _Holed:
    """``curve`` with the value ``fill`` from r_bad on."""

    def __init__(self, curve, r_bad, fill):
        self.curve, self.r_bad, self.fill = curve, r_bad, fill
        self.asymptote = curve.asymptote

    def value(self, r):
        return np.where(r >= self.r_bad, self.fill, self.curve.value(r))


@pytest.mark.parametrize("n", [64, 300])      # dense and transform kernels
@pytest.mark.parametrize("channel", ["ground", "excited"])
@pytest.mark.parametrize("fill", [np.nan, -np.inf])
def test_engine_refuses_a_non_finite_potential(n, channel, fill):
    sys_, _, _ = _offset_pair()
    grid = build_uniform(3.0, 12.0, n, 5000.0)
    curves = {"ground": sys_.ground, "excited": sys_.excited}
    curves[channel] = _Holed(curves[channel], 7.0, fill)
    bad = SimpleNamespace(coupling=sys_.coupling, envelope=sys_.envelope,
                          **curves)
    i = int(np.searchsorted(grid.r, 7.0))
    with pytest.raises(DomainError, match=re.escape(
            f"{channel} potential is {fill} at r = {float(grid.r[i])!r} bohr "
            f"(node {i})")):
        _Engine(bad, grid, tol=1e-14, margin=0.05)
    # +inf is capped to the ceiling, as every wall is
    curves[channel] = _Holed(curves[channel].curve, 11.0, np.inf)
    capped = SimpleNamespace(coupling=sys_.coupling, envelope=sys_.envelope,
                             **curves)
    eng = _Engine(capped, grid, tol=1e-14, margin=0.05)
    assert np.isfinite(eng.v).all() and eng.v.max() == eng.cap


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
    phi = pair * np.sqrt(grid.jac)
    out = vecs @ (np.exp(-1j * evals * dt) * (vecs.T @ phi.ravel()))
    np.testing.assert_allclose(eng._series(dt)(phi, f)[0],
                               out.reshape(2, grid.n), rtol=0, atol=1e-11)


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


# --- blocks of constant-interval steps on the FFT path ----------------------------

@pytest.mark.parametrize("f", [0.0, 1.0])
def test_fft_blocks_match_chained_steps(f):
    # one interval of a full block plus a remainder: every step edge of
    # the blocked expansion against a chain of single steps
    sys_, grid, pair = _adaptive_300()
    dt, n_steps = 0.0005 * ps2au, BLOCK_STEPS + 5
    blocked = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    single = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    assert blocked.h_dense is None
    states = list(blocked.steps(pair, dt, np.full(n_steps, f), const=True))
    assert len(states) == n_steps
    psi, run = pair, single._series(dt)
    for got in states:
        psi = run(psi, f)[0]
        np.testing.assert_allclose(got, psi, rtol=0, atol=1e-12)
    # one expansion per block, one matvec per term of each
    counts = blocked.order_counts
    assert sum(counts.values()) == 2
    assert blocked.matvecs == sum(k * c for k, c in counts.items())
    assert blocked.max_order == max(counts)
    assert single.matvecs == n_steps * single.max_order
    assert blocked.matvecs < single.matvecs


def test_fft_blocks_record_the_same_edges_and_snapshots(monkeypatch):
    # a ramp, then a constant interval that a snapshot splits into 6 and
    # BLOCK_STEPS + 3 steps; BLOCK_STEPS = 1 is the one-step-per-expansion
    # run
    sys_, grid, pair = _adaptive_300()
    pair /= np.sqrt(np.sum(np.abs(pair) ** 2 * grid.w))
    init = TwoChannelState(grid, pair[0], pair[1])
    plan = PropagationPlan.from_ps(
        t_start=1.998, t_end=2.0 + 0.0005 * (BLOCK_STEPS + 9),
        dt_ramp=0.0005, dt_flat=0.0005, snapshots=(2.0, 2.003))
    blocked = propagate(sys_, grid, plan, init)
    monkeypatch.setattr(propagation, "BLOCK_STEPS", 1)
    single = propagate(sys_, grid, plan, init)
    assert len(blocked.t) == len(single.t) == 1 + 4 + BLOCK_STEPS + 9
    np.testing.assert_array_equal(blocked.t, single.t)
    for key in ("pop_g", "pop_e", "norm"):
        np.testing.assert_allclose(getattr(blocked, key),
                                   getattr(single, key), rtol=0, atol=1e-12)
    assert len(blocked.snapshots) == len(single.snapshots) == 2
    for a, b in zip(blocked.snapshots, single.snapshots):
        assert a.t == b.t
        np.testing.assert_allclose(a.g, b.g, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.e, b.e, rtol=0, atol=1e-12)
    # the ramp's 4 steps, then blocks of 6, BLOCK_STEPS and 3 steps
    assert sum(blocked.meta["order_counts"].values()) == 4 + 3
    assert sum(single.meta["order_counts"].values()) == 4 + BLOCK_STEPS + 9
    for meta in (blocked.meta, single.meta):
        assert meta["matvecs"] == sum(
            k * c for k, c in meta["order_counts"].items())
    assert blocked.meta["matvecs"] < single.meta["matvecs"]


def test_runaway_recurrence_is_caught_inside_a_block():
    sys_, grid, pair = _adaptive_300()
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    assert eng.h_dense is None
    eng.half_span *= 0.15
    with pytest.raises(SpectralBoundsError):
        list(eng.steps(pair, 4.0 / eng.half_span, np.ones(BLOCK_STEPS),
                       const=True))


# --- energy on constant intervals -------------------------------------------------

@pytest.mark.parametrize("f", [0.0, 1.0])
@pytest.mark.parametrize("path", ["exact", "blocks"])
def test_constant_interval_conserves_energy(path, f):
    # <H(f)> of the two-channel state at every step edge of one constant
    # interval, on the dense exact path and on the FFT blocks
    if path == "exact":
        sys_, grid, _ = _offset_pair()
        pair = np.stack([gaussian(grid, 6.0, 0.44),
                         0.5 * gaussian(grid, 6.5, 0.6)]).astype(complex)
        dt, n_steps = 0.02 * ps2au, 500
    else:
        sys_, grid, pair = _adaptive_300()
        dt, n_steps = 0.0005 * ps2au, BLOCK_STEPS + 5
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    assert (eng.h_dense is None) == (path == "blocks")
    h = _coupled_h(sys_, grid, eng.cap, f)
    phi0 = pair * np.sqrt(grid.jac)

    def energy(phi):
        phi = phi.ravel()
        return (phi.conj() @ h @ phi).real / np.vdot(phi, phi).real

    e0 = energy(phi0)
    drift = max(abs(energy(phi) - e0)
                for phi in eng.steps(phi0, dt, np.full(n_steps, f), True))
    assert drift <= n_steps * 1e-14 * eng.half_span


# --- Lanczos exponentials on FFT-path ramps ---------------------------------------

@pytest.mark.parametrize("f", [0.5, 1.0])
def test_fft_ramp_step_matches_exact_propagator(f):
    # one Lanczos ramp step against exp(-i H dt) from eigh of the capped
    # coupled H, as the Chebyshev step is checked above
    sys_, grid, pair = _adaptive_300()
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    dt = 0.002 * ps2au
    evals, vecs = np.linalg.eigh(_coupled_h(sys_, grid, eng.cap, f))
    phi = pair * np.sqrt(grid.jac)
    out = vecs @ (np.exp(-1j * evals * dt) * (vecs.T @ phi.ravel()))
    (got,) = eng.steps(phi, dt, np.array([f]), const=False)
    np.testing.assert_allclose(got, out.reshape(2, grid.n), rtol=0,
                               atol=1e-11)


def test_lanczos_ramp_steps_track_chebyshev_steps():
    # 500 steps of a sin^2 ramp: unitary to rounding, within 1e-11 of the
    # one-expansion Chebyshev steps, and each on fewer applications
    sys_, grid, pair = _adaptive_300()
    dt = 0.0001 * ps2au
    f_mid = np.sin(0.5 * np.pi * (np.arange(500) + 0.5) / 500) ** 2
    ramp = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    chain = _Engine(sys_, grid, tol=1e-14, margin=0.05)

    def norm(phi):      # the weights are w = J dx
        return np.sqrt(np.sum(np.abs(phi) ** 2) * grid.dx)

    phi = pair * np.sqrt(grid.jac)
    phi = start = phi / norm(phi)
    run = chain._series(dt)
    for f, got in zip(f_mid, ramp.steps(start, dt, f_mid, const=False)):
        phi = run(phi, f)[0]
        assert abs(norm(got) - 1.0) <= 1e-12
    np.testing.assert_allclose(got, phi, rtol=0, atol=1e-11)
    assert sum(ramp.order_counts.values()) == 500
    assert max(ramp.order_counts) < chain.max_order
    assert ramp.matvecs < chain.matvecs


def test_fft_counters_repeat_exactly():
    # the Lanczos top and the Lanczos ramp steps take the same applications
    # in two identical runs
    sys_, grid, pair = _adaptive_300()
    pair /= np.sqrt(np.sum(np.abs(pair) ** 2 * grid.w))
    init = TwoChannelState(grid, pair[0], pair[1])
    plan = PropagationPlan.from_ps(t_start=1.99, t_end=2.01, dt_ramp=0.001,
                                   dt_flat=0.001)
    metas = [propagate(sys_, grid, plan, init).meta for _ in range(2)]
    for key in ("order_counts", "bound_matvecs", "lambda_max", "matvecs"):
        assert metas[0][key] == metas[1][key]
    assert metas[0]["bound_matvecs"] > 0


def test_exact_path_holds_at_most_three_matrices():
    # beyond the engine's own h_dense, the exact path at the largest dense
    # n holds the copy it decomposes in place and LAPACK's workspace (two
    # matrices), having released the scaled operator of the ramp before it
    sys_, _, _ = _offset_pair()
    grid = build_uniform(3.0, 12.0, 256, 5000.0)
    pair = np.stack([gaussian(grid, 6.0, 0.44),
                     np.zeros(grid.n)]).astype(complex)
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    tracemalloc.start()
    try:
        list(eng.steps(pair, 0.001 * ps2au, np.ones(3), const=False))
        assert eng._op is not None
        tracemalloc.reset_peak()
        list(eng.steps(pair, 0.02 * ps2au, np.ones(3), const=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eng.eigensolves == 1
    assert peak <= 3.1 * (2 * grid.n) ** 2 * 8


# --- the dense path: one term buffer per ramp interval, exact blocks ----------------

def _eigen_propagator(sys_, grid, cap, f, pair):
    """phi -> V exp(-i E t) V^T phi of the capped coupled H(f), as a map of
    channel-major psi blocks and times."""
    evals, vecs = np.linalg.eigh(_coupled_h(sys_, grid, cap, f))
    rj = np.sqrt(grid.jac)
    c = vecs.T @ (pair * rj).ravel()
    return lambda t: (vecs @ (np.exp(-1j * evals * t) * c)).reshape(
        2, grid.n) / rj


def test_dense_ramp_beyond_the_term_buffer_matches_exact_propagator():
    # a step long enough that its series folds the term buffer three
    # times; two steps at different f share the interval's expansion
    sys_, grid, _ = _offset_pair()
    pair = np.stack([gaussian(grid, 6.0, 0.44),
                     0.5 * gaussian(grid, 6.5, 0.6)]).astype(complex)
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    assert eng.h_dense is not None
    dt = 0.05 * ps2au
    got = list(eng.steps(pair, dt, np.array([0.3, 0.8]), const=False))
    assert eng.order_counts.keys() == {eng.max_order}
    assert eng.max_order > 2 * propagation._DENSE_FOLD
    ref = pair
    for f, state in zip((0.3, 0.8), got):
        ref = _eigen_propagator(sys_, grid, eng.cap, f, ref)(dt)
        np.testing.assert_allclose(state, ref, rtol=0, atol=1e-12)


def test_exact_blocks_match_the_eigenbasis_across_a_split():
    # a constant interval of three blocks and more, split by a snapshot
    # into two calls: every step edge is V exp(-i E j dt) V^T phi with j
    # counted from the interval's start, from one decomposition
    sys_, grid, _ = _offset_pair()
    pair = np.stack([gaussian(grid, 6.0, 0.44),
                     0.5 * gaussian(grid, 6.5, 0.6)]).astype(complex)
    eng = _Engine(sys_, grid, tol=1e-14, margin=0.05)
    dt = 0.02 * ps2au
    first = list(eng.steps(pair, dt, np.ones(BLOCK_STEPS + 3), const=True))
    second = list(eng.steps(first[-1], dt, np.ones(2 * BLOCK_STEPS + 5),
                            const=True))
    assert eng.eigensolves == 1
    exact = _eigen_propagator(sys_, grid, eng.cap, 1.0, pair)
    for j, state in enumerate(first + second, start=1):
        assert state.shape == (2, grid.n) and state.flags.c_contiguous
        np.testing.assert_allclose(state, exact(j * dt), rtol=0, atol=1e-12)
