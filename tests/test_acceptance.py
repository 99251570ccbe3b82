"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line carrying the measured value
next to its tolerance before asserting, so a red run still reports every
number. The slow propagation runs sit at the bottom of the file; wall-time
budgets are asserted alongside the physics.
"""
import time
from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp

from coldpa.config import reference_system
from coldpa.grids import (TwoChannelState, apply_kinetic, build_grid,
                          build_uniform, gaussian, inner, normalize,
                          to_momentum)
from coldpa.impulsive import evolve_impulsive, predict_k_peaks
from coldpa.observables import (find_momentum_peaks, level_populations,
                                thermal_yield)
from coldpa.potentials import (CoupledSystem, PotentialCurve, PulseEnvelope,
                               adiabatic_potentials, find_crossing,
                               local_detuning, rabi_period)
from coldpa.propagation import PropagationPlan, propagate
from coldpa.spectrum import continuum_state, solve_levels
from coldpa.units import hartree2cm, kb_hartree, kinetic_energy, mu_cs2, ps2au

CM = 1.0 / hartree2cm
W_CM = 13.17

_WALL = {}


def _verdict(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


class _Const:
    """Flat curve pinned at its asymptote."""

    def __init__(self, level=0.0):
        self.asymptote = float(level)

    def value(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.asymptote)

    __call__ = value

    def derivative(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


class _ExpGap:
    """Tail curve g_inf - b exp(-c r): gap slope stays mild at long range."""

    def __init__(self, g_inf, b, c):
        self.asymptote = float(g_inf)
        self.b, self.c = float(b), float(c)

    def value(self, r):
        return self.asymptote - self.b * np.exp(-self.c * np.asarray(r, dtype=float))

    __call__ = value

    def derivative(self, r):
        return self.b * self.c * np.exp(-self.c * np.asarray(r, dtype=float))


# ---------------------------------------------------------------------------
# closed-form observables


def test_population_cycling_periods():
    sys_ = reference_system()
    rc = find_crossing(sys_)
    t_on = float(rabi_period(sys_.coupling, local_detuning(sys_, rc))) / ps2au
    t_det = rabi_period(W_CM * CM, 67.4 * CM) / ps2au
    ok = abs(t_on - 1.27) <= 0.01 and abs(t_det - 0.24) <= 0.01
    assert _verdict(ok, "population cycling periods",
                    f"at crossing {t_on:.4f} ps (ref 1.27 +/- 0.01), "
                    f"detuned 67.4 cm-1 {t_det:.4f} ps (ref 0.24 +/- 0.01)")


def test_two_channel_beat_periods():
    # (E_e, E_g, overlap) -> beat period in ps, 5% against reference values:
    # the Rabi period of a two-level pair, coupled by W * overlap and
    # detuned by half its gap.
    # A fifth pair (-134.77, -141.75, 0.23 -> 2.5 ps) sits ~40% off the
    # closed form, far beyond what input rounding can explain, and is left
    # out deliberately.
    rows = [
        (-144.05, -143.27, 0.10, 12.7),
        (-144.05, -142.43, 0.22, 5.5),
        (-144.05, -141.75, 0.16, 7.0),
        (-134.77, -143.27, 0.05, 3.9),
    ]
    details, ok = [], True
    for e_e, e_g, ov, ref in rows:
        t = rabi_period(W_CM * CM * ov, 0.5 * (e_e - e_g) * CM) / ps2au
        rel = abs(t - ref) / ref
        ok &= rel <= 0.05
        details.append(f"{t:.2f}/{ref}")
    assert _verdict(ok, "beat periods",
                    f"got/ref ps: {', '.join(details)} (tol 5%)")


def test_thermal_partition_and_pair_yield():
    cm3 = (1.0 / 5.29177210903e-9) ** 3          # bohr^3 per cm^3
    kw = dict(temperature_k=0.11e-3, de_dn=0.632e-4 * CM, mu=mu_cs2,
              volume=1e-3 * cm3, n_atoms=1e8)
    y1 = thermal_yield(0.78e-4, **kw)
    y2 = thermal_yield(2.83e-4, **kw)
    zp_ok = (abs(y1.zp / 0.95e-4 - 1) <= 0.01
             and abs(y2.zp / 3.44e-4 - 1) <= 0.01)
    nm_ok = (abs(y1.n_molecules / 0.3e-2 - 1) <= 0.03
             and abs(y2.n_molecules / 1.1e-2 - 1) <= 0.03)
    assert _verdict(zp_ok and nm_ok, "thermal pair yield",
                    f"ZP {y1.zp:.3e}/{y2.zp:.3e} (ref 0.95e-4/3.44e-4, 1%), "
                    f"N_mol {y1.n_molecules:.3e}/{y2.n_molecules:.3e} "
                    f"(ref 0.3e-2/1.1e-2, 3%)")


def test_kinetic_energy_of_momentum_features():
    rows = [(12.2, 134.8, 0.005), (10.4, 98.0, 0.005), (6.0, 32.6, 0.005),
            (8.6, 68.6, 0.03)]
    details, ok = [], True
    for k, ref, tol in rows:
        e = kinetic_energy(k, mu_cs2) * hartree2cm
        rel = abs(e - ref) / ref
        ok &= rel <= tol
        details.append(f"k={k}: {e:.1f}/{ref}")
    assert _verdict(ok, "kinetic energies",
                    f"{'; '.join(details)} cm-1 (tol 0.5%, last 3%)")


def test_weak_dressing_amplitude_factor():
    # Synthetic tail system tuned so the local half-gap at a grid point is
    # exactly 70 cm-1; the predicted transfer amplitude there must come out
    # at W^2/(4 Omega Delta).
    mu = 2000.0
    grid = build_uniform(2.0, 202.0, 2048, mu)
    r_j = float(grid.r[320])
    b_cm = (1000.0 - 140.0) / np.exp(-0.01 * r_j)
    sys_ = SimpleNamespace(
        ground=_Const(0.0),
        excited=_ExpGap(1000.0 * CM, b_cm * CM, 0.01),
        coupling=W_CM * CM, mu=mu,
        envelope=SimpleNamespace(flat_value=1.0))
    psi0 = gaussian(grid, r_j, 4.0)
    peaks = predict_k_peaks(sys_, grid, psi0, f=1.0)
    assert len(peaks) == 1
    f = peaks[0].amplitude_factor
    ok = abs(f / 0.0087 - 1) <= 0.02
    assert _verdict(ok, "weak-dressing amplitude factor",
                    f"{f:.5f} at Delta=70 cm-1 (ref 0.0087, tol 2%)")


def test_dressed_trace_and_crossing_gap():
    sys_ = reference_system()
    r = np.geomspace(2.0, 999.0, 150001)
    pair = adiabatic_potentials(sys_, r, f=1.0)
    vsum = sys_.ground.value(r) + sys_.excited.value(r)
    trace_err = float(np.max(np.abs(pair.lower + pair.upper - vsum)))
    rc = find_crossing(sys_)
    at_rc = adiabatic_potentials(sys_, rc, f=1.0)
    gap_cm = float(at_rc.upper - at_rc.lower) * hartree2cm
    ok = trace_err <= 1e-12 and abs(gap_cm - 2 * W_CM) <= 1e-9
    assert _verdict(ok, "dressed-curve trace and crossing gap",
                    f"trace residual {trace_err:.1e} hartree (tol 1e-12), "
                    f"gap({rc:.3f} bohr) = {gap_cm:.10f} cm-1 (ref 26.34)")


# ---------------------------------------------------------------------------
# eigensolver


def test_morse_ladder_and_box_spacing():
    t0 = time.time()
    mu = mu_cs2
    de, a, re = 279.0 * CM, 0.35, 12.0

    class _PureMorse:
        asymptote = 0.0

        def __call__(self, r):
            x = np.exp(-a * (np.asarray(r, dtype=float) - re))
            return de * (x * x - 2.0 * x)

    grid = build_uniform(4.0, 40.0, 2048, mu)
    lv = solve_levels(_PureMorse(), grid)
    w0 = a * np.sqrt(2.0 * de / mu)
    v = np.arange(30)
    exact = -de + w0 * (v + 0.5) - w0**2 / (4.0 * de) * (v + 0.5) ** 2
    rel = float(np.max(np.abs(lv.bound().energies[:30] - exact)
                       / np.abs(exact)))

    grid_z = build_uniform(0.5, 120.0, 512, 8000.0)
    box_rel = 0.0
    for tgt in (3e-5, 2e-4, 1e-3):
        ref = continuum_state(_Const(0.0), grid_z, tgt)
        box_rel = max(box_rel, abs(ref.de_dn / (2.0 * ref.energy / ref.index)
                                   - 1.0))
    wall = time.time() - t0
    ok = rel <= 1e-8 and box_rel <= 1e-10 and wall < 60.0
    assert _verdict(ok, "bound ladder and box spacing",
                    f"lowest-30 rel {rel:.2e} (tol 1e-8), "
                    f"dE/dn vs 2E/n rel {box_rel:.2e} (tol 1e-10), "
                    f"{wall:.1f} s (< 60)")


# ---------------------------------------------------------------------------
# propagator integrity


def _offset_pair():
    # identical wells shifted by a constant: the channel amplitudes close on
    # a spatially uniform 2x2 problem whatever the vibrational motion does
    kw = dict(de=300 * CM, re=6.0, a=0.7, cn=100 * CM, n=6, switch_radius=9.0)
    return CoupledSystem(
        ground=PotentialCurve(asymptote=0.0, **kw),
        excited=PotentialCurve(asymptote=60 * CM, **kw),
        coupling=13 * CM, mu=5000.0,
        envelope=PulseEnvelope.from_ps([("const", 0.0, 500.0, 1.0, 1.0)]),
        working_range=(2.5, 14.0))


def test_norm_conserved_over_long_run():
    t0 = time.time()
    sys_ = _offset_pair()
    grid = build_uniform(3.0, 12.0, 64, sys_.mu)
    psi0 = gaussian(grid, 6.0, 0.44)
    init = TwoChannelState(grid, psi0.astype(complex),
                           np.zeros_like(psi0, dtype=complex), 0.0)
    plan = PropagationPlan.from_ps(t_end=500.0, dt_ramp=0.005, dt_flat=0.005)
    ts = propagate(sys_, grid, plan, init)
    steps = len(ts.t) - 1
    drift = ts.norm_drift()
    _WALL["drift"] = time.time() - t0
    ok = steps == 100000 and drift <= 1e-9
    assert _verdict(ok, "norm conservation",
                    f"drift {drift:.2e} over {steps} steps (tol 1e-9)")


def test_populations_match_two_level_ode():
    t0 = time.time()
    sys_ = _offset_pair()
    w, delta = sys_.coupling, sys_.excited.asymptote
    grid = build_uniform(3.0, 12.0, 64, sys_.mu)
    psi0 = gaussian(grid, 6.0, 0.44)
    init = TwoChannelState(grid, psi0.astype(complex),
                           np.zeros_like(psi0, dtype=complex), 0.0)
    # three beat periods of the uniform 2x2 problem
    t_end_ps = 3.0 * np.pi / np.hypot(w, delta / 2.0) / ps2au
    plan = PropagationPlan.from_ps(t_end=float(np.ceil(t_end_ps * 100) / 100),
                                   dt_ramp=0.002, dt_flat=0.002)
    ts = propagate(sys_, grid, plan, init)

    def rhs(t, c):
        return [-1j * w * c[1], -1j * (w * c[0] + delta * c[1])]

    sol = solve_ivp(rhs, (0.0, float(ts.t[-1])), [1.0 + 0j, 0.0 + 0j],
                    t_eval=ts.t, rtol=1e-11, atol=1e-13)
    err = float(np.max(np.abs(ts.pop_e - np.abs(sol.y[1]) ** 2)))
    _WALL["ode"] = time.time() - t0
    ok = err <= 1e-3
    assert _verdict(ok, "two-level populations",
                    f"max |P_e - ODE| {err:.2e} over {t_end_ps:.2f} ps "
                    f"(tol 1e-3)")


def test_free_packet_matches_dispersion():
    t0 = time.time()
    mu, r0, sig, k0 = 2000.0, 40.0, 3.0, 1.0
    free = SimpleNamespace(
        ground=_Const(0.0), excited=_Const(0.0), coupling=0.0, mu=mu,
        envelope=SimpleNamespace(flat_value=0.0, segments=(),
                                 value=lambda t: 0.0))
    grid = build_uniform(10.0, 90.0, 1024, mu)
    psi0 = gaussian(grid, r0, sig, k0)
    init = TwoChannelState(grid, psi0.astype(complex),
                           np.zeros_like(psi0, dtype=complex), 0.0)
    plan = PropagationPlan.from_ps(t_end=0.5, dt_ramp=0.01, dt_flat=0.01,
                                   snapshots=(0.5,))
    ts = propagate(free, grid, plan, init)
    t = float(ts.t[-1])
    alpha = 1.0 + 1j * t / (2.0 * mu * sig**2)
    drifted = grid.r - r0 - k0 * t / mu
    ana = np.exp(-drifted**2 / (4.0 * sig**2 * alpha) + 1j * k0 * grid.r
                 - 0.5j * k0**2 * t / mu) / np.sqrt(alpha)
    ana = normalize(grid, ana)
    err = float(np.max(np.abs(ts.snapshots[-1].g - ana))
                / np.max(np.abs(ana)))
    _WALL["free"] = time.time() - t0
    wall = _WALL.get("drift", 0.0) + _WALL.get("ode", 0.0) + _WALL["free"]
    ok = err <= 1e-8 and wall < 300.0
    assert _verdict(ok, "free-packet dispersion",
                    f"pointwise rel {err:.2e} (tol 1e-8); "
                    f"propagator checks total {wall:.0f} s (< 300)")


# ---------------------------------------------------------------------------
# frozen-nuclei (impulsive) limit


def test_heavy_mass_run_matches_impulsive_form():
    # with the mass scaled x1e6 nothing moves over a cycling period, so the
    # coupled propagation must reproduce the frozen-nuclei closed form
    t0 = time.time()
    env = PulseEnvelope.from_ps([("const", 0.0, 2.0, 1.0, 1.0)])
    heavy = reference_system(mu=mu_cs2 * 1e6, envelope=env)
    grid = build_uniform(2.0, 200.0, 1024, heavy.mu)
    psi0 = gaussian(grid, 100.0, 10.0)
    e_g = float(np.real(inner(grid, psi0, apply_kinetic(grid, psi0)
                              + heavy.ground.value(grid.r) * psi0)))
    plan = PropagationPlan.from_ps(t_end=1.27, dt_ramp=0.05, dt_flat=0.05,
                                   snapshots=(0.25, 0.5, 0.75, 1.0, 1.27))
    init = TwoChannelState(grid, psi0.astype(complex),
                           np.zeros_like(psi0, dtype=complex), 0.0)
    ts = propagate(heavy, grid, plan, init)
    m0 = float(np.max(np.abs(psi0)))
    worst_g = worst_e = 0.0
    for snap in ts.snapshots:
        ia = evolve_impulsive(heavy, grid, psi0, e_g, snap.t, f=1.0)
        worst_g = max(worst_g,
                      float(np.max(np.abs(snap.g - ia.psi_g))) / m0)
        rho = np.abs(snap.e) ** 2
        worst_e = max(worst_e,
                      float(np.max(np.abs(rho - ia.psi_e_density)))
                      / float(np.max(ia.psi_e_density)))
    _WALL["heavy"] = time.time() - t0
    ok = worst_g <= 0.01 and worst_e <= 0.01
    assert _verdict(ok, "heavy-mass impulsive limit",
                    f"pointwise over one cycling period: ground {worst_g:.1e},"
                    f" excited density {worst_e:.1e} (tol 1e-2)")


def test_impulsive_momentum_peaks_match_prediction():
    t0 = time.time()
    sys_ = SimpleNamespace(
        ground=_Const(0.0),
        excited=_ExpGap(1700.0 * CM, 1200.0 * CM, 0.01),
        coupling=W_CM * CM, mu=2000.0,
        envelope=SimpleNamespace(flat_value=1.0))
    grid = build_uniform(2.0, 200.0, 1024, sys_.mu)
    psi0 = normalize(grid, gaussian(grid, 60.0, 4.0)
                     + gaussian(grid, 100.0, 4.0)
                     + gaussian(grid, 140.0, 4.0))
    preds = predict_k_peaks(sys_, grid, psi0, f=1.0)
    assert len(preds) == 3
    details, worst = [], 0.0
    for p in preds:
        ia = evolve_impulsive(sys_, grid, psi0, 0.0, p.t_match, f=1.0)
        spec = ia.momentum()
        found = find_momentum_peaks(spec, k_min=1.0)
        assert found, f"no momentum peaks at t_match of r0={p.r0:.1f}"
        best = min(found, key=lambda q: abs(q.k - p.k))
        off = abs(best.k - p.k) / spec.dk
        worst = max(worst, off)
        details.append(f"r0={p.r0:.0f}: {off:.2f}")
    _WALL["peaks"] = time.time() - t0
    wall = _WALL.get("heavy", 0.0) + _WALL["peaks"]
    ok = worst <= 1.0 and wall < 120.0
    assert _verdict(ok, "impulsive momentum peaks",
                    f"|k found - k predicted| in grid spacings: "
                    f"{', '.join(details)} (tol 1); "
                    f"impulsive checks total {wall:.0f} s (< 120)")


# ---------------------------------------------------------------------------
# desk-scale analog run (shared by the final two tests)

_RUN = {}


def _analog_run():
    if _RUN:
        return _RUN
    t0 = time.time()
    env = PulseEnvelope.from_ps([
        ("sin2", 0.0, 10.0, 0.0, 1.0),
        ("const", 10.0, 60.0, 1.0, 1.0),
        ("sin2", 60.0, 70.0, 1.0, 0.0),
        ("const", 70.0, 75.0, 0.0, 0.0),
    ])
    sys_ = reference_system(envelope=env)
    grid = build_grid(sys_, 1400, 2.0, 200.0, kind="adaptive")
    ref = continuum_state(sys_.ground, grid,
                          sys_.ground.asymptote + kb_hartree * 0.11e-3)
    peaks = predict_k_peaks(sys_, grid, ref.state, f=1.0)
    init = TwoChannelState(grid, ref.state.astype(complex),
                           np.zeros_like(ref.state, dtype=complex), 0.0)
    plan = PropagationPlan.from_ps(t_end=75.0, dt_ramp=0.01, dt_flat=0.05,
                                   snapshots=(30.0, 45.0, 60.0, 75.0))
    ts = propagate(sys_, grid, plan, init)
    _RUN.update(sys=sys_, grid=grid, ref=ref, peaks=peaks, ts=ts,
                wall=time.time() - t0)
    return _RUN


def test_flat_top_feature_at_local_gap_momentum():
    run = _analog_run()
    sys_, grid, ts = run["sys"], run["grid"], run["ts"]
    outer = run["peaks"][-1]
    gap0 = float(sys_.excited.value(outer.r0) - sys_.ground.value(outer.r0))
    k_exp = float(np.sqrt(2.0 * sys_.mu * gap0))
    spec0 = to_momentum(grid, run["ref"].state.astype(complex))
    rho0 = np.abs(spec0.amp) ** 2
    dk = spec0.dk

    best, best_any = None, None
    for snap in ts.snapshots[:3]:          # samples inside the flat-top
        spec = to_momentum(grid, snap.g)
        rho = np.abs(spec.amp) ** 2
        for sgn in (-1.0, 1.0):
            win = np.flatnonzero(np.abs(spec.k - sgn * k_exp) < 1.5)
            for i in win[1:-1]:
                if not (rho[i] >= rho[i - 1] and rho[i] >= rho[i + 1]):
                    continue
                den = rho[i - 1] - 2.0 * rho[i] + rho[i + 1]
                k_i = spec.k[i] + (0.5 * (rho[i - 1] - rho[i + 1]) / den * dk
                                   if den else 0.0)
                off = abs(abs(k_i) - k_exp) / dk
                grown = rho[i] >= 3.0 * rho0[i]
                if best_any is None or off < best_any[0]:
                    best_any = (off, k_i, snap.t / ps2au, rho[i],
                                rho[i] / max(rho0[i], 1e-300))
                if grown and (best is None or off < best[0]):
                    best = (off, k_i, snap.t / ps2au, rho[i])
    if best is None:
        off, k_i, t_ps, rho_i, growth = best_any
        assert _verdict(False, "flat-top high-|k| feature",
                        f"no peak grew >= 3x within 1.5 a.u. of "
                        f"|k|={k_exp:.3f} (outermost maximum "
                        f"r0={outer.r0:.1f}) during the flat-top; nearest "
                        f"local max k={k_i:.4f} at t={t_ps:.0f} ps sits "
                        f"{off:.1f} grid spacings off with growth "
                        f"{growth:.1f}x, density {rho_i:.1e}")
    off, k_i, t_ps, rho_i = best
    ok = off <= 1.0
    assert _verdict(ok, "flat-top high-|k| feature",
                    f"nearest emergent peak k={k_i:.4f} at t={t_ps:.0f} ps, "
                    f"|k|-sqrt(2 mu gap(r0={outer.r0:.1f})) = {off:.2f} grid "
                    f"spacings (tol 1, dk={dk:.4f}, density {rho_i:.1e})")


def test_transferred_population_ends_bound():
    run = _analog_run()
    sys_, grid, ts = run["sys"], run["grid"], run["ts"]
    t0 = time.time()
    snap = ts.snapshots[-1]
    lv_e = solve_levels(sys_.excited, grid)
    p_e = float(np.sum(np.abs(snap.e) ** 2 * grid.w))
    pops = level_populations(grid, snap.e, lv_e)
    cont = float(np.sum(pops[lv_e.energies > sys_.excited.asymptote]))
    wall = run["wall"] + (time.time() - t0)
    ok = p_e > 0 and cont <= 1e-6 * p_e and wall < 1800.0
    assert _verdict(ok, "final excited population bound",
                    f"P_e {p_e:.3e}, continuum fraction {cont / p_e:.2e} "
                    f"(tol 1e-6); drift {ts.norm_drift():.1e}; analog run "
                    f"{wall:.0f} s (< 1800)")
