import math

import numpy as np
import pytest

from coldpa.config import reference_system
from coldpa.errors import (CalibrationError, DomainError, RangeError)
from coldpa.potentials import (CoupledSystem, PotentialCurve, PulseEnvelope,
                               Segment, adiabatic_potentials,
                               calibrate_crossing, find_crossing,
                               local_detuning, rabi_period)
from coldpa.units import convert, ps2au

CM = 1.0 / 219474.6313705


def _curve(**kw):
    base = dict(de=300 * CM, re=10.0, a=0.5, cn=5000 * CM, n=6,
                asymptote=0.0, switch_radius=14.0)
    base.update(kw)
    return PotentialCurve(**base)


# --- single curves ----------------------------------------------------------

def test_morse_minimum():
    c = _curve()
    assert c.value(c.re) == pytest.approx(c.asymptote - c.de, rel=1e-12)
    assert c.derivative(c.re) == pytest.approx(0.0, abs=1e-15)


def test_tail_asymptotics():
    c = _curve()
    r = np.array([50.0, 100.0, 200.0])
    np.testing.assert_allclose(c.value(r), c.asymptote - c.cn / r**c.n,
                               rtol=1e-12)


def test_blend_is_smooth():
    # value continuous and derivative matches central differences across
    # the whole switch window
    c = _curve()
    r = np.linspace(c.switch_lo - 1.0, c.switch_hi + 1.0, 4001)
    v = c.value(r)
    assert np.all(np.isfinite(v))
    h = r[1] - r[0]
    dv_num = (v[2:] - v[:-2]) / (2 * h)
    dv = c.derivative(r[1:-1])
    np.testing.assert_allclose(dv, dv_num, rtol=0, atol=5e-4 * np.max(
        np.abs(dv)))


def test_curve_rejects_nonpositive_r():
    c = _curve()
    with pytest.raises(DomainError):
        c.value(0.0)
    with pytest.raises(DomainError):
        c.value(np.array([1.0, -2.0]))


def test_curve_parameter_validation():
    with pytest.raises(DomainError):
        _curve(de=-1 * CM)
    with pytest.raises(DomainError):
        _curve(n=0)


# --- pulse envelope ---------------------------------------------------------

def test_envelope_default_shape():
    env = PulseEnvelope.default()
    assert env.value(0.0) == 0.0
    assert env.value(50.0 * ps2au) == pytest.approx(0.5)   # sin^2 midpoint
    assert env.value(200.0 * ps2au) == 1.0
    assert env.value(350.0 * ps2au) == 0.0
    assert env.value(1e6 * ps2au) == 0.0                   # past the end
    assert env.flat_value == 1.0
    (flat,) = [s for s in env.segments
               if s.shape == "const" and s.f0 == env.flat_value]
    lo, hi = flat.t0, flat.t1
    assert lo == pytest.approx(100.0 * ps2au)
    assert hi == pytest.approx(295.0 * ps2au)


def test_envelope_contiguity_enforced():
    a = Segment("sin2", 0.0, 1.0, 0.0, 1.0)
    b = Segment("const", 2.0, 3.0, 1.0, 1.0)     # gap
    with pytest.raises(DomainError):
        PulseEnvelope((a, b))


def test_envelope_continuity_enforced():
    a = Segment("sin2", 0.0, 1.0, 0.0, 1.0)
    b = Segment("const", 1.0, 2.0, 0.5, 0.5)     # jump
    with pytest.raises(DomainError):
        PulseEnvelope((a, b))


def test_segment_validation():
    with pytest.raises(DomainError):
        Segment("wedge", 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        Segment("const", 0.0, 1.0, 0.2, 0.8)
    with pytest.raises(DomainError):
        Segment("sin2", 0.0, 1.0, 0.0, 1.5)


# --- dressed pair -----------------------------------------------------------

def _toy_system(coupling_cm=13.17, delta_cm=140.0):
    delta = delta_cm * CM
    ground = PotentialCurve(de=279 * CM, re=12.0, a=0.35, cn=6890 * CM,
                            n=6, asymptote=-delta, switch_radius=16.0)
    excited = PotentialCurve(de=400 * CM, re=10.0, a=0.45, cn=10.0 * CM,
                             n=3, asymptote=0.0, switch_radius=14.0)
    return CoupledSystem(ground=ground, excited=excited,
                         coupling=coupling_cm * CM, mu=121135.9,
                         working_range=(2.0, 1000.0))


def test_adiabatic_trace_and_gap():
    sys_ = _toy_system()
    sys_, rc, _ = calibrate_crossing(sys_, 29.3)
    r = np.geomspace(2.5, 900.0, 512)
    pair = adiabatic_potentials(sys_, r, f=1.0)
    vg, ve = sys_.ground.value(r), sys_.excited.value(r)
    # trace is preserved by the 2x2 diagonalization
    np.testing.assert_allclose(pair.lower + pair.upper, vg + ve,
                               rtol=0, atol=1e-12)
    # gap at the crossing is exactly 2W
    at_rc = adiabatic_potentials(sys_, rc, f=1.0)
    assert float(at_rc.upper - at_rc.lower) == pytest.approx(
        2.0 * sys_.coupling, rel=1e-9)


def test_mixing_angle_limits():
    sys_, rc, _ = calibrate_crossing(_toy_system(), 29.3)
    # far out tan(2 theta) -> W / Delta_L with Delta_L half the offset
    far = adiabatic_potentials(sys_, 800.0, f=1.0)
    w = sys_.coupling
    d = float(local_detuning(sys_, 800.0))
    assert float(far.theta) == pytest.approx(0.5 * math.atan2(w, d),
                                             rel=1e-9)
    assert float(far.theta) < 0.15          # gap dominates the coupling
    at_rc = adiabatic_potentials(sys_, rc, f=1.0)
    assert float(at_rc.theta) == pytest.approx(np.pi / 4, abs=1e-6)


def test_adiabatic_f_zero_is_diabatic():
    sys_, _, _ = calibrate_crossing(_toy_system(), 29.3)
    r = np.array([5.0, 29.3, 100.0])
    pair = adiabatic_potentials(sys_, r, f=0.0)
    vg, ve = sys_.ground.value(r), sys_.excited.value(r)
    np.testing.assert_allclose(pair.lower, np.minimum(vg, ve), atol=1e-15)
    np.testing.assert_allclose(pair.upper, np.maximum(vg, ve), atol=1e-15)


def test_rabi_period_closed_form():
    w, d = 13.17 * CM, 67.4 * CM
    assert rabi_period(w, d) == pytest.approx(
        math.pi / math.hypot(w, d), rel=1e-14)
    with pytest.raises(DomainError):
        rabi_period(0.0, 0.0)
    # arrays broadcast, entry by entry the scalar closed form
    ws, ds = w * np.array([1.0, 0.5, 0.0]), np.array([0.0, 30.0, 67.4]) * CM
    want = [math.pi / math.hypot(a, b) for a, b in zip(ws, ds)]
    np.testing.assert_allclose(rabi_period(ws, ds), want, rtol=1e-14)
    np.testing.assert_allclose(rabi_period(w, ds),
                               [rabi_period(w, b) for b in ds], rtol=1e-14)
    # one zero root among them is refused
    with pytest.raises(DomainError):
        rabi_period(ws, np.array([d, d, 0.0]))


def test_local_rabi_longest_at_crossing():
    # the generalized frequency hypot(W, Delta) bottoms out where the gap
    # closes, so the cycling period peaks exactly at the crossing
    sys_, rc, _ = calibrate_crossing(_toy_system(), 29.3)
    r = np.linspace(rc - 5, rc + 50, 300)
    t = rabi_period(sys_.coupling, local_detuning(sys_, r))
    assert np.argmin(np.abs(r - rc)) == np.argmax(t)
    assert np.max(t) <= math.pi / sys_.coupling + 1e-9


def test_working_range_enforced():
    sys_ = _toy_system()
    with pytest.raises(RangeError):
        local_detuning(sys_, 1.0)
    with pytest.raises(RangeError):
        adiabatic_potentials(sys_, 1500.0)


# --- crossing calibration ---------------------------------------------------

def test_calibrate_hits_target():
    rng = np.random.default_rng(42)
    for _ in range(4):
        target = rng.uniform(22.0, 45.0)
        sys_, rc, vc = calibrate_crossing(_toy_system(), target)
        assert rc == pytest.approx(target, abs=1e-3)
        # crossing means equal channel values
        assert float(sys_.excited.value(rc) - sys_.ground.value(rc)) == \
            pytest.approx(0.0, abs=1e-12)
        assert vc == pytest.approx(float(sys_.ground.value(rc)))


def test_calibrate_rejects_morse_region():
    with pytest.raises((CalibrationError, RangeError)):
        calibrate_crossing(_toy_system(), 5.0)


def test_find_crossing_picks_outermost():
    sys_, rc, _ = calibrate_crossing(_toy_system(), 29.3)
    # gap stays single-signed beyond rc out to the box edge
    r = np.linspace(rc + 1e-3, 900.0, 2000)
    gap = sys_.excited.value(r) - sys_.ground.value(r)
    assert np.all(gap > 0)
    assert find_crossing(sys_) == pytest.approx(29.3, abs=1e-3)


def test_no_crossing_without_offset():
    # both asymptotes at zero and tails of the same sign: no crossing out
    # where it matters; shrink the range to the outer region to see it
    ground = _curve(asymptote=0.0)
    excited = _curve(de=200 * CM, re=9.0, a=0.6, cn=3000 * CM, n=6,
                     asymptote=0.0, switch_radius=12.0)
    sys_ = CoupledSystem(ground=ground, excited=excited, coupling=1e-5,
                         mu=121135.9, working_range=(30.0, 1000.0))
    with pytest.raises(CalibrationError):
        find_crossing(sys_)


# --- bundled demonstration system -------------------------------------------

def test_reference_system_crossing_and_rabi():
    sys_ = reference_system()
    rc = find_crossing(sys_)
    assert rc == pytest.approx(29.3, abs=1e-3)
    t_ps = rabi_period(sys_.coupling, 0.0) / ps2au
    assert t_ps == pytest.approx(1.2664, abs=1e-3)
    # asymptotic gap equals the dressing offset
    gap_cm = convert(2 * float(local_detuning(sys_, 900.0)),
                     "hartree", "cm-1")
    assert gap_cm == pytest.approx(140.0, rel=1e-3)
