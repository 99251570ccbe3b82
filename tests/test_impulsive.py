import math
from dataclasses import replace

import numpy as np
import pytest

from coldpa.config import reference_system
from coldpa.errors import DomainError
from coldpa.grids import build_uniform, gaussian, normalize
from coldpa.impulsive import (ImpulsivePrediction, decompose_impulsive,
                              evolve_impulsive, predict_k_peaks)
from coldpa.potentials import CoupledSystem, PotentialCurve, PulseEnvelope
from coldpa.units import convert, ps2au

CM = 1.0 / 219474.6313705


@pytest.fixture(scope="module")
def analog():
    return reference_system()


@pytest.fixture(scope="module")
def box(analog):
    return build_uniform(2.0, 200.0, 1024, analog.mu)


def _hump(grid, center, width=6.0):
    return np.exp(-(((grid.r - center) / width) ** 2))


def _degenerate_system(w):
    kw = dict(de=300 * CM, re=6.0, a=0.7, cn=100 * CM, n=6, switch_radius=9.0)
    env = PulseEnvelope.from_ps([("const", 0.0, 10.0, 1.0, 1.0)])
    return CoupledSystem(ground=PotentialCurve(**kw),
                         excited=PotentialCurve(**kw),
                         coupling=w, mu=5000.0, envelope=env,
                         working_range=(1.0, 50.0))


# --- closed-form evolution -------------------------------------------------------

def test_pointwise_norm_is_conserved(analog, box):
    psi0 = gaussian(box, 100.0, 10.0).real
    psi0 = normalize(box, psi0)
    pred = evolve_impulsive(analog, box, psi0, e_g=1e-5, t=30.0 * ps2au)
    total = np.abs(pred.psi_g) ** 2 + pred.psi_e_density
    np.testing.assert_allclose(total, np.abs(psi0) ** 2, atol=1e-14)


def test_t_zero_is_identity(analog, box):
    psi0 = normalize(box, gaussian(box, 100.0, 10.0).real)
    pred = evolve_impulsive(analog, box, psi0, e_g=1e-5, t=0.0)
    np.testing.assert_allclose(pred.psi_g, psi0, atol=1e-14)
    assert np.max(pred.psi_e_density) == 0.0
    assert pred.t_ps == 0.0


def test_zero_coupling_is_a_global_phase(analog, box):
    dark = replace(analog, coupling=0.0)
    psi0 = normalize(box, gaussian(box, 100.0, 10.0).real)
    e_g, t = 2e-5, 12.0 * ps2au
    pred = evolve_impulsive(dark, box, psi0, e_g=e_g, t=t)
    np.testing.assert_allclose(pred.psi_g, np.exp(-1j * e_g * t) * psi0,
                               atol=1e-13)
    assert np.max(pred.psi_e_density) < 1e-30


def test_matches_local_two_level_rotation(analog, box):
    # outside the crossing each radius is an independent 2x2 problem in
    # (ground, excited) with Hamiltonian [[0, W], [W, gap]]
    psi0 = normalize(box, gaussian(box, 100.0, 10.0).real)
    t = 7.0 * ps2au
    pred = evolve_impulsive(analog, box, psi0, e_g=0.0, t=t)
    w = analog.coupling
    for r_probe in (45.0, 80.0, 150.0):
        i = int(np.argmin(np.abs(box.r - r_probe)))
        gap = float(analog.excited.value(box.r[i])
                    - analog.ground.value(box.r[i]))
        om = math.hypot(w, 0.5 * gap)
        a = (math.cos(om * t) + 1j * (0.5 * gap / om) * math.sin(om * t)) \
            * np.exp(-0.5j * gap * t)
        b2 = (w / om) ** 2 * math.sin(om * t) ** 2
        assert complex(pred.psi_g[i]) == pytest.approx(a * complex(psi0[i]),
                                                       abs=1e-12)
        assert float(pred.psi_e_density[i]) == pytest.approx(
            b2 * float(psi0[i]) ** 2, abs=1e-13)


def test_degenerate_channels_rejected():
    sys_ = _degenerate_system(w=0.0)
    grid = build_uniform(3.0, 12.0, 64, sys_.mu)
    psi0 = normalize(grid, gaussian(grid, 6.0, 0.5).real)
    with pytest.raises(DomainError):
        evolve_impulsive(sys_, grid, psi0, e_g=0.0, t=1.0)


# --- weak-coupling split -----------------------------------------------------------

def test_split_reproduces_closed_form_to_fourth_order(analog):
    grid = build_uniform(40.0, 200.0, 512, analog.mu)
    psi0 = normalize(grid, gaussian(grid, 120.0, 10.0).real)
    t = 20.0 * ps2au
    res = []
    for fac in (1.0, 0.5):
        sys_ = replace(analog, coupling=analog.coupling * fac)
        pred = evolve_impulsive(sys_, grid, psi0, e_g=0.0, t=t)
        p1, p2 = decompose_impulsive(sys_, grid, psi0, e_g=0.0, t=t)
        res.append(np.max(np.abs(pred.psi_g - p1 - p2)))
    assert res[0] / res[1] == pytest.approx(16.0, rel=0.15)


def test_split_pieces_have_expected_magnitudes(analog):
    grid = build_uniform(40.0, 200.0, 512, analog.mu)
    psi0 = normalize(grid, gaussian(grid, 120.0, 10.0).real)
    p1, p2 = decompose_impulsive(analog, grid, psi0, e_g=0.0, t=5.0 * ps2au)
    w = analog.coupling
    gap = analog.excited.value(grid.r) - analog.ground.value(grid.r)
    om = np.hypot(w, 0.5 * gap)
    np.testing.assert_allclose(np.abs(p1), 0.5 * (1 + 0.5 * gap / om)
                               * np.abs(psi0), atol=1e-13)
    np.testing.assert_allclose(np.abs(p2), w**2 / (4.0 * om * 0.5 * gap)
                               * np.abs(psi0), atol=1e-13)


def test_split_undefined_on_degenerate_channels():
    sys_ = _degenerate_system(w=13 * CM)
    grid = build_uniform(3.0, 12.0, 64, sys_.mu)
    psi0 = normalize(grid, gaussian(grid, 6.0, 0.5).real)
    with pytest.raises(DomainError):
        decompose_impulsive(sys_, grid, psi0, e_g=0.0, t=1.0)


# --- predicted momentum features ------------------------------------------------------

def test_three_humps_give_three_peaks(analog, box):
    psi0 = normalize(box, _hump(box, 60.0) + _hump(box, 100.0)
                     + 0.7 * _hump(box, 140.0))
    peaks = predict_k_peaks(analog, box, psi0)
    assert len(peaks) == 3
    np.testing.assert_allclose([p.r0 for p in peaks], [60.0, 100.0, 140.0],
                               atol=0.5)
    w = analog.coupling
    for p in peaks:
        gap = float(analog.excited.value(p.r0) - analog.ground.value(p.r0))
        e2 = gap + w**2 / gap
        assert p.e_two_level == pytest.approx(e2, rel=1e-12)
        assert p.k == pytest.approx(-math.sqrt(2.0 * analog.mu * e2),
                                    rel=1e-12)
        assert p.k < 0
        assert p.delta == pytest.approx(0.5 * gap, rel=1e-12)
        assert p.valid
        dgap = float(analog.excited.derivative(p.r0)
                     - analog.ground.derivative(p.r0))
        t_ref = abs(p.k) / abs(dgap * (1.0 - (w / gap) ** 2))
        assert p.t_match == pytest.approx(t_ref, rel=1e-12)
        assert p.t_match_ps == pytest.approx(t_ref / ps2au, rel=1e-12)
    # far-out feature approaches the asymptotic-gap momentum
    k_asym = math.sqrt(2.0 * analog.mu * (140.0 + 13.17**2 / 140.0) * CM)
    assert abs(peaks[-1].k) == pytest.approx(k_asym, abs=0.1)
    # amplitude factor grows toward the crossing
    af = [p.amplitude_factor for p in peaks]
    assert af[0] > af[1] > af[2] > 0.0


def test_peak_near_crossing_is_flagged(analog, box):
    psi0 = normalize(box, _hump(box, 33.0, 2.0) + _hump(box, 120.0))
    peaks = predict_k_peaks(analog, box, psi0)
    assert len(peaks) == 2
    assert not peaks[0].valid           # gap only ~1.6x the coupling there
    assert peaks[1].valid


def test_box_edge_lobe_is_dropped(analog, box):
    psi0 = normalize(box, _hump(box, 100.0) + _hump(box, 195.0, 3.0))
    peaks = predict_k_peaks(analog, box, psi0)
    assert [round(p.r0) for p in peaks] == [100]


def test_maxima_beyond_last_node_are_dropped(analog, box):
    psi0 = normalize(box, _hump(box, 60.0) + _hump(box, 100.0)
                     - _hump(box, 160.0))
    peaks = predict_k_peaks(analog, box, psi0)
    assert [round(p.r0) for p in peaks] == [60, 100]


def test_humps_inside_the_crossing_are_skipped(analog, box):
    psi0 = normalize(box, _hump(box, 20.0, 3.0) + _hump(box, 60.0))
    peaks = predict_k_peaks(analog, box, psi0)
    assert [round(p.r0) for p in peaks] == [60]


def test_prediction_momentum_spectrum(analog, box):
    psi0 = normalize(box, gaussian(box, 100.0, 10.0).real)
    pred = evolve_impulsive(analog, box, psi0, e_g=0.0, t=10.0 * ps2au)
    spec = pred.momentum()
    assert np.sum(spec.density()) * spec.dk == pytest.approx(
        float(np.sum(np.abs(pred.psi_g) ** 2 * box.w)), rel=1e-6)
    assert isinstance(pred, ImpulsivePrediction)
