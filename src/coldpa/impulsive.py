"""Frozen-nuclei (impulsive) limit of the two-channel dynamics.

Every radius evolves as an independent two-level system driven at the
local detuning, which gives a closed form for the ground-channel
amplitude and the excited-channel density. Expanding that closed form for
weak coupling (local gap much larger than W) splits it into a quasi-free
part and a small counter-rotating part; the counter-rotating part carries
the high-momentum content, with one predicted momentum per envelope
maximum of the initial wavefunction.

The analysis on this limit linearizes the local gap around each maximum,
so the momentum feature drifts linearly in time and sits at its nominal
value k = sqrt(2 mu E2) exactly when t equals the classical fall time
|k| / |dE2/dR|; that coincidence time is reported per peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import MomentumSpectrum, RadialGrid, to_momentum
from .observables import _smooth_density
from .potentials import CoupledSystem
from .units import ps2au

PEAK_SMOOTH_WIDTH = 2.0   # bohr, of the envelope kernel in predict_k_peaks


@dataclass(frozen=True)
class PredictedPeak:
    """One momentum feature tied to an envelope maximum at r0."""

    r0: float                 # bohr
    k: float                  # a.u., ingoing sign (negative)
    amplitude_factor: float   # W^2 / (4 hbar Omega Delta) at r0
    e_two_level: float        # hartree: 2 Delta + W^2 / (2 Delta)
    delta: float              # hartree, half gap at r0
    t_match: float            # a.u.; drifting feature crosses k here
    valid: bool               # local gap dominates the coupling (>= 3x)

    @property
    def t_match_ps(self) -> float:
        return self.t_match / ps2au


@dataclass(frozen=True)
class ImpulsivePrediction:
    grid: RadialGrid
    t: float                      # a.u.
    e_g: float                    # hartree, energy of the initial state
    psi_g: np.ndarray             # complex ground-channel amplitude
    psi_e_density: np.ndarray

    @property
    def t_ps(self) -> float:
        return self.t / ps2au

    def momentum(self) -> MomentumSpectrum:
        return to_momentum(self.grid, self.psi_g)


def _local_two_level(sys: CoupledSystem, r: np.ndarray, f: float):
    """(delta, omega, cos_theta) arrays; delta = |Ve - Vg| / 2 >= 0."""
    delta = 0.5 * np.abs(sys.excited.value(r) - sys.ground.value(r))
    w = sys.coupling * f
    omega = np.hypot(w, delta)
    if np.any(omega == 0.0):
        raise DomainError("coupling and gap both vanish somewhere on the grid")
    return delta, omega, delta / omega


def evolve_impulsive(sys: CoupledSystem, grid: RadialGrid,
                     psi0: np.ndarray, e_g: float, t: float,
                     f: float = None) -> ImpulsivePrediction:
    """Closed-form frozen-nuclei state at time t (a.u.).

    psi0 must be a stationary state of the bare ground channel with
    energy e_g (hartree); its phase evolution enters only as the global
    factor exp(-i e_g t). The momentum features do not depend on t, so
    the result carries none: call ``predict_k_peaks`` once per psi0.
    """
    if f is None:
        f = sys.envelope.flat_value
    delta, omega, cos_th = _local_two_level(sys, grid.r, f)
    rot = np.cos(omega * t) + 1j * cos_th * np.sin(omega * t)
    psi_g = np.exp(-1j * e_g * t) * np.exp(-1j * delta * t) * rot * psi0
    sin_th2 = 1.0 - cos_th**2
    psi_e_density = sin_th2 * np.sin(omega * t) ** 2 * np.abs(psi0) ** 2
    return ImpulsivePrediction(grid=grid, t=t, e_g=e_g, psi_g=psi_g,
                               psi_e_density=psi_e_density)


def decompose_impulsive(sys: CoupledSystem, grid: RadialGrid,
                        psi0: np.ndarray, e_g: float, t: float,
                        f: float = None):
    """Weak-coupling split (psi_1, psi_2) of the frozen-nuclei amplitude.

    psi_1 is quasi-free evolution with a light shift; psi_2 is the small
    counter-rotating piece oscillating at the two-level energy
    2 Delta + W^2/(2 Delta). Their sum reproduces the closed form up to
    O((W/Delta)^4) where the gap dominates.
    """
    if f is None:
        f = sys.envelope.flat_value
    delta, omega, _ = _local_two_level(sys, grid.r, f)
    if np.any(delta == 0.0):
        raise DomainError("weak-coupling split undefined at a crossing")
    w = sys.coupling * f
    shift = w**2 / (2.0 * delta)
    free = np.exp(-1j * e_g * t) * psi0
    psi_1 = 0.5 * (1.0 + delta / omega) * np.exp(1j * shift * t) * free
    psi_2 = (w**2 / (4.0 * omega * delta)
             * np.exp(-1j * (2.0 * delta + shift) * t) * free)
    return psi_1, psi_2


def _envelope_maxima(grid: RadialGrid, psi0: np.ndarray,
                     env: np.ndarray) -> list[int]:
    """Grid indices of the maxima of env, the smoothed envelope of psi0."""
    inner = np.arange(1, grid.n - 1)
    is_max = (env[inner] > env[inner - 1]) & (env[inner] >= env[inner + 1])
    is_max &= env[inner] > 1e-6 * env.max()
    idx = list(inner[is_max])

    # the lobe squeezed against the outer box wall is a box artifact:
    # drop maxima beyond the last interior node of the wavefunction
    re = np.real(psi0)
    if np.max(np.abs(np.imag(psi0))) < 1e-8 * np.max(np.abs(re)):
        sign = np.sign(re)
        flips = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        if len(flips):
            r_last_node = grid.r[flips[-1]]
            idx = [i for i in idx if grid.r[i] <= r_last_node]
    # and anything hugging the edge closer than the smoothing scale
    idx = [i for i in idx if grid.r[i] < grid.r_hi - 3.0 * PEAK_SMOOTH_WIDTH]
    return idx


def predict_k_peaks(sys: CoupledSystem, grid: RadialGrid, psi0: np.ndarray,
                    f: float = None) -> list[PredictedPeak]:
    """Momentum features expected from the envelope maxima of psi0,
    smoothed by a Gaussian kernel ``PEAK_SMOOTH_WIDTH`` bohr wide.

    Each maximum at r0 contributes an ingoing plane wave of energy
    E2 = 2 Delta(r0) + W^2 / (2 Delta(r0)) and momentum
    k = -sqrt(2 mu E2); reflection off the inner wall later produces the
    +|k| partner. Maxima where the gap fails to dominate the coupling by
    a factor 3 are kept but flagged invalid.
    """
    if f is None:
        f = sys.envelope.flat_value
    w = sys.coupling * f
    env = np.sqrt(_smooth_density(grid, psi0, PEAK_SMOOTH_WIDTH))
    peaks = []
    for i in _envelope_maxima(grid, psi0, env):
        # parabolic refinement of the maximum position
        r3 = grid.r[i - 1:i + 2]
        e3 = env[i - 1:i + 2]
        denom = (e3[0] - 2.0 * e3[1] + e3[2])
        if denom < 0.0:
            # vertex of the parabola through the three points
            h1, h2 = r3[1] - r3[0], r3[2] - r3[1]
            num = h1**2 * (e3[1] - e3[2]) - h2**2 * (e3[1] - e3[0])
            den = h1 * (e3[1] - e3[2]) + h2 * (e3[1] - e3[0])
            r0 = float(r3[1] + 0.5 * num / den) if den != 0.0 else float(r3[1])
        else:
            r0 = float(r3[1])
        gap = float(sys.excited.value(r0) - sys.ground.value(r0))
        if gap <= 0.0:
            continue      # inside the crossing: no outer-branch feature
        delta = 0.5 * gap
        omega = math.hypot(w, delta)
        e_two = gap + (w**2 / gap if w > 0.0 else 0.0)
        k_mag = math.sqrt(2.0 * sys.mu * e_two)
        dgap = float(sys.excited.derivative(r0) - sys.ground.derivative(r0))
        de_dr = dgap * (1.0 - (w / gap) ** 2) if w > 0.0 else dgap
        t_match = k_mag / abs(de_dr) if de_dr != 0.0 else math.inf
        peaks.append(PredictedPeak(
            r0=r0, k=-k_mag,
            amplitude_factor=w**2 / (4.0 * omega * delta) if w > 0.0 else 0.0,
            e_two_level=e_two, delta=delta, t_match=t_match,
            valid=delta >= 3.0 * w,
        ))
    peaks.sort(key=lambda p: p.r0)
    return peaks
