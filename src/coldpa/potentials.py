"""Channel potentials, pulse envelope, and the dressed two-channel system.

Curves are analytic: a Morse well at short range joined to an attractive
power-law tail by a C^1 smoothstep. The excited channel is taken in the
rotating frame, shifted by the photon energy, so the two curves cross at
finite distance for red detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .errors import CalibrationError, DomainError, RangeError
from .units import hartree2cm, ps2au


@dataclass(frozen=True)
class PotentialCurve:
    """Morse short range blended into ``asymptote - cn / R**n``.

    Parameters are in atomic units. The blend window defaults to
    ``[0.8, 1.2] * switch_radius``.
    """

    de: float                 # well depth, hartree
    re: float                 # well minimum, bohr
    a: float                  # Morse stiffness, 1/bohr
    cn: float                 # long-range coefficient, hartree * bohr^n
    n: int                    # long-range power
    asymptote: float = 0.0    # dissociation limit, hartree
    switch_radius: float = 0.0
    switch_lo: float | None = None
    switch_hi: float | None = None
    name: str = field(default="", compare=False)   # channel, for messages

    def __post_init__(self):
        if self.de <= 0 or self.re <= 0 or self.a <= 0:
            raise DomainError("Morse parameters de, re, a must be positive")
        if self.cn < 0 or self.n < 1:
            raise DomainError("long-range tail needs cn >= 0 and n >= 1")
        sr = self.switch_radius if self.switch_radius > 0 else 1.25 * self.re
        lo = self.switch_lo if self.switch_lo is not None else 0.8 * sr
        hi = self.switch_hi if self.switch_hi is not None else 1.2 * sr
        if not 0 < lo < hi:
            raise DomainError(f"bad switch window [{lo}, {hi}]")
        object.__setattr__(self, "switch_radius", sr)
        object.__setattr__(self, "switch_lo", lo)
        object.__setattr__(self, "switch_hi", hi)

    # branches
    def _morse(self, r):
        g = 1.0 - np.exp(-self.a * (r - self.re))
        return self.asymptote + self.de * (g * g - 1.0)

    def _tail(self, r):
        return self.asymptote - self.cn / r**self.n

    def _blend(self, r):
        u = (r - self.switch_lo) / (self.switch_hi - self.switch_lo)
        u = np.clip(u, 0.0, 1.0)
        return u * u * (3.0 - 2.0 * u)

    def value(self, r):
        """Potential at r (bohr); r may be an array. Raises for r <= 0."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise DomainError("potential evaluated at r <= 0")
        s = self._blend(r)
        return (1.0 - s) * self._morse(r) + s * self._tail(r)

    def derivative(self, r):
        """dV/dR at r (bohr)."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise DomainError("potential evaluated at r <= 0")
        e = np.exp(-self.a * (r - self.re))
        dmorse = 2.0 * self.de * self.a * e * (1.0 - e)
        dtail = self.n * self.cn / r ** (self.n + 1)
        s = self._blend(r)
        u = (r - self.switch_lo) / (self.switch_hi - self.switch_lo)
        inside = (u > 0) & (u < 1)
        ds = np.where(inside, 6.0 * u * (1.0 - u), 0.0)
        ds = ds / (self.switch_hi - self.switch_lo)
        return (1.0 - s) * dmorse + s * dtail + ds * (self._tail(r) - self._morse(r))

    __call__ = value


# pulse envelope -------------------------------------------------------------

_SHAPES = ("sin2", "linear", "const")


@dataclass(frozen=True)
class Segment:
    shape: str
    t0: float        # a.u.
    t1: float
    f0: float
    f1: float

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise DomainError(f"unknown segment shape {self.shape!r}")
        if not self.t1 > self.t0:
            raise DomainError("segment must have t1 > t0")
        for f in (self.f0, self.f1):
            if not 0.0 <= f <= 1.0:
                raise DomainError(f"envelope value {f} outside [0, 1]")
        if self.shape == "const" and self.f0 != self.f1:
            raise DomainError("const segment needs f0 == f1")

    def value(self, t):
        u = (np.asarray(t, dtype=float) - self.t0) / (self.t1 - self.t0)
        u = np.clip(u, 0.0, 1.0)
        if self.shape == "const":
            return np.full_like(u, self.f0)
        if self.shape == "linear":
            w = u
        else:
            w = np.sin(0.5 * np.pi * u) ** 2
        return self.f0 + (self.f1 - self.f0) * w


@dataclass(frozen=True)
class PulseEnvelope:
    """Piecewise envelope f(t) in [0, 1]; times in atomic units."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise DomainError("envelope needs at least one segment")
        prev = None
        for seg in self.segments:
            if prev is not None:
                if not math.isclose(seg.t0, prev.t1, rel_tol=0, abs_tol=1e-9):
                    raise DomainError("envelope segments must be contiguous")
                if abs(seg.f0 - prev.f1) > 1e-12:
                    raise DomainError("envelope must be continuous at joints")
            prev = seg

    @classmethod
    def from_ps(cls, spec: list[tuple[str, float, float, float, float]]):
        """Build from (shape, t0_ps, t1_ps, f0, f1) tuples."""
        segs = tuple(
            Segment(shape, t0 * ps2au, t1 * ps2au, f0, f1)
            for shape, t0, t1, f0, f1 in spec
        )
        return cls(segs)

    @classmethod
    def default(cls, rise_ps=100.0, flat_until_ps=295.0, off_ps=310.0,
                end_ps=395.0):
        """sin^2 rise, flat top, sin^2 fall, then off until end_ps."""
        spec = [
            ("sin2", 0.0, rise_ps, 0.0, 1.0),
            ("const", rise_ps, flat_until_ps, 1.0, 1.0),
            ("sin2", flat_until_ps, off_ps, 1.0, 0.0),
        ]
        if end_ps > off_ps:
            spec.append(("const", off_ps, end_ps, 0.0, 0.0))
        return cls.from_ps(spec)

    def value(self, t):
        """Envelope at time t (a.u.); zero outside the defined span."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for seg in self.segments:
            m = (t >= seg.t0) & (t <= seg.t1)
            if np.any(m):
                out = np.where(m, seg.value(t), out)
        return out if out.ndim else float(out)

    __call__ = value

    @property
    def t_end(self) -> float:
        return self.segments[-1].t1

    @property
    def flat_value(self) -> float:
        """Largest envelope value attained (segment endpoints suffice)."""
        return max(max(s.f0, s.f1) for s in self.segments)

    def flat_top_window(self) -> tuple[float, float] | None:
        """(t0, t1) of the first const segment at the peak value, if any."""
        for s in self.segments:
            if s.shape == "const" and s.f0 == self.flat_value:
                return (s.t0, s.t1)
        return None


# two-channel system ---------------------------------------------------------

@dataclass(frozen=True)
class CoupledSystem:
    """Dressed ground/excited pair with a pulsed radiative coupling.

    ``coupling`` is the peak half-Rabi energy W (hartree, >= 0); the
    instantaneous coupling is W * f(t). ``working_range`` bounds where
    local quantities may be evaluated.
    """

    ground: PotentialCurve
    excited: PotentialCurve
    coupling: float
    mu: float
    envelope: PulseEnvelope = field(default_factory=PulseEnvelope.default)
    working_range: tuple[float, float] = (1.0, 1000.0)

    def __post_init__(self):
        if self.coupling < 0:
            raise DomainError("coupling must be >= 0")
        if self.mu <= 0:
            raise DomainError("reduced mass must be positive")
        lo, hi = self.working_range
        if not 0 < lo < hi:
            raise DomainError(f"bad working range [{lo}, {hi}]")

    def _check_range(self, r):
        lo, hi = self.working_range
        r = np.asarray(r, dtype=float)
        if np.any((r < lo) | (r > hi)):
            raise RangeError(
                f"r outside working range [{lo}, {hi}] bohr"
            )
        return r


@dataclass(frozen=True)
class AdiabaticPair:
    """Field-dressed eigenvalues and mixing angle at fixed r."""

    lower: np.ndarray
    upper: np.ndarray
    theta: np.ndarray     # tan(2 theta) = W f / Delta_signed


def local_detuning(sys: CoupledSystem, r):
    """Half the channel gap |V_e - V_g| / 2 in hartree."""
    r = sys._check_range(r)
    return 0.5 * np.abs(sys.excited.value(r) - sys.ground.value(r))


def adiabatic_potentials(sys: CoupledSystem, r, f: float = None) -> AdiabaticPair:
    """Light-induced potentials mean(Vg, Ve) -/+ sqrt(Delta^2 + (W f)^2).

    The mixing angle follows tan(2 theta) = W f / Delta with
    Delta = (V_e - V_g)/2 signed, so theta -> 0 where the excited channel
    lies far above, pi/4 at the crossing, pi/2 past it.
    """
    r = sys._check_range(r)
    if f is None:
        f = sys.envelope.flat_value
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"envelope value {f} outside [0, 1]")
    vg = sys.ground.value(r)
    ve = sys.excited.value(r)
    mean = 0.5 * (vg + ve)
    delta = 0.5 * (ve - vg)
    w = sys.coupling * f
    root = np.hypot(delta, w)
    theta = 0.5 * np.arctan2(w, delta)
    return AdiabaticPair(lower=mean - root, upper=mean + root, theta=theta)


def rabi_period(coupling: float, detuning: float) -> float:
    """Population-cycling period pi / sqrt(W^2 + Delta^2) in a.u. (hbar = 1)."""
    root = math.hypot(coupling, detuning)
    if root == 0.0:
        raise DomainError("coupling and detuning both zero: no cycling")
    return math.pi / root


def local_rabi_period(sys: CoupledSystem, r, f: float = None):
    """Cycling period at r; f defaults to the envelope flat-top value."""
    if f is None:
        f = sys.envelope.flat_value
    d = local_detuning(sys, r)
    w = sys.coupling * f
    root = np.hypot(w, d)
    if np.any(root == 0.0):
        raise DomainError("coupling and detuning both zero: no cycling")
    return np.pi / root


def find_crossing(sys: CoupledSystem, n_scan: int = 4096) -> float:
    """Locate the outermost dressed-curve crossing inside the working range.

    Deep wells typically tangle at short range and cross several times;
    the crossing that matters for the radiative coupling is the outermost
    one, on the long-range tails, past which the gap grows monotonically
    to its asymptotic value. Scans V_e - V_g for sign changes, takes the
    last, then refines by bisection until the gap magnitude is below
    1e-12 hartree.
    """
    lo, hi = sys.working_range
    r = np.geomspace(lo, hi, n_scan)
    diff = sys.excited.value(r) - sys.ground.value(r)
    sign = np.sign(diff)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) == 0:
        raise CalibrationError(
            f"no crossing of the dressed curves in [{lo}, {hi}] bohr"
        )
    i = idx[-1]
    g = lambda x: float(sys.excited.value(x) - sys.ground.value(x))
    rc = brentq(g, r[i], r[i + 1], xtol=1e-13, rtol=8.9e-16)
    if abs(g(rc)) > 1e-12:
        raise CalibrationError(
            f"crossing refinement stalled: |gap| = {abs(g(rc)):.2e} hartree"
        )
    return rc


def calibrate_crossing(sys: CoupledSystem, target_rc: float,
                       tol: float = 1e-3):
    """Retune the excited tail coefficient so the crossing sits at target_rc.

    Holds every other parameter fixed. Returns (system, r_c, v_c) with the
    refit system, the verified crossing position, and the potential there.

    Raises
    ------
    CalibrationError
        If the target lies where the tail has no influence, the implied
        coefficient is non-positive, or verification misses the target.
    """
    lo, hi = sys.working_range
    if not lo < target_rc < hi:
        raise RangeError(f"target r_c {target_rc} outside [{lo}, {hi}] bohr")
    exc = sys.excited
    s = float(exc._blend(np.asarray(target_rc)))
    if s <= 0.0:
        raise CalibrationError(
            "target crossing sits inside the Morse region of the excited "
            "curve where the tail coefficient has no effect"
        )
    # V_e(rc) is linear in cn: (1-s) morse + s (asym - cn/rc^n)
    vg = float(sys.ground.value(target_rc))
    morse = float(exc._morse(np.asarray(target_rc)))
    cn = (((1.0 - s) * morse + s * exc.asymptote) - vg) * target_rc**exc.n / s
    if cn <= 0.0:
        raise CalibrationError(
            f"calibration needs cn = {cn:.3e} <= 0: curves cannot cross "
            f"at {target_rc} bohr with these asymptotes"
        )
    new_sys = replace(sys, excited=replace(exc, cn=cn))
    rc = find_crossing(new_sys)
    if abs(rc - target_rc) > tol:
        raise CalibrationError(
            f"calibrated crossing at {rc:.6f} bohr misses target "
            f"{target_rc} by more than {tol} bohr"
        )
    vc = float(new_sys.ground.value(rc))
    return new_sys, rc, vc


def reference_system(box_hi: float = 200.0,
                        delta_l_cm: float = 140.0,
                        coupling_cm: float = 13.17,
                        target_rc: float = 29.3,
                        mu: float = None,
                        envelope: PulseEnvelope = None) -> CoupledSystem:
    """Calibrated heavy-alkali-like demonstration system.

    Ground channel: shallow triplet-like Morse with a -C6/R^6 tail, dressed
    asymptote at -delta_L. Excited channel: Morse with a -C3/R^3 tail whose
    coefficient is calibrated so the dressed curves cross at ``target_rc``.
    """
    from .units import mu_cs2

    if mu is None:
        mu = mu_cs2
    if envelope is None:
        envelope = PulseEnvelope.default()
    dl = delta_l_cm / hartree2cm
    ground = PotentialCurve(
        de=279.0 / hartree2cm, re=12.0, a=0.35,
        cn=6890.0, n=6, asymptote=-dl, switch_radius=16.0, name="ground",
    )
    excited = PotentialCurve(
        de=400.0 / hartree2cm, re=10.0, a=0.45,
        cn=10.0, n=3, asymptote=0.0, switch_radius=14.0, name="excited",
    )
    sys = CoupledSystem(
        ground=ground, excited=excited,
        coupling=coupling_cm / hartree2cm, mu=mu,
        envelope=envelope, working_range=(2.0, max(box_hi, 100.0) * 5.0),
    )
    sys, _, _ = calibrate_crossing(sys, target_rc)
    return sys
