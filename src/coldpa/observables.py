"""Analysis of propagated states: level populations, momentum peaks,
thermal averaging, and depletion holes in the pair density."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError, NumericsError
from .grids import _BLOCK, MomentumSpectrum, RadialGrid, ensure_same_grid
from .potentials import CoupledSystem
from .spectrum import LevelSet
from .units import convert, kb_hartree

RADIUS_CHECK_CM = 0.5       # gap residual radius_from_momentum allows, cm-1
RADIUS_XTOL = 1e-10        # bohr, bracket width radius_from_momentum ends at
HOLE_SUPPORT_FLOOR = 1e-3   # share of max rho below which detect_hole skips


def level_populations(grid: RadialGrid, amp: np.ndarray,
                      levels: LevelSet) -> np.ndarray:
    """|<v | amp>|^2 = |sum_i w_i psi_v(r_i) amp_i|^2 for every level in
    the set; ``amp`` holds psi values on ``grid``, complex or real."""
    ensure_same_grid(grid, levels.grid)
    amp = np.asarray(amp)
    if amp.shape != (grid.n,):
        raise GridMismatchError("channel amplitude length != grid size")
    return np.abs(levels.states.conj().T @ (grid.w * amp)) ** 2


# ---------------------------------------------------------------------------
# momentum-space peak finding and inversion back to radius

@dataclass(frozen=True)
class MomentumPeak:
    k: float          # a.u., signed
    height: float     # |amp|^2 at the maximum
    index: int


def find_momentum_peaks(spec: MomentumSpectrum, k_min: float = 0.0,
                        floor_sigmas: float = 5.0,
                        max_peaks: int = None) -> list[MomentumPeak]:
    """Interior local maxima of |amp(k)|^2 standing clear of the noise floor.

    The floor is median + floor_sigmas * MAD of the density, which ignores
    the peaks themselves as long as they are sparse. k_min drops the
    near-zero hump of the unmoved part of the wavepacket (set it to 0 to
    keep everything).
    """
    rho = spec.density()
    med = float(np.median(rho))
    mad = float(np.median(np.abs(rho - med)))
    floor = med + floor_sigmas * mad
    inner = np.arange(1, len(rho) - 1)
    up = rho[inner] > rho[inner - 1]
    down = rho[inner] >= rho[inner + 1]
    ok = up & down & (rho[inner] > floor)
    if k_min > 0.0:
        ok &= np.abs(spec.k[inner]) >= k_min
    idx = inner[ok]
    peaks = [MomentumPeak(float(spec.k[i]), float(rho[i]), int(i))
             for i in idx]
    peaks.sort(key=lambda p: -p.height)
    if max_peaks is not None:
        peaks = peaks[:max_peaks]
    return peaks


def momentum_at_radius(sys: CoupledSystem, r) -> np.ndarray:
    """Free momentum matching the local channel gap: k = sqrt(2 mu (Ve-Vg))."""
    r = np.asarray(r, dtype=float)
    gap = sys.excited.value(r) - sys.ground.value(r)
    if np.any(gap <= 0.0):
        raise DomainError("channel gap is not positive at the given radius")
    return np.sqrt(2.0 * sys.mu * gap)


def radius_from_momentum(sys: CoupledSystem, k, rc: float = None):
    """Invert k = sqrt(2 mu (Ve - Vg)) on the outer branch r > r_crossing.

    The gap grows monotonically toward its asymptotic value out there, so
    the root is unique when it exists. k is one momentum or an array of
    them; every one is inverted by the same vectorised bisection on the
    branch, a fixed number of halvings down to ``RADIUS_XTOL``, so each
    root depends on its own k alone. The radius is verified by a forward
    evaluation to within ``RADIUS_CHECK_CM`` wavenumbers. A scalar k
    returns a float, and raises DomainError when it maps outside the branch
    and NumericsError when the check fails; an array returns NaN for those
    entries. rc is the outermost crossing, located by ``find_crossing``
    when not given.
    """
    from .potentials import find_crossing

    ks = np.atleast_1d(np.asarray(k, dtype=float))
    e_target = ks ** 2 / (2.0 * sys.mu)
    if rc is None:
        rc = find_crossing(sys)
    lo, r_hi = rc * (1.0 + 1e-6), sys.working_range[1]

    def gap(r):
        return (sys.excited.value(r) - sys.ground.value(r)) - e_target

    a, b = np.full(ks.shape, lo), np.full(ks.shape, r_hi)
    inside = (gap(a) <= 0.0) & (gap(b) >= 0.0)
    for _ in range(math.ceil(math.log2((r_hi - lo) / RADIUS_XTOL))):
        mid = 0.5 * (a + b)
        above = gap(mid) > 0.0
        a, b = np.where(above, a, mid), np.where(above, mid, b)
    r = 0.5 * (a + b)
    err_cm = np.abs(convert(gap(r), "hartree", "cm-1"))
    checked = err_cm <= RADIUS_CHECK_CM
    if np.ndim(k):
        return np.where(inside & checked, r, np.nan)
    if not inside[0]:
        raise DomainError(
            f"momentum {float(k):.4f} maps outside the outer branch "
            f"({lo:.2f}, {r_hi:.2f})"
        )
    if not checked[0]:
        raise NumericsError(
            f"radius inversion check failed: residual {err_cm[0]:.3f} "
            f"exceeds {RADIUS_CHECK_CM} in wavenumbers"
        )
    return float(r[0])


# ---------------------------------------------------------------------------
# thermal averaging of a single boxed-continuum probability

@dataclass(frozen=True)
class ThermalYield:
    p_single: float       # probability out of one box-normalized state
    zp: float             # box-independent: p * kT / (dE/dn)
    z_translational: float
    p_thermal: float      # zp / Z
    n_molecules: float


def thermal_yield(p_single: float, temperature_k: float, de_dn: float,
                  mu: float, volume: float, n_atoms: float,
                  spin_factor: float = 0.75) -> ThermalYield:
    """Scale one stationary-state probability to a thermal pair ensemble.

    de_dn is the local continuum level spacing of the box used for the
    run (hartree per index); it cancels the box dependence of p_single.
    volume is the trap volume in bohr^3. The pair count is N(N-1)/2 ~ N^2/2
    and spin_factor keeps only collision channels that couple to the probe.
    """
    if p_single < 0.0 or temperature_k <= 0.0 or de_dn <= 0.0:
        raise DomainError("thermal chain needs p >= 0, T > 0, dE/dn > 0")
    if volume <= 0.0 or n_atoms <= 0.0:
        raise DomainError("volume and atom number must be positive")
    kt = kb_hartree * temperature_k
    zp = p_single * kt / de_dn
    z = (2.0 * math.pi * mu * kt) ** 1.5 * volume / (2.0 * math.pi) ** 3
    p_thermal = zp / z
    n_mol = 0.5 * n_atoms**2 * p_thermal * spin_factor
    return ThermalYield(p_single, zp, z, p_thermal, n_mol)


# ---------------------------------------------------------------------------
# depletion hole in the radial density

@dataclass(frozen=True)
class HoleReport:
    r_lo: float
    r_hi: float
    r_deepest: float
    depth: float          # 1 - min(rho_final / rho_initial) inside the hole


def _smooth_density(grid: RadialGrid, amp: np.ndarray,
                    width: float) -> np.ndarray:
    """Gaussian kernel average of |amp|^2, correct on nonuniform grids;
    each column of a 2-D amp is smoothed with the same kernel.

    Kernel entries beyond 40 widths, where exp(-800) underflows to 0, are
    skipped: each block of rows forms only the columns within 40 widths
    of it, so no n x n array is built.
    """
    rho = np.abs(amp) ** 2
    r = grid.r
    lo = np.searchsorted(r, r - 40.0 * width)
    hi = np.searchsorted(r, r + 40.0 * width, side="right")
    out = np.empty_like(rho)
    for i0 in range(0, grid.n, _BLOCK):
        rows = slice(i0, min(i0 + _BLOCK, grid.n))
        cols = slice(lo[i0], hi[rows.stop - 1])
        # one array per block, in place
        wk = np.subtract.outer(r[rows], r[cols])
        wk /= width
        wk *= wk
        wk *= -0.5
        np.exp(wk, out=wk)
        wk *= grid.w[cols]
        out[rows] = ((wk @ rho[cols]).T / np.sum(wk, axis=1)).T
    return out


def detect_hole(grid: RadialGrid, amp_before: np.ndarray,
                amp_after: np.ndarray, threshold: float = 0.5,
                smooth_width: float = 2.0) -> HoleReport:
    """Locate the widest contiguous dip where the smoothed density dropped
    below (1 - threshold) of its initial value.

    Oscillatory structure inside the packet is ironed out by a Gaussian
    kernel of smooth_width (bohr) before the ratio is taken; points where
    the initial density is below ``HOLE_SUPPORT_FLOOR`` of its own maximum
    carry no information and are skipped.
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError("threshold must sit strictly inside (0, 1)")
    if not 0.0 < smooth_width < np.inf:
        raise DomainError(f"smooth_width must be finite and positive, "
                          f"got {smooth_width}")
    rho_i, rho_f = _smooth_density(
        grid, np.column_stack([amp_before, amp_after]), smooth_width).T
    support = rho_i > HOLE_SUPPORT_FLOOR * rho_i.max()
    ratio = np.ones_like(rho_i)
    ratio[support] = rho_f[support] / rho_i[support]
    depleted = support & (ratio < 1.0 - threshold)
    if not np.any(depleted):
        raise DomainError(
            f"no region lost more than {100 * threshold:.0f} percent of "
            "its initial density"
        )
    # widest run of consecutive depleted points
    edges = np.flatnonzero(np.diff(depleted.astype(int)))
    starts = [0] if depleted[0] else []
    starts += [int(e) + 1 for e in edges if depleted[e + 1]]
    stops = [int(e) for e in edges if depleted[e]]
    if depleted[-1]:
        stops.append(len(depleted) - 1)
    spans = list(zip(starts, stops))
    i0, i1 = max(spans, key=lambda s: grid.r[s[1]] - grid.r[s[0]])
    inside = slice(i0, i1 + 1)
    j = i0 + int(np.argmin(ratio[inside]))
    return HoleReport(
        r_lo=float(grid.r[i0]), r_hi=float(grid.r[i1]),
        r_deepest=float(grid.r[j]), depth=float(1.0 - ratio[j]),
    )
