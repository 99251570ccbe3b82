"""Single-channel eigenproblems and characteristic-time formulas.

Levels are solved in the transformed (phi) representation where the grid
Hamiltonian is a plain symmetric matrix; returned wavefunctions are psi
values normalized against the grid quadrature weights, each with a fixed
sign, so a full and a windowed solve return the same columns. The
continuum start solves the window up to its upper neighbour, and the full
spectrum only where that window misses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import DomainError, ResolutionError
from .grids import RadialGrid, build_uniform, build_adaptive, kinetic_matrix
from .units import ps2au


def hamiltonian_matrix(curve, grid: RadialGrid) -> np.ndarray:
    """Dense channel Hamiltonian T + V in the phi representation."""
    h = kinetic_matrix(grid)
    v = np.asarray(curve(grid.r) if callable(curve) else curve, dtype=float)
    h[np.diag_indices_from(h)] += v
    return h


def _phi_to_psi(grid: RadialGrid, phi: np.ndarray) -> np.ndarray:
    # in place: eigh returns sum(phi^2) = 1; physical normalization is
    # sum w |psi|^2 = 1. LAPACK drivers disagree on column signs, so each
    # column is flipped to make its first component above 1e-3 max|phi|
    # positive.
    mag = np.abs(phi)
    lead = np.argmax(mag > 1e-3 * mag.max(axis=0), axis=0)
    phi *= np.sign(phi[lead, np.arange(phi.shape[1])])
    phi /= np.sqrt(grid.dx)
    phi /= np.sqrt(grid.jac)[:, None]
    return phi


def count_nodes(amp: np.ndarray, floor: float = 1e-8) -> int:
    """Interior sign changes, ignoring values below floor * max|amp|."""
    a = np.real(amp)
    keep = np.abs(a) > floor * np.max(np.abs(a))
    s = np.sign(a[keep])
    return int(np.sum(s[:-1] * s[1:] < 0))


@dataclass(frozen=True)
class LevelSet:
    """Eigenpairs of one channel on a grid, sorted by energy."""

    energies: np.ndarray          # hartree
    states: np.ndarray            # (n_grid, n_levels), psi values
    grid: RadialGrid
    asymptote: float
    first_index: int = 0          # index of energies[0] in the full spectrum

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    def bound(self) -> "LevelSet":
        m = self.energies < self.asymptote
        return LevelSet(self.energies[m], self.states[:, m], self.grid,
                        self.asymptote, self.first_index)

    def state(self, v: int) -> np.ndarray:
        return self.states[:, v]

    def rotational_constant(self, v: int) -> float:
        """<1 / (2 mu R^2)> for level v, hartree."""
        psi2 = np.abs(self.states[:, v]) ** 2 * self.grid.w
        return float(np.sum(psi2 / (2.0 * self.grid.mu * self.grid.r**2)))


def solve_levels(curve, grid: RadialGrid, window=None,
                 verify_resolution: bool = False,
                 drift_tol: float = 1e-6) -> LevelSet:
    """Eigenpairs of T + V on the grid from one ``eigh`` call, optionally
    restricted to the energy window (lo, hi] (hartree).

    Without a window the full spectrum is returned. With one, ``eigh``
    solves only up to hi, the levels at or below lo are dropped, and
    ``first_index`` counts them; lo may be ``-inf``, so
    ``window=(-np.inf, asymptote)`` gives the bound levels alone.

    Parameters
    ----------
    verify_resolution : bool
        Re-solve on a doubled grid and require relative eigenvalue drift
        below ``drift_tol`` for the returned levels.

    Raises
    ------
    ResolutionError
        If verification finds drift above tolerance.
    """
    h = hamiltonian_matrix(curve, grid)
    if window is not None:
        lo, hi = window
        if not lo < hi:
            raise DomainError(f"bad energy window [{lo}, {hi}]")
        evals, phi = eigh(h, subset_by_value=(-np.inf, hi))
        first = int(np.searchsorted(evals, lo, side="right"))
        evals, phi = evals[first:], phi[:, first:]
    else:
        evals, phi = eigh(h)
        first = 0
    asym = float(curve.asymptote) if hasattr(curve, "asymptote") else 0.0
    levels = LevelSet(evals, _phi_to_psi(grid, phi), grid, asym, first)
    if verify_resolution:
        fine = _refined(grid)
        h2 = hamiltonian_matrix(curve, fine)
        evals2 = eigh(h2, eigvals_only=True)
        if window is not None:
            check = evals
            ref_lo = int(np.searchsorted(evals2, window[0]))
        else:
            # without a window only the bound levels are meaningful to check
            check = evals[evals < asym]
            ref_lo = 0
        ref = evals2[ref_lo:ref_lo + len(check)]
        if len(ref) < len(check):
            raise ResolutionError("refined grid lost levels; box too small")
        scale = np.maximum(np.abs(check), 1e-12)
        drift = np.abs(check - ref) / scale
        if len(drift) and np.max(drift) > drift_tol:
            worst = int(np.argmax(drift))
            raise ResolutionError(
                f"eigenvalue {first + worst} drifts by {drift[worst]:.2e} "
                f"(> {drift_tol:.0e}) under grid doubling; refine the grid"
            )
    return levels


def _refined(grid: RadialGrid) -> RadialGrid:
    if grid.kind == "uniform":
        return build_uniform(grid.r_lo, grid.r_hi, 2 * grid.n, grid.mu)
    # reuse the mapping profile (x in [0, 1], so not for uniform grids):
    # doubling n halves every local spacing
    jac_mid = 0.5 * (grid.jac_full[:-1] + grid.jac_full[1:])
    n2 = 2 * grid.n + 1
    dx2 = 1.0 / (n2 + 1)
    jac2 = np.empty(n2)
    jac2[0::2] = jac_mid
    jac2[1::2] = grid.jac
    x_old = np.concatenate([[0.0], np.arange(1, grid.n + 1) * grid.dx, [1.0]])
    r_old = np.concatenate([[grid.r_lo], grid.r, [grid.r_hi]])
    from scipy.interpolate import PchipInterpolator
    r2 = PchipInterpolator(x_old, r_old)(np.arange(1, n2 + 1) * dx2)
    jf2 = np.concatenate([[grid.jac_full[0]], jac2, [grid.jac_full[-1]]])
    return RadialGrid(r=r2, w=jac2 * dx2, r_lo=grid.r_lo, r_hi=grid.r_hi,
                      mu=grid.mu, kind="adaptive", dx=dx2,
                      kx=np.pi * np.arange(1, n2 + 1), jac=jac2, jac_full=jf2)


@dataclass(frozen=True)
class ContinuumRef:
    """Box-normalized continuum state nearest a target energy."""

    energy: float            # absolute, hartree
    e_above: float           # energy above the channel asymptote
    index: int               # 1-based position in the full box spectrum
    de_dn: float             # local level spacing dE/dn, hartree
    state: np.ndarray        # psi values, unit norm on the grid
    grid: RadialGrid


def continuum_state(curve, grid: RadialGrid, e_target: float) -> ContinuumRef:
    """Box eigenstate nearest e_target above the channel asymptote, in at
    most two eigensolves.

    e_target is measured absolutely (same origin as the curve). The first
    ``solve_levels`` window tops out 4 free-box spacings pi / L above the
    target's wavenumber; where levels are sparser than the free box's
    (near threshold, or near the grid's top) and that window misses the
    upper neighbour, the full spectrum is solved instead. dE/dn is the
    centered difference over the neighboring box levels. The state is a
    copy of its column.
    """
    asym = float(getattr(curve, "asymptote", 0.0))
    k_hi = (math.sqrt(2.0 * grid.mu * max(e_target - asym, 0.0))
            + 4 * np.pi / (grid.r_hi - grid.r_lo))
    for window in ((-np.inf, asym + k_hi**2 / (2 * grid.mu)), None):
        levels = solve_levels(curve, grid, window=window)
        evals = levels.energies
        above = np.nonzero(evals > asym)[0]
        j = (above[np.argmin(np.abs(evals[above] - e_target))]
             if len(above) else -1)
        if len(evals) == grid.n or 0 <= j < len(evals) - 1:
            break
    # the window holds every bound level, since its top is above asym
    if grid.n - (len(evals) - len(above)) < 3:
        raise ResolutionError(
            "fewer than three box levels above threshold; enlarge the box"
        )
    if j == 0 or j == len(evals) - 1:
        raise ResolutionError("target level sits at the spectrum edge")
    de_dn = 0.5 * (evals[j + 1] - evals[j - 1])
    return ContinuumRef(
        energy=float(evals[j]), e_above=float(evals[j] - asym),
        index=int(j + 1), de_dn=float(de_dn),
        state=levels.states[:, j].copy(), grid=grid,
    )


# characteristic times (all return atomic units) ------------------------------

def beat_period(e_e: float, e_g: float, overlap: float,
                coupling: float) -> float:
    """Two-level population-beat period pi / Omega with
    Omega = sqrt((W * overlap)^2 + ((E_e - E_g)/2)^2), hbar = 1."""
    omega = math.hypot(coupling * overlap, 0.5 * (e_e - e_g))
    if omega == 0.0:
        raise DomainError("degenerate uncoupled pair has no beat")
    return math.pi / omega


def vibrational_period(energies: np.ndarray, v: int) -> float:
    """Classical-like period 2 pi / (E_{v+1} - E_v) around level v."""
    if not 0 <= v < len(energies) - 1:
        raise DomainError(f"level {v} has no upper neighbor")
    gap = abs(energies[v + 1] - energies[v])
    if gap == 0.0:
        raise DomainError("degenerate levels")
    return 2.0 * math.pi / gap


def adiabatic_period(delta_e: float) -> float:
    """Oscillation period 2 pi / |delta_e| of a two-state superposition."""
    if delta_e == 0.0:
        raise DomainError("degenerate levels")
    return 2.0 * math.pi / abs(delta_e)


def franck_condon(grid: RadialGrid, bra: np.ndarray, ket: np.ndarray) -> float:
    """Real overlap integral between two real level functions."""
    return float(np.sum(np.real(np.conj(bra) * ket) * grid.w))
