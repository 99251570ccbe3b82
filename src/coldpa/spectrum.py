"""Single-channel eigenproblems and characteristic-time formulas.

Levels are solved in the transformed (phi) representation where the grid
Hamiltonian is a plain symmetric matrix; returned wavefunctions are psi
values normalized against the grid quadrature weights, each with a fixed
sign, so a full and a windowed solve return the same columns. Every
dense solve works on H in place, through the Fortran view of the
C-ordered matrix, and holds at most two n x n arrays: H and LAPACK's
eigenvectors. The bound-level populations of an amplitude take no
eigenvector on the grid: one in-place tridiagonal reduction, its
reflectors applied to the amplitude, and the tridiagonal eigenpairs.
The continuum start takes no full eigensolve: shift-invert Lanczos at
the target energy on one in-place LDL^T factorization, whose inertia
gives the level's place in the box spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dsytrd, dsytrf, dsytrs
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import (DomainError, GridMismatchError, NumericsError,
                     ResolutionError)
from .grids import (_BLOCK, RadialGrid, build_uniform, build_adaptive,
                    kinetic_matrix, mirror_upper)
from .units import ps2au


def hamiltonian_matrix(curve, grid: RadialGrid) -> np.ndarray:
    """Dense channel Hamiltonian T + V in the phi representation, C-ordered
    (:func:`~coldpa.grids.kinetic_matrix`), so its Fortran view ``h.T``
    is what LAPACK overwrites in place.

    The eigensolves skip LAPACK's finiteness scan, so a potential that is
    not finite at a node is refused here.

    Raises
    ------
    DomainError
        If the potential is NaN or infinite at a node; the message names
        the channel (the curve's ``name``) and the first such r.
    """
    v = np.asarray(curve(grid.r) if callable(curve) else curve, dtype=float)
    bad = ~np.isfinite(v)
    if bad.any():
        i = int(np.argmax(bad))
        label = getattr(curve, "name", "") or "channel"
        raise DomainError(f"{label} potential is {v[i]} at r = "
                          f"{float(grid.r[i])!r} bohr (node {i})")
    h = kinetic_matrix(grid)
    h[np.diag_indices_from(h)] += v
    return h


def _phi_to_psi(grid: RadialGrid, phi: np.ndarray) -> np.ndarray:
    # in place and in column blocks: eigh returns sum(phi^2) = 1; physical
    # normalization is sum w |psi|^2 = 1. LAPACK drivers disagree on
    # column signs, so each column is flipped to make its first component
    # above 1e-3 max|phi| positive.
    sqrt_dx, sqrt_j = np.sqrt(grid.dx), np.sqrt(grid.jac)[:, None]
    for j0 in range(0, phi.shape[1], _BLOCK):
        blk = phi[:, j0:j0 + _BLOCK]
        mag = np.abs(blk)
        lead = np.argmax(mag > 1e-3 * mag.max(axis=0), axis=0)
        blk *= np.sign(blk[lead, np.arange(blk.shape[1])])
        blk /= sqrt_dx
        blk /= sqrt_j
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

    def rotational_constants(self) -> np.ndarray:
        """<1 / (2 mu R^2)> for every level, hartree, in one pass over
        the states in column blocks."""
        q = self.grid.w / (2.0 * self.grid.mu * self.grid.r**2)
        out = np.empty(self.n_levels)
        for j0 in range(0, self.n_levels, _BLOCK):
            blk = self.states[:, j0:j0 + _BLOCK]
            out[j0:j0 + _BLOCK] = q @ np.abs(blk) ** 2
        return out


def solve_levels(curve, grid: RadialGrid, window=None,
                 verify_resolution: bool = False,
                 drift_tol: float = 1e-6) -> LevelSet:
    """Eigenpairs of T + V on the grid from one ``eigh`` call, optionally
    restricted to the energy window (lo, hi] (hartree).

    Without a window the full spectrum is returned. With one, ``eigh``
    solves only up to hi, the levels at or below lo are dropped, and
    ``first_index`` counts them; lo may be ``-inf``, so
    ``window=(-np.inf, asymptote)`` gives the bound levels alone.

    ``eigh`` overwrites H in place, and H is dropped before the states
    are signed and scaled, so the solve holds at most two n x n arrays:
    H and LAPACK's eigenvector array, which a window cuts down to its
    kept columns.

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
    if window is not None and not window[0] < window[1]:
        raise DomainError(f"bad energy window [{window[0]}, {window[1]}]")
    h = hamiltonian_matrix(curve, grid)
    if window is not None:
        # for a window by value LAPACK returns an n x n eigenvector array
        evals, z = eigh(h.T, subset_by_value=(-np.inf, window[1]),
                        overwrite_a=True, check_finite=False)
        del h
        first = int(np.searchsorted(evals, window[0], side="right"))
        evals, phi = evals[first:], z[:, first:].copy(order="F")
        del z
    else:
        evals, phi = eigh(h.T, overwrite_a=True, check_finite=False)
        del h
        first = 0
    asym = float(curve.asymptote) if hasattr(curve, "asymptote") else 0.0
    levels = LevelSet(evals, _phi_to_psi(grid, phi), grid, asym, first)
    if verify_resolution:
        fine = _refined(grid)
        evals2 = eigh(hamiltonian_matrix(curve, fine).T, eigvals_only=True,
                      overwrite_a=True, check_finite=False)
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


def bound_populations(curve, grid: RadialGrid, amp: np.ndarray):
    """(energies, populations) of the bound levels of one channel: its
    levels at or below the asymptote, ascending, and |<v|amp>|^2 for the
    amplitude ``amp`` (psi values, complex or real) in each. No
    eigenvector is formed on the grid.

    H is reduced in place to a tridiagonal T_d = Q^T H Q (LAPACK dsytrd;
    a workspace of 32 n blocks it, where LAPACK's default n runs it
    unblocked). The n - 1 Householder reflectors that make Q are applied
    to y = sqrt(w) amp, giving Q^T y, and H is freed. The levels are the
    eigenpairs (E_v, z_v) of T_d in (-inf, asymptote], by bisection and
    inverse iteration (dstebz, dstein), as LAPACK's windowed dsyevr finds
    them; the phi-eigenvector of level v is Q z_v, so
    <v|amp> = z_v^T Q^T y. So the energies are those of
    ``solve_levels(curve, grid, window=(-inf, asymptote))`` to the bit and
    the populations those of :func:`~coldpa.observables.level_populations`
    on it, from one n x n array where that solve holds two.
    """
    amp = np.asarray(amp)
    if amp.shape != (grid.n,):
        raise GridMismatchError("channel amplitude length != grid size")
    asym = float(getattr(curve, "asymptote", 0.0))
    n = grid.n
    y = np.sqrt(grid.w) * amp
    y = np.array([y.real, y.imag])            # (2, n): [re, im] rows
    h = hamiltonian_matrix(curve, grid)
    # the reflector of column k is u = (0, .., 0, 1, a[k + 2:, k]),
    # H_k = I - tau_k u u^T, and Q^T = H_{n-2} ... H_0
    a, d, e, tau, info = dsytrd(h.T, lower=1, lwork=32 * n, overwrite_a=1)
    if info != 0:
        raise NumericsError(f"tridiagonal reduction failed (info {info})")
    for k in range(n - 1):
        u = a[k + 2:, k]
        s = tau[k] * (y[:, k + 1] + y[:, k + 2:] @ u)
        y[:, k + 1] -= s
        y[:, k + 2:] -= np.multiply.outer(s, u)
    del h, a
    energies, z = eigh_tridiagonal(d, e, select="v",
                                   select_range=(-np.inf, asym),
                                   lapack_driver="stebz", check_finite=False)
    c = z.T @ y.T                             # (levels, [re, im])
    return energies, np.sum(c * c, axis=1)


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
    residual: float          # ||(H - E) phi|| / max_i |H_ii|, unit phi
    state: np.ndarray        # psi values, unit norm on the grid
    grid: RadialGrid


def continuum_state(curve, grid: RadialGrid, e_target: float) -> ContinuumRef:
    """Box eigenstate nearest e_target above the channel asymptote, by
    shift-invert Lanczos on one LDL^T factorization of H - sigma
    (Ericsson & Ruhe, Math. Comp. 35, 1251 (1980)).

    e_target is measured absolutely (same origin as the curve). It is the
    shift sigma, or the asymptote if it lies below it, nudged only off an
    exactly singular factorization. The inertia of the in-place
    Bunch-Kaufman factor counts the levels below sigma, which numbers the
    returned ones. ARPACK finds, from a fixed start vector, the largest
    eigenvalues nu of (H - sigma)^-1, that is the levels
    E = sigma + 1 / nu nearest sigma; it asks for more only while the
    chosen level sits at the edge of the returned set. nu has the sign of
    the factored pivot, so a level on sigma is placed on the side the
    inertia counted it. dE/dn is the centered difference over the
    neighboring box levels. The state is a copy, signed as in
    :func:`solve_levels`.
    """
    asym = float(getattr(curve, "asymptote", 0.0))
    n = grid.n
    # below threshold the level sought is the first one above it
    sigma = max(e_target, asym)
    h = hamiltonian_matrix(curve, grid)
    diag = h.diagonal().copy()
    for attempt in range(3):
        if attempt:
            # a zero pivot: sigma sits exactly on a level. The factor left
            # the strict upper triangle of h.T alone, so H comes back from
            # it and the saved diagonal
            mirror_upper(h.T)
            sigma += 1e-12 * np.abs(diag).max()
        h[np.diag_indices_from(h)] = diag - sigma
        # h is symmetric, so its Fortran view h.T is H - sigma, factored
        # in place: D and L overwrite its lower triangle, the strict
        # upper one keeps H. A workspace of 32 n sets the block size to
        # 32, as fast at n = 1400 as LAPACK's choice of 64 with half of it
        ldu, ipiv, info = dsytrf(h.T, lower=1, lwork=32 * n, overwrite_a=1)
        if info == 0:
            break
    else:
        raise NumericsError("H - E stays singular as its shift is moved")
    # Sylvester: H - sigma has as many negative eigenvalues as D. A 2 x 2
    # block of D (two consecutive ipiv < 0) holds one: Bunch-Kaufman
    # takes one only where its determinant is negative
    d = np.diagonal(ldu)
    count = int(np.count_nonzero(d[ipiv > 0] < 0.0)
                + np.count_nonzero(ipiv < 0) // 2)
    op = LinearOperator((n, n), dtype=float,
                        matvec=lambda x: dsytrs(ldu, ipiv, x, lower=1)[0])
    v0 = np.random.default_rng(0).standard_normal(n)
    k = min(6, n - 1)
    while True:
        nu, phi = eigsh(op, k, which="LM", v0=v0, tol=1e-14)
        off = 1.0 / nu
        order = np.argsort(off)
        off, phi = off[order], phi[:, order]
        evals = sigma + off
        first = count - int(np.count_nonzero(off < 0.0))
        # exact if a returned level is bound, else at least n - first >= k
        if n - first - np.count_nonzero(evals <= asym) < 3:
            raise ResolutionError(
                "fewer than three box levels above threshold; enlarge the box"
            )
        above = np.nonzero(evals > asym)[0]
        if len(above):
            j = int(above[np.argmin(np.abs(evals[above] - e_target))])
            if 0 < j < k - 1:
                break
            if first + j in (0, n - 1) or k == n - 1:
                raise ResolutionError("target level sits at the spectrum edge")
        k = min(2 * k, n - 1)
    # put H's diagonal back beside its intact upper triangle for H phi
    h[np.diag_indices_from(h)] = diag
    res = dsymv(1.0, h.T, phi[:, j]) - evals[j] * phi[:, j]
    return ContinuumRef(
        energy=float(evals[j]), e_above=float(evals[j] - asym),
        index=first + j + 1, de_dn=float(0.5 * (off[j + 1] - off[j - 1])),
        residual=float(np.linalg.norm(res) / np.abs(diag).max()),
        state=_phi_to_psi(grid, phi[:, j, None])[:, 0].copy(), grid=grid,
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
