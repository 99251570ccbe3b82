"""Single-channel eigenproblems and characteristic-time formulas.

Levels are solved in the transformed (phi) representation where the grid
Hamiltonian is a plain symmetric matrix; returned wavefunctions are psi
values normalized against the grid quadrature weights, each with a fixed
sign, so a full and a windowed solve return the same columns. Every
dense solve reduces H in place to tridiagonal form once, through the
Fortran view of the C-ordered matrix (LAPACK dsytrd), and takes every
level energy from one dsterf pass over that reduction: a window is a
slice of that array, the bound levels are its entries below the
asymptote. So a windowed solve and the full solve give the same
energies to the bit. Eigenvectors of the tridiagonal matrix are formed
only for the kept levels, by MRRR (dstemr) for the full spectrum and by
inverse iteration (dstein) on those energies for a window, and then the
reflector product (dormqr). A window holds one n x n array, H, plus its
kept columns. The bound-level populations of an amplitude are its
projections on the bound window's states
(:func:`~coldpa.observables.level_populations`).
The continuum start takes no full eigensolve: shift-invert Lanczos at
the target energy on one in-place LDL^T factorization, whose inertia
gives the level's place in the box spectrum. ARPACK is asked first for
the four levels nearest the target, the most the answer reads plus one,
and for twice as many while the target sits at an edge of the returned
set; the start counts its factor solves over every request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import (dormqr, dstein, dstemr, dsterf, dsytrd,
                                 dsytrf, dsytrs)
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import DomainError, NumericsError, ResolutionError
from .grids import (_BLOCK, RadialGrid, _refined, kinetic_matrix,
                    mirror_upper)

NODE_FLOOR = 1e-8     # count_nodes skips values below this share of max|amp|


def _channel(curve) -> str:
    return getattr(curve, "name", "") or "channel"


def _check(info: int, routine: str, curve):
    if info != 0:
        raise NumericsError(
            f"LAPACK {routine} failed on the {_channel(curve)} Hamiltonian "
            f"(info {info}); check its potential and grid")


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
        raise DomainError(f"{_channel(curve)} potential is {v[i]} at r = "
                          f"{float(grid.r[i])!r} bohr (node {i})")
    h = kinetic_matrix(grid)
    h[np.diag_indices_from(h)] += v
    return h


def _phi_to_psi(grid: RadialGrid, phi: np.ndarray) -> np.ndarray:
    # in place and in column blocks: LAPACK returns sum(phi^2) = 1; physical
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


def count_nodes(amp: np.ndarray) -> int:
    """Interior sign changes, ignoring values below NODE_FLOOR * max|amp|."""
    a = np.real(amp)
    keep = np.abs(a) > NODE_FLOOR * np.max(np.abs(a))
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

    def rotational_constants(self) -> np.ndarray:
        """<1 / (2 mu R^2)> for every level, hartree, in one pass over
        the states in column blocks."""
        q = self.grid.w / (2.0 * self.grid.mu * self.grid.r**2)
        out = np.empty(self.n_levels)
        for j0 in range(0, self.n_levels, _BLOCK):
            blk = self.states[:, j0:j0 + _BLOCK]
            out[j0:j0 + _BLOCK] = q @ np.abs(blk) ** 2
        return out


def _reduce(curve, grid: RadialGrid):
    """One in-place reduction of H = T + V to a tridiagonal T_d = Q^T H Q
    (dsytrd, lower; a workspace of 32 n blocks it, where LAPACK's default
    n runs it unblocked), and every level energy from one dsterf pass
    over T_d. Returns (a, d, e, tau, energies): a is H's array holding
    the reflectors of Q, d and e are T_d, the energies ascend. Every
    energy a dense solve reports is taken from this one array."""
    n = grid.n
    h = hamiltonian_matrix(curve, grid)
    a, d, e, tau, info = dsytrd(h.T, lower=1, lwork=32 * n, overwrite_a=1)
    _check(info, "dsytrd", curve)
    energies, info = dsterf(d, e)
    _check(info, "dsterf", curve)
    return a, d, e, tau, energies


def _tridiagonal_vectors(curve, d, e, energies, lo: int,
                         hi: int) -> np.ndarray:
    """Eigenvectors lo..hi-1 (0-based, ascending) of the tridiagonal (d, e)
    as an n x (hi - lo) Fortran array. All n come from MRRR (dstemr), as
    inverse iteration is ten times slower there; a window comes from
    inverse iteration (dstein) on its entries of :func:`_reduce`'s
    ``energies``, which writes the kept columns alone."""
    n = len(d)
    if lo == hi:
        return np.empty((n, 0), order="F")
    if hi - lo == n:
        sub = np.zeros(n)                   # dstemr overwrites its e
        sub[:-1] = e
        _, _, z, info = dstemr(d, sub, 0, 0.0, 0.0, 1, n)
        _check(info, "dstemr", curve)
        return z
    # one unsplit block: every level is in block 1, which ends at row n
    block = np.ones(n, dtype=np.int32)
    z, info = dstein(d, e, energies[lo:hi], block, np.full(n, n, np.int32))
    _check(info, "dstein", curve)
    return z


def _apply_q(curve, a, tau, z: np.ndarray):
    """z <- Q z in place, Q from dsytrd's reflectors in ``a``, by LAPACK's
    blocked dormqr on rows 1..n-1 of _BLOCK columns of z at a time, so
    the copy scipy makes of each block stays small."""
    if not z.shape[1]:
        return
    # Q = diag(1, Q'), and LAPACK's dormtr applies Q' as dormqr on
    # a[1:, :n - 1] with leading dimension n. scipy's dormqr takes
    # contiguous arrays, so that block goes in as the (n, n - 1) view of
    # a that starts at a[1, 0]; dormqr reads only its first n - 1 rows
    n = len(a)
    v = a.ravel(order="F")[1:1 + n * (n - 1)].reshape(n, n - 1, order="F")
    lwork = int(dormqr("L", "N", v, tau, z[1:, :_BLOCK], -1)[1][0])
    for j0 in range(0, z.shape[1], _BLOCK):
        blk, _, info = dormqr("L", "N", v, tau, z[1:, j0:j0 + _BLOCK],
                              lwork)
        _check(info, "dormqr", curve)
        z[1:, j0:j0 + _BLOCK] = blk
        del blk                             # before the next block's copy


def solve_levels(curve, grid: RadialGrid, window=None,
                 verify_resolution: bool = False,
                 drift_tol: float = 1e-6) -> LevelSet:
    """Eigenpairs of T + V on the grid, optionally restricted to the
    energy window (lo, hi) (hartree).

    Without a window the full spectrum is returned. With one, the levels
    at or below lo are dropped and ``first_index`` counts them; lo may be
    ``-inf``, so ``window=(-np.inf, asymptote)`` gives the bound levels,
    those below the asymptote, as :meth:`LevelSet.bound` does. A window
    that holds no level gives a set of none.

    H is reduced in place to tridiagonal form once, and every energy is
    taken from one dsterf pass over all n levels (:func:`_reduce`): the
    window is a slice of that array. So a windowed solve and the full
    one give the same energies to the bit. Only the eigenvectors of the
    kept levels are formed, on the tridiagonal matrix, and then LAPACK's
    blocked reflector product (dormqr) maps them back: MRRR (dstemr)
    serves the full spectrum, and inverse iteration (dstein) on the
    window's energies serves a window. A window holds one n x n array,
    H, plus its kept columns; the full solve holds two.

    Parameters
    ----------
    verify_resolution : bool
        Re-solve on a doubled grid and require relative eigenvalue drift
        below ``drift_tol`` for the returned levels.

    Raises
    ------
    ResolutionError
        If verification finds drift above tolerance.
    NumericsError
        If a LAPACK routine reports failure; the message names it and
        the channel.
    """
    if window is not None and not window[0] < window[1]:
        raise DomainError(f"bad energy window [{window[0]}, {window[1]}]")
    a, d, e, tau, evals = _reduce(curve, grid)
    first, last = 0, grid.n
    if window is not None:
        first = int(np.searchsorted(evals, window[0], side="right"))
        last = int(np.searchsorted(evals, window[1], side="left"))
    phi = _tridiagonal_vectors(curve, d, e, evals, first, last)
    evals = evals[first:last]
    _apply_q(curve, a, tau, phi)
    del a
    asym = float(curve.asymptote) if hasattr(curve, "asymptote") else 0.0
    levels = LevelSet(evals, _phi_to_psi(grid, phi), grid, asym, first)
    if verify_resolution:
        evals2 = _reduce(curve, _refined(grid))[4]
        if window is not None:
            check = evals
            ref_lo = int(np.searchsorted(evals2, window[0], side="right"))
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


@dataclass(frozen=True)
class ContinuumRef:
    """Box-normalized continuum state nearest a target energy."""

    energy: float            # absolute, hartree
    e_above: float           # energy above the channel asymptote
    index: int               # 1-based position in the full box spectrum
    de_dn: float             # local level spacing dE/dn, hartree
    residual: float          # ||(H - E) phi|| / max_i |H_ii|, unit phi
    solves: int              # (H - sigma)^-1 applications, every request
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
    E = sigma + 1 / nu nearest sigma. It is asked first for four: the
    chosen level, its two neighbors and one spare, under ARPACK's
    default 20 Lanczos vectors. While the chosen level sits at the edge
    of the returned set it is asked again for twice as many (4, 8, 16,
    ..., at most n - 1). nu has the sign of the factored pivot, so a
    level on sigma is placed on the side the inertia counted it. dE/dn
    is the centered difference over the neighboring box levels. The
    state is a copy, signed as in :func:`solve_levels`. ``solves``
    counts the applications of (H - sigma)^-1, one LAPACK dsytrs each,
    summed over every request; the fixed start vector makes it repeat
    exactly (21 for a thermal target on the n=1400 analog grid).
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
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return dsytrs(ldu, ipiv, x, lower=1)[0]

    op = LinearOperator((n, n), dtype=float, matvec=solve)
    v0 = np.random.default_rng(0).standard_normal(n)
    # the answer reads the target and its two neighbours; one spare level
    k = min(4, n - 1)
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
        solves=solves,
        state=_phi_to_psi(grid, phi[:, j, None])[:, 0].copy(), grid=grid,
    )


# characteristic times (atomic units) -----------------------------------------

def adiabatic_period(delta_e: float) -> float:
    """Oscillation period 2 pi / |delta_e| of a two-state superposition."""
    if delta_e == 0.0:
        raise DomainError("degenerate levels")
    return 2.0 * math.pi / abs(delta_e)
