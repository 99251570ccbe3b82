"""Radial grids: uniform sine-basis DVR and the adaptively mapped variant.

Wavefunctions are stored as values psi(r_i) at the interior nodes of a box
[r_lo, r_hi] together with quadrature weights w_i. Mapped grids place nodes
uniformly in an auxiliary coordinate x in [0, 1]; the Jacobian J = dR/dx
carries the local density. The kinetic operator acts on the transformed
function phi = sqrt(J) psi, where it is the exact sine-basis spectral
operator for J == 1 and a symmetric positive-semidefinite quadratic form

    T_phi = (1/2 mu) S k [P^T O diag(1/J) O P] k S

for smooth J, with S, O the orthonormal type-I sine/cosine transforms and
P zero-padding onto the N+2 cosine nodes (box edges included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import (DomainError, GridCapacityError, GridMismatchError,
                     RangeError)
from .units import ps2au


def _dst1(x):
    return sfft.dst(x, type=1, norm="ortho", axis=0)


def _dct1(x):
    return sfft.dct(x, type=1, norm="ortho", axis=0)


@dataclass(frozen=True)
class RadialGrid:
    """Interior DVR nodes of a radial box, with quadrature weights."""

    r: np.ndarray             # nodes, bohr, strictly increasing
    w: np.ndarray             # quadrature weights for sums over |psi|^2
    r_lo: float               # left box edge (wavefunction node)
    r_hi: float               # right box edge
    mu: float                 # reduced mass, m_e
    kind: str                 # "uniform" | "adaptive"
    dx: float                 # step of the auxiliary coordinate
    kx: np.ndarray            # sine-mode wavenumbers in x
    jac: np.ndarray | None = None        # dR/dx at nodes; None when uniform
    jac_full: np.ndarray | None = None   # dR/dx at nodes plus both edges

    def __post_init__(self):
        if self.mu <= 0:
            raise DomainError("reduced mass must be positive")
        r = self.r
        if r[0] <= self.r_lo or r[-1] >= self.r_hi or np.any(np.diff(r) <= 0):
            raise DomainError("grid nodes must increase strictly inside the box")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def dr_local(self) -> np.ndarray:
        """Local node spacing J * dx (constant on uniform grids)."""
        if self.jac is None:
            return np.full(self.n, self.dx)
        return self.jac * self.dx

    @property
    def k_max(self) -> float:
        """Peak representable local momentum pi / min(dr)."""
        return np.pi / float(np.min(self.dr_local))


def build_uniform(r_lo: float, r_hi: float, n: int, mu: float) -> RadialGrid:
    """Uniform sine-basis grid with n interior nodes on [r_lo, r_hi]."""
    if not (0 < r_lo < r_hi):
        raise DomainError(f"bad box [{r_lo}, {r_hi}]")
    if n < 8:
        raise DomainError("grid needs at least 8 points")
    length = r_hi - r_lo
    dr = length / (n + 1)
    r = r_lo + dr * np.arange(1, n + 1)
    kx = np.pi * np.arange(1, n + 1) / length
    return RadialGrid(
        r=r, w=np.full(n, dr), r_lo=r_lo, r_hi=r_hi, mu=mu,
        kind="uniform", dx=dr, kx=kx,
    )


def build_adaptive(v_env, mu: float, n: int, r_lo: float, r_hi: float,
                   beta: float = 0.7, e_env: float = None,
                   v_ceiling: float = None) -> RadialGrid:
    """Adaptive grid with local spacing dr <= beta * pi / k_loc(r).

    Parameters
    ----------
    v_env : callable
        Enveloping potential (hartree) used for the local momentum
        k_loc = sqrt(2 mu (e_env - min(v_env, v_ceiling))).
    e_env : float, optional
        Enveloping energy. Defaults to 2 percent of the well depth above
        ``v_ceiling``.
    v_ceiling : float, optional
        Upper clamp on the envelope potential; regions above it (repulsive
        walls) get the asymptotic point density. Defaults to the envelope
        value at r_hi plus the asymptotic approach, i.e. v_env(r_hi).

    Raises
    ------
    GridCapacityError
        If n points cannot honor the spacing criterion; the message carries
        the required point count.
    """
    if not (0 < r_lo < r_hi):
        raise DomainError(f"bad box [{r_lo}, {r_hi}]")
    if not 0 < beta <= 1:
        raise DomainError("beta must be in (0, 1]")
    fine = np.linspace(r_lo, r_hi, max(20 * n, 4000))
    v = np.asarray(v_env(fine), dtype=float)
    if v_ceiling is None:
        v_ceiling = float(v[-1])
    v_eff = np.minimum(v, v_ceiling)
    if e_env is None:
        depth = v_ceiling - float(np.min(v_eff))
        if depth <= 0:
            raise DomainError("envelope potential has no well below ceiling")
        e_env = v_ceiling + 0.02 * depth
    if e_env <= v_ceiling:
        raise DomainError("e_env must lie above the envelope ceiling")

    def k_loc_of(vv):
        return np.sqrt(2.0 * mu * (e_env - np.minimum(vv, v_ceiling)))

    dens_fine = k_loc_of(v) / (beta * np.pi)        # points per bohr
    xi = np.concatenate([[0.0], np.cumsum(
        0.5 * (dens_fine[1:] + dens_fine[:-1]) * np.diff(fine))])
    total = xi[-1]
    if n + 1 < total:
        raise GridCapacityError(
            f"{n} points cannot satisfy the spacing criterion; "
            f"need at least {int(np.ceil(total))}"
        )
    # strictly increasing xi -> invertible map; nodes uniform in x = xi/total
    inv = PchipInterpolator(xi, fine)
    x_nodes = np.arange(1, n + 1) / (n + 1)
    r = inv(total * x_nodes)
    dens_nodes = k_loc_of(np.asarray(v_env(r), dtype=float)) / (beta * np.pi)
    jac = total / dens_nodes
    dens_edges = k_loc_of(np.asarray(v_env(np.array([r_lo, r_hi])), dtype=float))
    dens_edges /= beta * np.pi
    jac_full = np.concatenate([[total / dens_edges[0]], jac,
                               [total / dens_edges[1]]])
    dx = 1.0 / (n + 1)
    kx = np.pi * np.arange(1, n + 1)      # L_x = 1
    return RadialGrid(
        r=r, w=jac * dx, r_lo=r_lo, r_hi=r_hi, mu=mu,
        kind="adaptive", dx=dx, kx=kx, jac=jac, jac_full=jac_full,
    )


def build_grid(sys, n: int, r_lo: float, r_hi: float, kind: str = "uniform",
               beta: float = 0.7, e_env: float = None) -> RadialGrid:
    """Grid for a coupled system; adaptive density follows the lower
    light-induced curve at flat-top."""
    wlo, whi = sys.working_range
    if r_lo < wlo or r_hi > whi:
        raise RangeError(
            f"grid box [{r_lo}, {r_hi}] leaves the system working range "
            f"[{wlo}, {whi}] bohr"
        )
    if kind == "uniform":
        return build_uniform(r_lo, r_hi, n, sys.mu)
    if kind != "adaptive":
        raise DomainError(f"unknown grid kind {kind!r}")
    from .potentials import adiabatic_potentials

    def v_env(r):
        return adiabatic_potentials(sys, r).lower

    ceiling = max(sys.ground.asymptote, sys.excited.asymptote)
    return build_adaptive(v_env, sys.mu, n, r_lo, r_hi, beta=beta,
                          e_env=e_env, v_ceiling=ceiling)


# kinetic operator -----------------------------------------------------------

def apply_kinetic_phi(grid: RadialGrid, phi: np.ndarray) -> np.ndarray:
    """T acting on the transformed function phi = sqrt(J) psi.

    Uniform grids: spectral sine-basis operator, exact for basis members.
    Mapped grids: the similarity-transformed operator
    J^{-1/2} d/dx (1/J) d/dx J^{-1/2}, evaluated spectrally (sine series
    for the derivative of an interior function, cosine series across the
    multiplication by 1/J, endpoints included). Symmetric PSD either way.
    Accepts (n,) or (n, m) arrays (columns transformed independently).
    """
    kx = grid.kx if phi.ndim == 1 else grid.kx[:, None]
    if grid.jac is None:
        return _dst1(_dst1(phi) * kx * kx) / (2.0 * grid.mu)
    rj = np.sqrt(grid.jac) if phi.ndim == 1 else np.sqrt(grid.jac)[:, None]
    a = _dst1(phi / rj) * kx
    pad = [(1, 1)] + [(0, 0)] * (phi.ndim - 1)
    b = np.pad(a, pad)
    jf = grid.jac_full if phi.ndim == 1 else grid.jac_full[:, None]
    c = _dct1(_dct1(b) / jf)
    return _dst1(c[1:-1] * kx) / rj / (2.0 * grid.mu)


def apply_kinetic(grid: RadialGrid, amp: np.ndarray) -> np.ndarray:
    """Kinetic operator on wavefunction values psi(r_i).

    On mapped grids this composes to the exact similarity pair
    (1/J) d/dx (1/J) d/dx of the physical second derivative.
    """
    if grid.jac is None:
        return apply_kinetic_phi(grid, amp)
    rj = np.sqrt(grid.jac) if amp.ndim == 1 else np.sqrt(grid.jac)[:, None]
    return apply_kinetic_phi(grid, amp * rj) / rj


def kinetic_matrix(grid: RadialGrid) -> np.ndarray:
    """Dense kinetic matrix in the phi representation (plain symmetric)."""
    t = apply_kinetic_phi(grid, np.eye(grid.n))
    return 0.5 * (t + t.T)


# momentum representation ----------------------------------------------------

@dataclass(frozen=True)
class MomentumSpectrum:
    """Amplitudes on a symmetric momentum grid.

    Convention: Psi(k) = (2 pi)^(-1/2) Integral e^{-i k R} psi(R) dR.
    """

    k: np.ndarray
    amp: np.ndarray
    dk: float

    def density(self) -> np.ndarray:
        return np.abs(self.amp) ** 2

    def norm_sq(self) -> float:
        return float(np.sum(self.density()) * self.dk)


def _fft_momentum(values: np.ndarray, r0: float, dr: float) -> MomentumSpectrum:
    m = len(values)
    k = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(m, dr))
    amp = np.fft.fftshift(np.fft.fft(values)) * dr / np.sqrt(2.0 * np.pi)
    amp = amp * np.exp(-1j * k * r0)
    return MomentumSpectrum(k=k, amp=amp, dk=float(k[1] - k[0]))


def _aux_sampling(grid: RadialGrid, oversample: float):
    dr_aux = (np.pi / grid.k_max) / oversample
    m = int(np.ceil((grid.r_hi - grid.r_lo) / dr_aux)) + 1
    m = sfft.next_fast_len(m)
    return np.linspace(grid.r_lo, grid.r_hi, m)


def _edge_spline(grid: RadialGrid, amp: np.ndarray) -> CubicSpline:
    # box edges are wavefunction nodes; pin them so the spline honors that
    r = np.concatenate([[grid.r_lo], grid.r, [grid.r_hi]])
    y = np.concatenate([[0.0], amp, [0.0]])
    return CubicSpline(r, y)


def to_momentum(grid: RadialGrid, amp: np.ndarray,
                oversample: float = 2.0) -> MomentumSpectrum:
    """Momentum-space amplitudes of psi values on the grid.

    Uniform grids transform directly (discrete Parseval is exact). Mapped
    grids go through a C^2 resample onto an auxiliary uniform grid whose
    density oversamples k_max by ``oversample``.
    """
    if grid.jac is None:
        return _fft_momentum(amp.astype(complex), grid.r[0], grid.dx)
    r_aux = _aux_sampling(grid, oversample)
    vals = _edge_spline(grid, np.asarray(amp, dtype=complex))(r_aux)
    return _fft_momentum(vals, r_aux[0], r_aux[1] - r_aux[0])


def from_momentum(grid: RadialGrid, spec: MomentumSpectrum) -> np.ndarray:
    """Inverse of :func:`to_momentum`, sampled back at the grid nodes."""
    m = len(spec.k)
    dr = 2.0 * np.pi / (m * spec.dk)
    # uniform grids transformed without resampling; r0 was the first node
    r0 = grid.r[0] if grid.jac is None else grid.r_lo
    shifted = np.fft.ifftshift(spec.amp * np.exp(1j * spec.k * r0))
    vals = np.fft.ifft(shifted) * np.sqrt(2.0 * np.pi) / dr
    if grid.jac is None:
        return vals
    r_aux = grid.r_lo + dr * np.arange(m)
    re = CubicSpline(r_aux, vals.real)(grid.r)
    im = CubicSpline(r_aux, vals.imag)(grid.r)
    return re + 1j * im


# two-channel states ---------------------------------------------------------

def same_grid(a: RadialGrid, b: RadialGrid) -> bool:
    if a is b:
        return True
    return (a.n == b.n and a.mu == b.mu and a.r_lo == b.r_lo
            and a.r_hi == b.r_hi and np.array_equal(a.r, b.r))


def ensure_same_grid(a: RadialGrid, b: RadialGrid):
    if not same_grid(a, b):
        raise GridMismatchError("operands live on different grids")


@dataclass
class TwoChannelState:
    """Ground/excited amplitudes on a shared grid at time t (a.u.)."""

    grid: RadialGrid
    g: np.ndarray
    e: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if len(self.g) != self.grid.n or len(self.e) != self.grid.n:
            raise GridMismatchError("channel amplitude length != grid size")
        self.g = np.asarray(self.g, dtype=complex)
        self.e = np.asarray(self.e, dtype=complex)

    @property
    def t_ps(self) -> float:
        return self.t / ps2au

    def population_g(self) -> float:
        return float(np.sum(np.abs(self.g) ** 2 * self.grid.w))

    def population_e(self) -> float:
        return float(np.sum(np.abs(self.e) ** 2 * self.grid.w))

    def norm(self) -> float:
        return float(np.sqrt(self.population_g() + self.population_e()))

    def copy(self) -> "TwoChannelState":
        return TwoChannelState(self.grid, self.g.copy(), self.e.copy(), self.t)


def inner(grid: RadialGrid, bra: np.ndarray, ket: np.ndarray) -> complex:
    """Weighted inner product <bra|ket> on the grid."""
    return complex(np.sum(np.conj(bra) * ket * grid.w))


def normalize(grid: RadialGrid, amp: np.ndarray) -> np.ndarray:
    nrm = np.sqrt(np.sum(np.abs(amp) ** 2 * grid.w))
    if nrm == 0:
        raise DomainError("cannot normalize the zero function")
    return amp / nrm


def gaussian(grid: RadialGrid, r0: float, sigma: float,
             k0: float = 0.0) -> np.ndarray:
    """Normalized Gaussian exp(-(r-r0)^2 / 4 sigma^2 + i k0 r) on the grid."""
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    amp = np.exp(-((grid.r - r0) ** 2) / (4.0 * sigma**2)
                 + 1j * k0 * grid.r)
    return normalize(grid, amp)
