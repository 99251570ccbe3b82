"""Radial grids: uniform sine-basis DVR and the adaptively mapped variant.

Wavefunctions are stored as values psi(r_i) at the interior nodes of a box
[r_lo, r_hi] together with quadrature weights w_i. Nodes sit uniformly in
an auxiliary coordinate x (x in [0, 1] on mapped grids, x = R - r_lo on
uniform ones); the Jacobian J = dR/dx carries the local density and is
identically 1 on a uniform grid. The kinetic operator acts on the
transformed function phi = sqrt(J) psi as the symmetric
positive-semidefinite quadratic form

    T_phi = (1/2 mu) S k [P^T O diag(1/J) O P] k S

with S, O the orthonormal type-I sine/cosine transforms and P
zero-padding onto the N+2 cosine nodes (box edges included). For J == 1
the bracket is the identity and T_phi is the exact sine-basis spectral
operator S k^2 S / (2 mu), so one code path serves every grid.

It is the Gram product B^T B / (2 mu) of the (N+2) x N matrix
B = diag(J_full^-1/2) O P k S diag(J^-1/2), and O P k S has a closed form
from the sum F(p) = sum_k k sin(pi k p / (N+1)) = -((N+1)/2) (-1)^p
cot(pi p / (2N+2)) (cf. the sine-DVR kinetic formula of Colbert & Miller,
J. Chem. Phys. 96, 1982 (1992)). B and B^T are Toeplitz-plus-Hankel in
that one real table, so applied to vectors T_phi runs as two FFT linear
convolutions against it along the node axis (complex FFTs on complex
input, real ones on real input), zero-padded to a 5-smooth length
L >= 3n + 2 (:attr:`RadialGrid.kinetic_fft_len`). As a dense matrix it
is B^T B, accumulated over row blocks of B into one n x n array, so the
build never holds B whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.linalg.blas import dsyrk

from .errors import (DomainError, GridCapacityError, GridMismatchError,
                     RangeError)
from .units import ps2au

# rows or columns per block where a dense n x n build or solve works in
# blocks: at n = 1400 a block of doubles takes 1.4 MB
_BLOCK = 128


def _cot_sum(big: int, p: np.ndarray) -> np.ndarray:
    """F(p) = sum_{k=1}^{N-1} k sin(pi k p / N) with N = big, in closed
    form -(N/2) (-1)^p cot(pi p / 2N), and 0 for p = 0 mod 2N. F is odd
    and 2N-periodic."""
    f = np.zeros(len(p))
    live = p % (2 * big) != 0
    sign = np.where(p[live] % 2 == 0, 1.0, -1.0)
    f[live] = -0.5 * big * sign / np.tan(0.5 * np.pi * p[live] / big)
    return f


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
    jac: np.ndarray | None = None        # dR/dx at nodes; ones if not given
    jac_full: np.ndarray | None = None   # dR/dx at nodes plus both edges

    def __post_init__(self):
        if self.mu <= 0:
            raise DomainError("reduced mass must be positive")
        r = self.r
        if r[0] <= self.r_lo or r[-1] >= self.r_hi or np.any(np.diff(r) <= 0):
            raise DomainError("grid nodes must increase strictly inside the box")
        if (self.jac is None) != (self.jac_full is None):
            raise DomainError("grid jac and jac_full must be given together")
        if self.jac is None:
            object.__setattr__(self, "jac", np.ones(self.n))
            object.__setattr__(self, "jac_full", np.ones(self.n + 2))
        for name, size in (("w", self.n), ("kx", self.n), ("jac", self.n),
                           ("jac_full", self.n + 2)):
            a = np.asarray(getattr(self, name))
            if a.shape != (size,) or not (np.isfinite(a) & (a > 0)).all():
                raise DomainError(
                    f"grid {name} needs {size} finite positive entries")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def dr_local(self) -> np.ndarray:
        """Local node spacing J * dx (constant on uniform grids)."""
        return self.jac * self.dx

    @property
    def k_max(self) -> float:
        """Peak representable local momentum pi / min(dr)."""
        return np.pi / float(np.min(self.dr_local))

    @property
    def kinetic_fft_len(self) -> int:
        """FFT length of the kinetic step on vectors: the 5-smooth
        convolution length L >= 3n+2."""
        return sfft.next_fast_len(3 * self.n + 2, real=True)

    @cached_property
    def _convolution(self):
        """(rfft and complex fft of G(p) = -F(p) on p = -2n-1..n at the
        length L, J^-1/2, J^-1, r_m^2 / 2 mu) for :func:`_mapped_gram`,
        with r_m from :func:`_row_scale`. Built on first use, once per
        grid."""
        n, big = self.n, self.n + 1
        g = -_cot_sum(big, np.arange(-2 * n - 1, n + 1))
        size = self.kinetic_fft_len
        return (sfft.rfft(g, size), sfft.fft(g, size),
                1.0 / np.sqrt(self.jac), 1.0 / self.jac,
                _row_scale(self) ** 2 / (2.0 * self.mu))


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

def _mapped_gram(grid: RadialGrid, u: np.ndarray,
                 row: np.ndarray = None) -> np.ndarray:
    """D^T diag(1/J_full) D u / (2 mu) along the last axis of u, shape
    (..., n), real or complex, with D of :func:`_mapped_derivative`, so
    that T_phi x = J^-1/2 of this at u = J^-1/2 x.

    With N = n+1, c(s) = sum_j F(j - s) u_j for s = -N..N gives
    (D u)_m = (kappa / N) c_m (c(m) + c(-m)), and e(t) = sum_m F(t - m) y_m
    gives (D^T v)_j = e(j) - e(-j) for y_m = (kappa / N) c_m v_m. Both
    are linear convolutions with F on p = -2n-1..n, done as one forward
    and one inverse FFT each at the length L of
    :attr:`RadialGrid.kinetic_fft_len`; L >= 3n+2, so no kept output
    wraps. The table is real, so a complex u is convolved directly by
    complex FFTs and a real one by real FFTs, every row at once.

    ``row`` replaces the middle row scale r_m^2 / 2 mu; a caller folds a
    constant factor into it (the propagator its 2 / half_span).
    """
    n = grid.n
    spec_r, spec_c, _, _, r2 = grid._convolution
    size = grid.kinetic_fft_len
    if np.iscomplexobj(u):
        fwd, inv, spec = sfft.fft, sfft.ifft, spec_c
    else:
        fwd, inv, spec = sfft.rfft, sfft.irfft, spec_r
    a = fwd(u, size)
    a *= spec
    c = inv(a, size, overwrite_x=True)[..., n - 1:3 * n + 2]  # s = -N..N
    y = c[..., n + 1:] + c[..., n + 1::-1]
    y *= r2 if row is None else row
    # the table holds G = -F: e(t) = -h[t + 2n + 1], z_j = e(j) - e(-j)
    b = fwd(y, size)
    b *= spec
    h = inv(b, size, overwrite_x=True)
    return h[..., 2 * n:n:-1] - h[..., 2 * n + 2:3 * n + 2]


def apply_kinetic_phi(grid: RadialGrid, phi: np.ndarray) -> np.ndarray:
    """T acting on the transformed function phi = sqrt(J) psi.

    The similarity-transformed operator J^{-1/2} d/dx (1/J) d/dx J^{-1/2}
    as the symmetric PSD Gram form B^T B / (2 mu), applied by two FFT
    convolutions at the 5-smooth length :attr:`RadialGrid.kinetic_fft_len`
    (:func:`_mapped_gram`). On a uniform grid (J == 1) it is the spectral
    sine-basis operator, exact for basis members. Accepts (n,) or (n, m)
    arrays, real or complex (columns transformed independently).
    """
    rj = grid._convolution[2]               # J^-1/2
    return (_mapped_gram(grid, phi.T * rj) * rj).T


def apply_kinetic(grid: RadialGrid, amp: np.ndarray) -> np.ndarray:
    """Kinetic operator on wavefunction values psi(r_i).

    It composes to the exact similarity pair (1/J) d/dx (1/J) d/dx of the
    physical second derivative.
    """
    inv_j = grid._convolution[3]
    return (_mapped_gram(grid, amp.T) * inv_j).T


def _row_scale(grid: RadialGrid) -> np.ndarray:
    """Row scale r_m = (kappa / N) c_m J_full,m^-1/2 of B, m = 0..N."""
    big = grid.n + 1
    r = np.full(big + 1, grid.kx[0] / big) / np.sqrt(grid.jac_full)
    r[[0, -1]] /= np.sqrt(2.0)
    return r


def _mapped_derivative(grid: RadialGrid):
    """B = diag(J_full^-1/2) D diag(J^-1/2), shape (n+2, n), so that the
    mapped kinetic matrix is B^T B / (2 mu), yielded as C-ordered blocks
    of consecutive rows, top to bottom; the whole of B is never formed.

    D = O P k S takes phi at the n sine nodes to d/dx at the N+1 cosine
    nodes (N = n+1, both edges included). With kx = kappa * k,

        D[m, j] = (kappa / N) c_m (F(j + m) + F(j - m)),

    c_0 = c_N = 1/sqrt(2) and c_m = 1 otherwise, where

        F(p) = sum_{k=1}^{N-1} k sin(pi k p / N)
             = -(N/2) (-1)^p cot(pi p / 2N),  and 0 for p = 0 mod 2N.

    j + m and j - m span [-N, 2N], so one table of F fills all of D.
    """
    n = grid.n
    big = n + 1
    f = _cot_sum(big, np.arange(-big, 2 * big + 1))   # F(p) is f[p + big]
    # row m of F(j + m) starts at p = 1 + m, row m of F(j - m) at p = 1 - m
    win = sliding_window_view(f, n)
    scale = _row_scale(grid)[:, None]
    sqrt_j = np.sqrt(grid.jac)
    for m0 in range(0, n + 2, _BLOCK):
        m1 = min(m0 + _BLOCK, n + 2)
        b = win[big + 1 + m0:big + 1 + m1] + win[big + 1 - m0:big + 1 - m1:-1]
        b *= scale[m0:m1]
        b /= sqrt_j
        yield b


def mirror_upper(a: np.ndarray) -> np.ndarray:
    """Copy the strict upper triangle of the square Fortran-ordered ``a``
    onto its strict lower one, in place and in column blocks, so that
    ``a`` is symmetric to the bit."""
    n = len(a)
    for j0 in range(0, n, _BLOCK):
        j1 = min(j0 + _BLOCK, n)
        d = a[j0:j1, j0:j1]
        low = np.tril_indices(j1 - j0, -1)
        d[low] = d.T[low]
        a[j1:, j0:j1] = a[j0:j1, j1:].T
    return a


def kinetic_matrix(grid: RadialGrid) -> np.ndarray:
    """Dense kinetic matrix in the phi representation (plain symmetric).

    T = B^T B / (2 mu) with B from :func:`_mapped_derivative`, so no n x n
    block is transformed. BLAS syrk accumulates the upper triangle of one
    Fortran-ordered n x n array over row blocks of B, and the triangle is
    mirrored, so T is symmetric to the bit and its build holds one n x n
    array. The result is that array's transpose: C-ordered, and its own
    Fortran view ``t.T`` is what LAPACK factors in place.
    """
    n = grid.n
    t = np.zeros((n, n), order="F")
    for b in _mapped_derivative(grid):
        # T += B_k^T B_k / 2 mu, B_k^T as the Fortran view of the C block
        dsyrk(0.5 / grid.mu, b.T, beta=1.0, c=t, overwrite_c=1)
    return mirror_upper(t).T


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
    if grid.kind == "uniform":
        return _fft_momentum(amp.astype(complex), grid.r[0], grid.dx)
    r_aux = _aux_sampling(grid, oversample)
    vals = _edge_spline(grid, np.asarray(amp, dtype=complex))(r_aux)
    return _fft_momentum(vals, r_aux[0], r_aux[1] - r_aux[0])


def from_momentum(grid: RadialGrid, spec: MomentumSpectrum) -> np.ndarray:
    """Inverse of :func:`to_momentum`, sampled back at the grid nodes."""
    m = len(spec.k)
    dr = 2.0 * np.pi / (m * spec.dk)
    # uniform grids transformed without resampling; r0 was the first node
    uniform = grid.kind == "uniform"
    r0 = grid.r[0] if uniform else grid.r_lo
    shifted = np.fft.ifftshift(spec.amp * np.exp(1j * spec.k * r0))
    vals = np.fft.ifft(shifted) * np.sqrt(2.0 * np.pi) / dr
    if uniform:
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
