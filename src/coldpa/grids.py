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
that one real table, so applied to vectors T_phi runs as two
convolutions against it along the node axis, each one forward and one
inverse FFT (complex FFTs on complex input, real ones on real input).
Taken apart, the Toeplitz and the Hankel half are each wrap-free at a
5-smooth length L >= 2n + 1 (:attr:`RadialGrid.kinetic_fft_len`), and
they add as two spectra on the one transform pair. As a dense matrix,
B^T B has a closed form in O(n^2) operations (:func:`kinetic_matrix`),
so B is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import (DomainError, GridCapacityError, GridMismatchError,
                     RangeError)
from .units import ps2au

# rows or columns per block where a dense n x n build or solve works in
# blocks: at n = 1400 a block of doubles takes 1.4 MB
_BLOCK = 128
MOMENTUM_OVERSAMPLE = 2.0   # of k_max, by to_momentum's auxiliary grid


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
    """Interior DVR nodes of a radial box. The Jacobian at the nodes
    ``jac``, the quadrature weights ``w`` and the sine-mode wavenumbers
    ``kx`` follow from the fields."""

    r: np.ndarray             # nodes, bohr, strictly increasing
    r_lo: float               # left box edge (wavefunction node)
    r_hi: float               # right box edge
    mu: float                 # reduced mass, m_e
    kind: str                 # "uniform" | "adaptive"
    dx: float                 # step of the auxiliary coordinate
    jac_full: np.ndarray | None = None   # dR/dx at edges and nodes, or ones

    def __post_init__(self):
        if self.mu <= 0:
            raise DomainError("reduced mass must be positive")
        if not 0.0 < self.dx < np.inf:
            raise DomainError(f"grid dx must be finite and positive, "
                              f"got {self.dx}")
        r = self.r
        if r[0] <= self.r_lo or r[-1] >= self.r_hi or np.any(np.diff(r) <= 0):
            raise DomainError("grid nodes must increase strictly inside the box")
        if self.jac_full is None:
            object.__setattr__(self, "jac_full", np.ones(self.n + 2))
        a = np.asarray(self.jac_full)
        if a.shape != (self.n + 2,) or not (np.isfinite(a) & (a > 0)).all():
            raise DomainError(
                f"grid jac_full needs {self.n + 2} finite positive entries")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def jac(self) -> np.ndarray:
        """dR/dx at the nodes, the interior of ``jac_full``."""
        return self.jac_full[1:-1]

    @cached_property
    def w(self) -> np.ndarray:
        """Quadrature weights J * dx for sums over |psi|^2."""
        return self.jac * self.dx

    @property
    def kx(self) -> np.ndarray:
        """Sine-mode wavenumbers pi k / L_x, k = 1..n, of the auxiliary
        box: L_x = r_hi - r_lo on a uniform grid, 1 on a mapped one."""
        span = self.r_hi - self.r_lo if self.kind == "uniform" else 1.0
        return np.pi * np.arange(1, self.n + 1) / span

    @property
    def k_max(self) -> float:
        """Peak representable local momentum pi / min(dr), with the local
        node spacing dr = J * dx, that is ``w``."""
        return np.pi / float(np.min(self.w))

    @property
    def kinetic_fft_len(self) -> int:
        """FFT length of the kinetic step on vectors: the 5-smooth
        length L >= 2n+1, over which each Toeplitz and Hankel half of
        the two convolutions is wrap-free."""
        return sfft.next_fast_len(2 * self.n + 1, real=True)

    @cached_property
    def _convolution(self):
        """(spectra, J^-1, r_m^2 / 2 mu) for :func:`_mapped_gram`,
        with r_m from :func:`_row_scale`. The spectra are
        (K1, conj K1, conj K2), K1 and K2 the length-L DFTs of the real
        tables k1[q] = F(1 - q), q = 1-n..n+1, and k2[q] = F(q + 1),
        q = 0..2n, each placed at q mod L; their first L/2 + 1 entries
        serve real input. Built on first use, once per grid."""
        n, big = self.n, self.n + 1
        size = self.kinetic_fft_len
        q = np.arange(1 - n, n + 2)
        k1 = np.zeros(size)
        k1[q % size] = _cot_sum(big, 1 - q)
        spec1 = sfft.fft(k1)
        spec2 = sfft.fft(_cot_sum(big, np.arange(1, 2 * n + 2)), size)
        return ((spec1, spec1.conj(), spec2.conj()), 1.0 / self.jac,
                _row_scale(self) ** 2 / (2.0 * self.mu))


def build_uniform(r_lo: float, r_hi: float, n: int, mu: float) -> RadialGrid:
    """Uniform sine-basis grid with n interior nodes on [r_lo, r_hi]."""
    if not (0 < r_lo < r_hi):
        raise DomainError(f"bad box [{r_lo}, {r_hi}]")
    if n < 8:
        raise DomainError("grid needs at least 8 points")
    dr = (r_hi - r_lo) / (n + 1)
    r = r_lo + dr * np.arange(1, n + 1)
    return RadialGrid(r=r, r_lo=r_lo, r_hi=r_hi, mu=mu, kind="uniform",
                      dx=dr)


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
    # dR/dx = total / density at the box edges and the nodes
    r_full = np.concatenate([[r_lo], r, [r_hi]])
    dens = k_loc_of(np.asarray(v_env(r_full), dtype=float)) / (beta * np.pi)
    return RadialGrid(r=r, r_lo=r_lo, r_hi=r_hi, mu=mu, kind="adaptive",
                      dx=1.0 / (n + 1), jac_full=total / dens)


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


def _refined(grid: RadialGrid) -> RadialGrid:
    """The grid with every local spacing about halved."""
    if grid.kind == "uniform":
        return build_uniform(grid.r_lo, grid.r_hi, 2 * grid.n, grid.mu)
    # reuse the mapping profile (x in [0, 1], so not for uniform grids):
    # doubling n halves every local spacing
    n2 = 2 * grid.n + 1
    dx2 = 1.0 / (n2 + 1)
    # the old edges and nodes keep their J; each new node between two
    # takes their mean
    jf2 = np.empty(n2 + 2)
    jf2[[0, -1]] = grid.jac_full[[0, -1]]
    jf2[1:-1:2] = 0.5 * (grid.jac_full[:-1] + grid.jac_full[1:])
    jf2[2:-1:2] = grid.jac
    x_old = np.concatenate([[0.0], np.arange(1, grid.n + 1) * grid.dx, [1.0]])
    r_old = np.concatenate([[grid.r_lo], grid.r, [grid.r_hi]])
    r2 = PchipInterpolator(x_old, r_old)(np.arange(1, n2 + 1) * dx2)
    return RadialGrid(r=r2, r_lo=grid.r_lo, r_hi=grid.r_hi, mu=grid.mu,
                      kind="adaptive", dx=dx2, jac_full=jf2)


# kinetic operator -----------------------------------------------------------

def _toeplitz_hankel(x, a, b, real):
    """a X + B X(-k) for the DFT X of a sequence along the last axis, with
    b = conj B, in place in x. X(-k) is the DFT of the index-reversed
    sequence and B that of a real table, so B(k) X(-k) = (b X)(-k); for a
    real sequence, given as its rfft half, that is conj(b X)."""
    out = x * a
    x *= b
    if real:
        out += np.conjugate(x, out=x)
    else:
        out[..., 0] += x[..., 0]
        out[..., 1:] += x[..., :0:-1]
    return out


def _mapped_gram(grid: RadialGrid, u: np.ndarray,
                 row: np.ndarray = None) -> np.ndarray:
    """D^T diag(1/J_full) D u / (2 mu) along the last axis of u, shape
    (..., n), real or complex, so that T_phi x = J^-1/2 of this at
    u = J^-1/2 x. D = O P k S takes phi at the n sine nodes to d/dx at
    the N+1 cosine nodes (N = n+1, both edges included); with
    kx = kappa * k, D[m, j] = (kappa / N) c_m (F(j + m) + F(j - m)),
    c_0 = c_N = 1/sqrt(2) and c_m = 1 otherwise.

    (D u)_m = (kappa / N) c_m y_m with the Toeplitz-plus-Hankel sums
    y_m = sum_j F(j - m) u_j + sum_j F(j + m) u_j, m = 0..N, and
    (D^T v)_j = e(j) - e(-j) with e(t) = sum_m F(t - m) y'_m for
    y'_m = (kappa / N) c_m v_m. Each half is a circular convolution of
    length L >= 2n+1 (:attr:`RadialGrid.kinetic_fft_len`) that no kept
    output wraps: the Hankel halves convolve the index-reversed input,
    or reverse the output, whose DFTs are X(-k). With the tables of
    :attr:`RadialGrid._convolution`, Y = K1 U + K2 U(-k) and, as the
    tables are real, Z = conj(K1) Y' + K2 Y'(-k): one forward and one
    inverse FFT per product. A complex u runs through complex FFTs and a
    real one through real FFTs, every row at once.

    ``row`` replaces the middle row scale r_m^2 / 2 mu; a caller folds a
    constant factor into it (the propagator its 2 / half_span).
    """
    n = grid.n
    spectra, _, r2 = grid._convolution
    size = grid.kinetic_fft_len
    real = not np.iscomplexobj(u)
    if real:
        fwd, inv = sfft.rfft, sfft.irfft
        spectra = [s[:size // 2 + 1] for s in spectra]
    else:
        fwd, inv = sfft.fft, sfft.ifft
    k1, k1c, k2c = spectra
    a = _toeplitz_hankel(fwd(u, size), k1, k2c, real)
    y = inv(a, size, overwrite_x=True)[..., :n + 2]          # m = 0..N
    y *= r2 if row is None else row
    b = _toeplitz_hankel(fwd(y, size), k1c, k2c, real)
    return inv(b, size, overwrite_x=True)[..., :n]


def apply_kinetic(grid: RadialGrid, amp: np.ndarray) -> np.ndarray:
    """Kinetic operator on wavefunction values psi(r_i).

    It composes to the exact similarity pair (1/J) d/dx (1/J) d/dx of the
    physical second derivative.
    """
    inv_j = grid._convolution[1]
    return (_mapped_gram(grid, amp.T) * inv_j).T


def _row_scale(grid: RadialGrid) -> np.ndarray:
    """Row scale r_m = (kappa / N) c_m J_full,m^-1/2 of B, m = 0..N."""
    big = grid.n + 1
    r = np.full(big + 1, grid.kx[0] / big) / np.sqrt(grid.jac_full)
    r[[0, -1]] /= np.sqrt(2.0)
    return r


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
    """Dense kinetic matrix in the phi representation (plain symmetric),
    T = B^T B / (2 mu), built in O(n^2) from its closed form.

    Column j of B is B[m, j] = r_m (F(j + m) + F(j - m)) J_j^-1/2, with
    r_m from :func:`_row_scale` and F the cotangent sum of the module
    docstring. With N = n+1, s_i = sin(pi i / N), y_i = cos(pi i / N),
    x_m = cos(pi m / N), cot A + cot B = sin(A + B) / (sin A sin B) gives
    F(i + m) + F(i - m) = -N (-1)^(i+m) s_i / (x_m - y_i) for m != i and
    F(2i) = -(N/2) y_i / s_i. Partial fractions over m then sum B^T B in
    closed form. With w_m = r_m^2 (m = 0..N),
    g_i = (-1)^i N s_i / sqrt(8 mu J_i) and the sums over m != i

        S_i = sum w_m / (x_m - y_i),    Q_i = sum w_m / (x_m - y_i)^2,

    a_i = 4 S_i + 2 w_i y_i / s_i^2, b_i = 4 w_i and d = 1 / (y_i - y_j):

        T_ij = g_i g_j ((a_i - a_j) d + (b_i + b_j) d^2),   i != j,
        T_ii = g_i^2 (4 Q_i + w_i y_i^2 / s_i^4).

    Every cosine difference is a product of sines from one table,
    x_m - y_i = -2 sin(pi (m + i) / 2N) sin(pi (m - i) / 2N), as plain
    subtraction loses digits near the box edges; its reciprocal is the
    product of two cosecants from the reciprocal table. S and Q run over
    row blocks of those products. The upper triangle of one
    Fortran-ordered n x n array is filled in column blocks and mirrored,
    so T is symmetric to the bit and its build holds one n x n array. The
    result is that array's transpose: C-ordered, and its own Fortran view
    ``t.T`` is what LAPACK factors in place.
    """
    n = grid.n
    big = n + 1
    # sin(pi k / 2N) for k = -N..2N as sn[k + N], from arguments up to
    # pi / 2 only; s_i = sin(2 pi i / 2N), y_i = sin(pi (N - 2i) / 2N)
    half = np.sin(0.5 * np.pi / big * np.arange(big + 1))
    sn = np.concatenate([-half[:0:-1], half, half[-2::-1]])
    s, y = sn[big + 2:3 * big:2], sn[2 * big - 2:0:-2]
    # its reciprocal, with the k = 0 entry 0: that drops the m = i terms
    # from the sums and leaves T_ii to its own formula
    with np.errstate(divide="ignore"):
        csc = 1.0 / sn
    csc[big] = 0.0
    # win[a, c] = csc[a + c], so every cosine difference is a product of
    # two views: 1 / (cos(pi a / N) - cos(pi c / N)) =
    # -csc(pi (a + c) / 2N) csc(pi (a - c) / 2N) / 2
    win = sliding_window_view(csc, big + 1)
    w = _row_scale(grid) ** 2               # m = 0..N
    wi = w[1:big]
    sums, sums2 = np.empty(n), np.empty(n)
    # two blocks of work rows, shared by both passes
    e, da = np.empty((2, min(_BLOCK, n), big + 1))
    for p0 in range(0, n, _BLOCK):
        p1 = min(p0 + _BLOCK, n)
        # rows i = p0+1..p1, columns m = 0..N: -2 / (x_m - y_i)
        u = np.multiply(win[big + 1 + p0:big + 1 + p1],
                        win[big - 1 - p0:big - 1 - p1:-1], out=e[:p1 - p0])
        sums[p0:p1] = u @ w
        u *= u
        sums2[p0:p1] = u @ w
    # S_i = -sums / 2 and Q_i = sums2 / 4; with d = -e / 2 and a' = -2 a,
    # T_ij = (g_i / 2)(g_j / 2)((a'_i - a'_j) e + (b_i + b_j) e^2)
    a = 4.0 * sums - 4.0 * wi * y / s**2
    b = 4.0 * wi
    sign = np.where(np.arange(n) % 2 == 0, -big, big)
    g = 0.5 * sign * s / np.sqrt(8.0 * grid.mu * grid.jac)
    t = np.empty((n, n), order="F")
    for q0 in range(0, n, _BLOCK):
        q1 = min(q0 + _BLOCK, n)
        # e[q, p] = -2 / (y_p - y_q) for rows p < q1 of columns q0..q1,
        # laid out like out, the C view of that block of t
        eb, ab = e[:q1 - q0, :q1], da[:q1 - q0, :q1]
        np.multiply(win[big + 2 + q0:big + 2 + q1, :q1],
                    win[big - q0:big - q1:-1, :q1], out=eb)
        np.subtract(a[:q1], a[q0:q1, None], out=ab)
        out = t[:q1, q0:q1].T
        np.add(b[:q1], b[q0:q1, None], out=out)
        out *= eb
        out += ab
        out *= eb
        out *= g[:q1]
        out *= g[q0:q1, None]
    del e, da, u, eb, ab       # work rows and views, before mirror_upper
    np.fill_diagonal(t, 4.0 * g * g * (sums2 + wi * y * y / s**4))
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


def _fft_momentum(values: np.ndarray, r0: float, dr: float) -> MomentumSpectrum:
    m = len(values)
    k = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(m, dr))
    amp = np.fft.fftshift(np.fft.fft(values)) * dr / np.sqrt(2.0 * np.pi)
    amp = amp * np.exp(-1j * k * r0)
    return MomentumSpectrum(k=k, amp=amp, dk=float(k[1] - k[0]))


def _edge_spline(grid: RadialGrid, amp: np.ndarray) -> CubicSpline:
    # box edges are wavefunction nodes; pin them so the spline honors that
    r = np.concatenate([[grid.r_lo], grid.r, [grid.r_hi]])
    y = np.concatenate([[0.0], amp, [0.0]])
    return CubicSpline(r, y)


def to_momentum(grid: RadialGrid, amp: np.ndarray) -> MomentumSpectrum:
    """Momentum-space amplitudes of psi values on the grid.

    Uniform grids transform directly (discrete Parseval is exact). Mapped
    grids go through a C^2 resample onto an auxiliary uniform grid whose
    density oversamples k_max by ``MOMENTUM_OVERSAMPLE``.
    """
    if grid.kind == "uniform":
        return _fft_momentum(amp.astype(complex), grid.r[0], grid.dx)
    dr_aux = (np.pi / grid.k_max) / MOMENTUM_OVERSAMPLE
    m = sfft.next_fast_len(int(np.ceil((grid.r_hi - grid.r_lo) / dr_aux)) + 1)
    r_aux = np.linspace(grid.r_lo, grid.r_hi, m)
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
