"""Two-channel time propagation: Chebyshev and Lanczos expansions of
exp(-i H dt), and exact propagators from eigendecompositions of H.

The pulse envelope is frozen at the midpoint of every step, which is exact
on constant segments and second-order accurate on ramps; ramp segments get
their own (smaller) step size. The spectral bounds, which set the
Chebyshev order (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), are
measured once per run by :class:`_Engine` on the operator the propagator
applies. The top is the largest eigenvalue of the capped coupled H at the
peak envelope value f_max, found by the engine's Lanczos (below); it
bounds every step, since lambda_max(H0 + f C) is convex in f (a maximum of
linear functions) and even in f (flipping the sign of the excited channel
maps H(f) to H(-f)). The floor is min(V) - f_max W, rigorous since T is
positive semi-definite. Both are padded by a configurable margin; a
runaway recurrence is detected and reported rather than silently aliased.

One state representation, one layout and one operator builder serve every
grid. :func:`propagate` turns the initial psi into phi = sqrt(J) psi once,
in which H is real symmetric (Kosloff, Annu. Rev. Phys. Chem. 45, 145
(1994)); the engine steps only phi, as a C-ordered channel-major (2, n)
complex block, ground row first, and psi = phi / sqrt(J) is formed only
for a stored snapshot. Each Chebyshev term applies
2 A = 2 (H - e_mid) / half_span as one pre-scaled operator.

Grids of up to 256 points take the dense path, where H(f) is one real
symmetric 2n x 2n matrix, block-diagonal in the channels with the
coupling at (i, i + n); as an operator it is one matmul on the real
(2n, 2) [re, im] view of the phi block. Every step there comes from
eigendecompositions H(f) = V diag(E) V^T. A constant interval is
propagated exactly: H(f) at its envelope value f is decomposed once, and
reused while f is unchanged; the state after j steps is
V exp(-i E j dt) V^T phi, taken in blocks of up to ``BLOCK_STEPS`` steps,
one GEMM each. A ramp interval interpolates the exact one-step
propagator U(f) = exp(-i H(f) dt) in the envelope value (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013): U is formed
at p + 1 first-kind Chebyshev nodes spanning the interval's f, and a step
at f is sum_k L_k(f) U_k phi, with L_k the Lagrange basis of the nodes.
By Duhamel's formula |d^k U / df^k| <= (W dt)^k, so the interpolation
error is at most 2 rho^(p+1) / (p+1)! with rho = (f_hi - f_lo) W dt / 4,
and p is the least for which that reaches ``cheb_tol``.

Larger grids apply the operator to the phi block through transforms: the
kinetic energy as J^-1/2 times two complex-FFT convolutions of J^-1/2 phi
against the real cot table, each its Toeplitz and Hankel halves on one
transform pair at a 5-smooth length L >= 2n+1 (see :mod:`coldpa.grids`),
with 2 / half_span folded into its row scale; the potentials as one
(2, n) diagonal; the coupling as one scalar on the channel-swapped rows
(sqrt(J) cancels on both). There a constant interval runs in
blocks of up to ``BLOCK_STEPS`` steps, each from one expansion: every time
inside its span reads the same T_k(A) phi vectors (Tal-Ezer & Kosloff
1984), so the state after j steps is sum_k c_k(j alpha) T_k(A) phi, cut at
the order of the block's last step. A block of m steps costs about
m alpha terms where m single steps cost m times (alpha plus the tail that
carries each series to convergence). A ramp step there is one Lanczos
exponential (Park & Light, J. Chem. Phys. 85, 5870 (1986)) of the same
operator: the state's Krylov space, its basis orthogonalised in full,
carries exp(-i H dt) phi as the exponential of a small tridiagonal
matrix, so the narrow energy band the state fills, not the grid's span,
sets the number of applications (13 against 20 Chebyshev terms at
dt = 0.01 ps on a 1400-point grid). It stops where Saad's a-posteriori
error estimate (SIAM J. Numer. Anal. 29, 209 (1992)) reaches ``cheb_tol``,
the one tolerance of every series. The same Lanczos, at shift 0 and scale
1, finds the top on both paths. Constant-interval blocks, where the
Lanczos bookkeeping costs more than the terms it saves, stay Chebyshev.
Both paths time their ramp and series steps (``series_s`` in
:attr:`TimeSeries.meta`) and the Lanczos top (``bound_s``), and the FFT
path the convolutions of its steps (``kinetic_s``).

Short-range repulsive walls can tower orders of magnitude above every
energy the dynamics visits and would inflate the expansion order, so the
propagator caps the potentials at a configurable ceiling (default: highest
asymptote plus the kinetic capacity). Eigensolves elsewhere never cap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, eigh
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dstebz, dstein, dstev
from scipy.special import jv

from .errors import DomainError, NumericsError, SpectralBoundsError
from .grids import (RadialGrid, TwoChannelState, _mapped_gram,
                    ensure_same_grid, kinetic_matrix)
from .potentials import CoupledSystem
from .units import ps2au


@dataclass(frozen=True)
class PropagationPlan:
    """Stepping policy and observation schedule (times in a.u.)."""

    t_start: float
    t_end: float
    dt_ramp: float = 0.01 * ps2au
    dt_flat: float = 0.5 * ps2au
    cheb_tol: float = 1e-14       # of the Chebyshev and Lanczos series
    spectral_margin: float = 0.05
    v_cap: float | None = None
    snapshots: tuple[float, ...] = ()

    def __post_init__(self):
        named = [(k, getattr(self, k)) for k in ("t_start", "t_end",
                 "dt_ramp", "dt_flat", "cheb_tol", "spectral_margin")]
        if self.v_cap is not None:
            named.append(("v_cap", self.v_cap))
        named += [("snapshots", t) for t in self.snapshots]
        for name, value in named:
            if not math.isfinite(value):
                raise DomainError(f"plan {name} must be finite, got {value}")
        if not self.t_end > self.t_start:
            raise DomainError("plan needs t_end > t_start")
        if self.dt_ramp <= 0 or self.dt_flat <= 0:
            raise DomainError("step sizes must be positive")
        if not 0.0 < self.cheb_tol <= 1e-6:
            raise DomainError("cheb_tol must be in (0, 1e-6]")
        if self.spectral_margin < 0.05:
            raise DomainError("spectral margin below the 5 percent floor")
        for t in self.snapshots:
            if not self.t_start <= t <= self.t_end:
                raise DomainError(f"snapshot time {t} outside the run window")

    @classmethod
    def from_ps(cls, t_start=0.0, t_end=395.0, dt_ramp=0.01, dt_flat=0.5,
                snapshots=(), **kw):
        return cls(t_start=t_start * ps2au, t_end=t_end * ps2au,
                   dt_ramp=dt_ramp * ps2au, dt_flat=dt_flat * ps2au,
                   snapshots=tuple(t * ps2au for t in snapshots), **kw)


# sign of c_k = 2 J_k (-i)^k in its real (even k) or imaginary (odd k) part
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
# most steps of a constant interval on the FFT path taken from one expansion
BLOCK_STEPS = 16
# Chebyshev terms held between two folds into the accumulators; even, so
# that slot k of a fold has the parity of its term k
_FOLD = 8
# relative residual at which the Lanczos top of the spectrum is accepted
_TOP_TOL = 1e-6


class _Engine:
    """Cached arrays and the propagation kernels for one (sys, grid) pair,
    on C-ordered channel-major (2, n) blocks of phi = sqrt(J) psi, ground
    row first; no kernel converts to psi. Its (e_lo, e_hi) bound H(f) for
    every 0 <= f <= f_max under ``cap``."""

    def __init__(self, sys: CoupledSystem, grid: RadialGrid,
                 tol: float, margin: float, v_cap: float = None):
        self.grid = grid
        self.tol = tol
        if v_cap is None:
            v_cap = (max(sys.ground.asymptote, sys.excited.asymptote)
                     + grid.k_max**2 / (2.0 * grid.mu))
        self.cap = v_cap
        self.v = np.minimum(np.stack([sys.ground.value(grid.r),
                                      sys.excited.value(grid.r)]), v_cap)
        # +inf is capped above; NaN and -inf would reach LAPACK
        bad = ~np.isfinite(self.v)
        if bad.any():
            c, i = np.argwhere(bad)[0]
            raise DomainError(
                f"{('ground', 'excited')[c]} potential is {self.v[c, i]} at "
                f"r = {float(grid.r[i])!r} bohr (node {i})")
        self.w_peak = sys.coupling
        # dense kinetic matvec wins below a few hundred points; there
        # H = diag(T + V_g, T + V_e) from one kinetic matrix T, with V
        # added to the diagonal of the one 2n x 2n array in place
        self.h_dense = None
        if grid.n <= 256:
            n = grid.n
            self.h_dense = block_diag(*[kinetic_matrix(grid)] * 2)
            self.h_dense.reshape(-1)[::2 * n + 1] += self.v.ravel()
            # flat indices of the coupling entries (i, i + n), (i + n, i)
            i = np.arange(n)
            self._coupling_at = np.concatenate([i * (2 * n + 1) + n,
                                                i * (2 * n + 1) + 2 * n * n])
        self._op, self._op_key = None, None
        self._terms = None        # the term buffer, see _buffer
        self._eigen, self._eigen_f = None, None
        self.bound_matvecs = 0
        self.kinetic_s = 0.0      # _top's FFT applications add to it
        self._krylov_m = 1        # the last Lanczos exponential's m
        w_max = sys.coupling * sys.envelope.flat_value
        t0 = time.perf_counter()
        self.lambda_max = self._top(w_max)
        self._op = self._op_key = None    # the series build their own
        self.bound_s = time.perf_counter() - t0
        lo = float(self.v.min()) - w_max
        pad = margin * (self.lambda_max - lo)
        self.e_lo, self.e_hi = lo - pad, self.lambda_max + pad
        self.e_mid = 0.5 * (self.e_hi + self.e_lo)
        self.half_span = 0.5 * (self.e_hi - self.e_lo)
        # per Chebyshev order, Lanczos m or dense-ramp node count
        self.order_counts: dict[int, int] = {}
        self.eigensolves = 0
        self.eigen_orthogonality = 0.0
        self.series_s = 0.0
        self.kinetic_s = 0.0      # the top's applications are in bound_s

    @property
    def matvecs(self) -> int:     # one per term after the first
        return sum(k * c for k, c in self.order_counts.items())

    @property
    def max_order(self) -> int:
        return max(self.order_counts, default=0)

    def _operator(self, w_eff: float, shift: float, scale: float,
                  dtype: type = float):
        """scale (H(w_eff) - shift) on phi = sqrt(J) psi blocks as one
        operator op(x, out), built once per (shift, scale, dtype, path) and
        kept until the next call.

        Dense path (``h_dense`` set): one matmul with M, the real symmetric
        2n x 2n phi-representation matrix, block-diagonal in the channels,
        the coupling w_eff scale at (i, i + n) and (i + n, i). It acts on a
        C-ordered channel-major phi block: a complex one through its real
        (2n, 2) [re, im] view, a real one as a 2n column. Each call
        rewrites only those 2n entries, through their precomputed flat
        indices.

        FFT path: op writes it for a channel-major (2, n) block x of
        ``dtype``. The kinetic part is J^-1/2 :func:`grids._mapped_gram`
        (J^-1/2 x) with ``scale`` folded into its row scale; sqrt(J) cancels
        on the potentials, one (2, n) diagonal (V - shift) scale, and on the
        coupling, the scalar w_eff scale on the channel-swapped rows. J^-1/2
        is a full (2, n) array of ``dtype``, which numpy multiplies at half
        the cost of a broadcast real row. Time in the FFT convolutions goes
        to kinetic_s.
        """
        dense = self.h_dense is not None
        key = (shift, scale, dtype, dense)
        if self._op_key != key:
            if dense:
                m = self.h_dense * scale
                m[np.diag_indices_from(m)] -= shift * scale
                self._op = m
            else:
                self._op = (self.grid._convolution[2] * scale,
                            (self.v - shift) * scale,
                            np.broadcast_to(1.0 / np.sqrt(self.grid.jac),
                                            self.v.shape).astype(dtype))
            self._op_key = key
        if dense:
            m, size = self._op, 2 * self.grid.n
            m.reshape(-1)[self._coupling_at] = w_eff * scale

            def apply(x, out):
                np.matmul(m, x.view(float).reshape(size, -1),
                          out=out.view(float).reshape(size, -1))
                return out

            return apply
        row, diag, inv_rj = self._op
        ws = w_eff * scale

        def apply(x, out):
            t0 = time.perf_counter()
            kin = _mapped_gram(self.grid, x * inv_rj, row)
            self.kinetic_s += time.perf_counter() - t0
            np.multiply(kin, inv_rj, out=out)
            out += diag * x
            out += ws * x[::-1]
            return out

        return apply

    def _lanczos(self, op, x: np.ndarray, rows: int):
        """Lanczos on the symmetric ``op`` (an :meth:`_operator`) from the
        real or complex phi block x. For m = 1, 2, ... it applies op once
        more and yields (norm, basis, d, e, b): the norm of x; the m
        orthonormal Lanczos vectors as an (m,) + x.shape view; the diagonal
        d and the off-diagonal e of the m x m tridiagonal matrix, e padded
        to one zero at m = 1 as LAPACK's tridiagonal drivers take it; and
        the norm b of the residual that the next vector carries. The caller
        stops it. Each new vector takes the three-term recurrence, then one
        classical Gram-Schmidt pass against the whole basis (two
        matrix-vector products on its (m, size) view), so the basis stays
        orthonormal to rounding. It holds ``rows`` vectors and doubles when
        full."""
        size = math.sqrt(np.vdot(x, x).real)
        basis = np.empty((rows,) + x.shape, dtype=x.dtype)
        np.multiply(x, 1.0 / size, out=basis[0])
        d, e = [], []
        for m in range(1, x.size + 1):
            if m == len(basis):
                basis = np.concatenate([basis, np.empty_like(basis)])
            flat = basis.reshape(len(basis), -1)[:m]
            v = basis[m - 1]
            w = op(v, out=basis[m])
            d.append(np.vdot(v, w).real)
            w -= d[-1] * v
            if e:
                w -= e[-1] * basis[m - 2]
            # <v_j, w> = conj(sum v_j conj(w)): no conjugate of the basis
            c = (flat @ w.conj().ravel()).conj()
            w -= (c @ flat).reshape(x.shape)
            b = math.sqrt(np.vdot(w, w).real)
            yield size, basis[:m], np.array(d), np.array(e or [0.0]), b
            if b == 0.0:        # x lies in an invariant subspace
                return
            e.append(b)
            w *= 1.0 / b

    def _top(self, w: float) -> float:
        """Largest eigenvalue of H at coupling w, by :meth:`_lanczos` on
        :meth:`_operator` at shift 0 and scale 1. It stops at the first
        m whose top Ritz pair (theta, s) has a residual b |s_m| of at most
        ``_TOP_TOL`` |theta|. Operator applications go to bound_matvecs."""
        n = self.grid.n
        # a fixed start vector, drawn in (node, channel) order, so the
        # measured top and bound_matvecs repeat from run to run
        x = np.random.default_rng(0).standard_normal(2 * n).reshape(n, 2).T
        op = self._operator(w, 0.0, 1.0)
        for _, _, d, e, b in self._lanczos(op, np.ascontiguousarray(x), 32):
            m = len(d)
            _, theta, block, split, info = dstebz(d, e, 2, 0.0, 0.0, m, m,
                                                  0.0, "E")
            s, info_s = dstein(d, e, theta[:1], block, split)
            if info or info_s:
                raise NumericsError(
                    f"top of the Lanczos matrix failed at dimension {m} "
                    f"(LAPACK dstebz info {info}, dstein info {info_s})")
            if b * abs(s[-1, 0]) <= _TOP_TOL * abs(theta[0]):
                break
        self.bound_matvecs += m
        return float(theta[0])

    def _krylov(self, phi: np.ndarray, dt: float, f: float) -> np.ndarray:
        """exp(-i H(f) dt) phi of a complex channel-major (2, n) phi block on
        the FFT path (Park & Light, J. Chem. Phys. 85, 5870 (1986)), from
        :meth:`_lanczos` on the operator the series applies,
        B = 2 (H - e_mid) / half_span. With tau = half_span dt / 2 and the
        Lanczos matrix T = S diag(theta) S^T, phi is carried to
        e^{-i e_mid dt} |phi| V^T S exp(-i tau theta) S^T e_1 at the first m
        whose error estimate, the first term of Saad's expansion of the
        error (SIAM J. Numer. Anal. 29, 209 (1992)),
        tau b |e_m^T phi_1(-i tau T) e_1| with phi_1(z) = (e^z - 1) / z, is
        at most tol. On 0.01 ps ramp steps of a 1400-point grid it matches
        the error measured against a converged series to within a factor
        1.2, where the cruder tau b |e_m^T exp(-i tau T) e_1| reads ten
        times high. Consecutive steps need nearly the same m, so the
        estimate is first taken at one below the last step's m. The m
        applications go to order_counts, the wall time to series_s."""
        t0 = time.perf_counter()
        op = self._operator(self.w_peak * f, self.e_mid,
                            2.0 / self.half_span, complex)
        tau = 0.5 * self.half_span * dt
        last = self._krylov_m
        for size, basis, d, e, b in self._lanczos(op, phi, last + 2):
            if len(d) < last - 1 and b > 0.0:
                continue
            theta, s, info = dstev(d, e, compute_v=1)
            if info:
                raise NumericsError(
                    f"Lanczos matrix of dimension {len(d)} not diagonalised "
                    f"(LAPACK dstev info {info})")
            half = s[0] * np.exp(-0.5j * tau * theta)
            # phi_1(-i x) = e^{-i x / 2} sinc(x / 2 pi), finite at x = 0
            sinc = np.sinc(tau * theta / (2.0 * np.pi))
            if tau * b * abs(s[-1] @ (half * sinc)) <= self.tol:
                break
        m = self._krylov_m = len(d)
        self.order_counts[m] = self.order_counts.get(m, 0) + 1
        z = half * np.exp(-0.5j * tau * theta)     # exp(-i tau T) e_1 = s z
        out = ((s @ z) @ basis.reshape(m, -1)).reshape(phi.shape)
        out *= size * np.exp(-1j * self.e_mid * dt)
        self.series_s += time.perf_counter() - t0
        return out

    def _coefficients(self, alpha: float, m: int = 1) -> np.ndarray:
        """Real b_k of the series c_k = 2 J_k(j alpha) (-i)^k (c_0 halved)
        for j = 1..m, one row each: c_k = b_k for even k and i b_k for odd
        k. All rows stop at the order of the last, the largest j alpha."""
        top = m * alpha
        cap = int(10.0 * abs(top)) + 100
        raw = jv(np.arange(cap + 1), top)
        big = np.nonzero(np.abs(raw) >= 0.5 * self.tol)[0]
        order = int(big[-1]) if len(big) else 0
        if order >= cap:
            raise NumericsError(
                f"Chebyshev series not converged at order cap {cap}"
            )
        k = np.arange(order + 1)
        coefs = np.empty((m, order + 1))
        coefs[-1] = raw[:order + 1]
        coefs[:-1] = jv(k, alpha * np.arange(1, m)[:, None])
        coefs *= _SIGNS[k % 4]
        coefs[:, 1:] *= 2.0
        return coefs

    def _buffer(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The term buffer, kept on the engine from call to call: its
        ``_FOLD`` slot views, each a complex (2, n) phi block, and its two
        halves as real (slots / 2, size) matrices of the slots' [re, im]
        views. Slot k sits in half k % 2, so the terms of one parity are
        contiguous rows."""
        if self._terms is None:
            ring = np.empty((2, _FOLD // 2, 2, self.grid.n), dtype=complex)
            self._terms = ([ring[k % 2, k // 2] for k in range(_FOLD)],
                           ring.view(float).reshape(2, _FOLD // 2, -1))
        return self._terms

    def _series(self, dt: float, m: int = 1):
        """run(phi, f): the (m, 2, n) states exp(-i H(f) j dt) phi,
        j = 1..m, of a channel-major (2, n) phi block from one expansion:
        e^{-i e_mid j dt} sum_k c_k(j alpha) T_k(A) phi, with
        A = (H - e_mid) / half_span, alpha = half_span dt and apply2a the
        :meth:`_operator` at (e_mid, 2 / half_span). What dt and m fix is
        taken here once: the coefficient rows, their order and the phases;
        a run sets only the coupling of its f. Each run goes to
        order_counts, the wall time to series_s.

        Each term is one application of apply2a into its slot of
        :meth:`_buffer` and one in-place subtraction. A is real, so each
        time the buffer fills, and after the last term, its even terms
        (real c_k) and its odd ones (imaginary c_k) fold into two real
        (m, .) accumulators, one GEMM each on the slots' [re, im] view, so
        the m states cost a few flops per term and element rather than m
        passes; the result combines them once.
        """
        t0 = time.perf_counter()
        coefs = self._coefficients(self.half_span * dt, m)
        order = coefs.shape[1] - 1
        slots, halves = self._buffer()
        x = slots[0]
        # per fold: its slots in use, and the coefficients of its even and
        # odd terms as Fortran-ordered (rows, m) blocks, which dgemm takes
        # without a copy
        folds = []
        for k0 in range(0, order + 1, len(slots)):
            used = min(len(slots), order + 1 - k0)
            folds.append((used, [np.ascontiguousarray(
                coefs[:, k0 + p:k0 + used:2]).T for p in (0, 1)]))
        phase = np.exp(-1j * self.e_mid * dt * np.arange(1, m + 1))[:, None]
        self.series_s += time.perf_counter() - t0

        def run(phi: np.ndarray, f: float) -> np.ndarray:
            t0 = time.perf_counter()
            apply2a = self._operator(self.w_peak * f, self.e_mid,
                                     2.0 / self.half_span, complex)
            x[...] = phi
            guard = 100.0 * float(np.abs(x).max()) + 1e-300
            acc = np.zeros((2, m, halves.shape[2]))
            # T_0 = phi, T_1 = A T_0, T_k = 2 A T_(k-1) - T_(k-2)
            prev2 = prev = x
            if order:
                prev = slots[1]
                apply2a(x, out=prev)
                prev *= 0.5
            for i, (used, blocks) in enumerate(folds):
                for nxt in slots[0 if i else 2:used]:
                    apply2a(prev, out=nxt)
                    nxt -= prev2
                    prev2, prev = prev, nxt
                # acc[p] += c_p T_p over the fold's terms of parity p, as
                # one in-place GEMM on the transposed (Fortran) arrays
                for half, coef, a in zip(halves, blocks, acc):
                    if len(coef):
                        dgemm(1.0, half[:len(coef)].T, coef, beta=1.0,
                              c=a.T, overwrite_c=1)
                # NaN fails the comparison as well as growth does
                if not np.abs(prev).max() <= guard:
                    raise SpectralBoundsError(
                        "Chebyshev recurrence is growing or not finite: "
                        "the Hamiltonian spectrum leaves the declared "
                        "bounds; re-estimate them (raise the margin or the "
                        "potential cap)")
            self.order_counts[order] = self.order_counts.get(order, 0) + 1
            out = acc[1].view(complex) * 1j
            out += acc[0].view(complex)
            out *= phase
            self.series_s += time.perf_counter() - t0
            return out.reshape((m,) + phi.shape)

        return run

    def _decompose(self, f: float) -> tuple[np.ndarray, np.ndarray]:
        """(E, V) of the coupled H(f) = V diag(E) V^T on the dense path,
        ``h_dense`` with W f on its two coupling diagonals. The last one is
        kept while f is unchanged, and freed before the next; each solve
        counts in eigensolves and its |V^T V - 1| in eigen_orthogonality."""
        if self._eigen_f != f:
            self._eigen = None
            h = self.h_dense.copy()
            h.reshape(-1)[self._coupling_at] = self.w_peak * f
            # in place on the Fortran view of the symmetric copy: the LAPACK
            # routine (dsyevd) that numpy.linalg.eigh runs, without its copy
            e, v = eigh(h.T, overwrite_a=True, check_finite=False,
                        driver="evd")
            self.eigensolves += 1
            gram = v.T @ v
            gram[np.diag_indices_from(gram)] -= 1.0
            dev = float(max(gram.max(), -gram.min()))
            self.eigen_orthogonality = max(self.eigen_orthogonality, dev)
            self._eigen, self._eigen_f = (e, v), f
        return self._eigen

    def _propagator(self, f: float, dt: float, out: np.ndarray):
        """U = V exp(-i E dt) V^T of :meth:`_decompose` (f) into the complex
        2n x 2n ``out``, as one real GEMM: V times the [re, im] view of the
        C-ordered exp(-i E dt)[:, None] V^T, formed in place (a mixed-type
        product would add a cast buffer)."""
        e, v = self._decompose(f)
        x = np.array(v.T, dtype=complex, order="C")
        x *= np.exp(-1j * dt * e)[:, None]
        np.matmul(v, x.view(float), out=out.view(float))

    def _ramp(self, phi: np.ndarray, dt: float, f_mid: np.ndarray):
        """Yield exp(-i H(f) dt) phi at each f of f_mid in turn on the dense
        path, by Chebyshev interpolation in f between exact propagators
        (see the module docstring). The p + 1 node propagators U_k form
        one complex ((p + 1) 2n, 2n) table; a step is one matrix-vector
        product of the table with phi and one sum weighted by the Lagrange
        basis at its f, all of the interval's weights taken at once. Each
        step adds p + 1 to order_counts, and the interval's wall time,
        table included, goes to series_s. The table is freed when the
        interval ends."""
        t0 = time.perf_counter()
        lo, hi = float(f_mid.min()), float(f_mid.max())
        rho = 0.25 * (hi - lo) * abs(self.w_peak * dt)
        p = 0
        while 2.0 * rho ** (p + 1) / math.factorial(p + 1) > self.tol:
            p += 1
        nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(
            np.pi * (2 * np.arange(p + 1) + 1) / (2 * p + 2))
        size = 2 * self.grid.n
        table = np.empty((p + 1, size, size), dtype=complex)
        for f, u in zip(nodes, table):
            self._propagator(f, dt, out=u)
        table = table.reshape(-1, size)
        # L_k(f) = prod_{j != k} (f - f_j) / (f_k - f_j), one row per f
        gap = nodes[:, None] - nodes
        np.fill_diagonal(gap, 1.0)
        ratio = (f_mid[:, None, None] - nodes) / gap
        ratio[:, np.arange(p + 1), np.arange(p + 1)] = 1.0
        weights = ratio.prod(axis=2)
        self.series_s += time.perf_counter() - t0
        for w in weights:
            t0 = time.perf_counter()
            phi = (w @ (table @ phi.reshape(-1)).reshape(p + 1, -1)).reshape(
                phi.shape)
            self.order_counts[p + 1] = self.order_counts.get(p + 1, 0) + 1
            self.series_s += time.perf_counter() - t0
            yield phi

    def steps(self, phi: np.ndarray, dt: float, f_mid: np.ndarray,
              const: bool):
        """Yield the (2, n) phi block after each step of an interval with
        envelope values f_mid at the step midpoints. On the FFT path a ramp
        takes one Lanczos exponential (:meth:`_krylov`) per step, and a
        constant interval one Chebyshev expansion (:meth:`_series`) per
        block of up to ``BLOCK_STEPS`` steps. The dense path is exact to
        ``tol``: a ramp interpolates the node propagators of :meth:`_ramp`,
        and a constant interval, with V diag(E) V^T = H(f) from
        :meth:`_decompose` and c = V^T phi, has phi_j = V exp(-i E j dt) c
        after j steps, taken in blocks of up to ``BLOCK_STEPS`` steps: one
        GEMM of V against the block's phased columns of c. A decomposition
        is kept while f is unchanged, so snapshots that split a constant
        interval add no eigensolve."""
        if self.h_dense is None:
            if not const:
                for f in f_mid:
                    phi = self._krylov(phi, dt, f)
                    yield phi
                return
            runs = {}
            for i in range(0, len(f_mid), BLOCK_STEPS):
                m = min(BLOCK_STEPS, len(f_mid) - i)
                if m not in runs:
                    runs[m] = self._series(dt, m)
                states = runs[m](phi, f_mid[i])
                yield from states
                phi = states[-1]
            return
        phi = np.ascontiguousarray(phi, dtype=complex)
        if not const:
            yield from self._ramp(phi, dt, f_mid)
            return
        e, v = self._decompose(f_mid[0])
        c = (v.T @ phi.view(float).reshape(-1, 2)).view(complex)[:, 0]
        # exp(-i E j dt), j = 1..BLOCK_STEPS, as one outer product
        table = np.exp(np.outer(e, -1j * dt * np.arange(
            1, min(BLOCK_STEPS, len(f_mid)) + 1)))
        for j0 in range(0, len(f_mid), BLOCK_STEPS):
            b = min(BLOCK_STEPS, len(f_mid) - j0)
            # column j is c exp(-i E (j0 + j) dt); a C-ordered complex
            # (2n, b) array is a real (2n, 2b) one, so V takes them in one
            # real GEMM
            cols = table[:, :b] * (c * np.exp(-1j * dt * j0 * e))[:, None]
            states = (v @ cols.view(float)).view(complex).T
            yield from np.ascontiguousarray(states).reshape(
                (b,) + phi.shape)


# TimeSeries.meta entries that are wall-clock seconds, so differ between
# identical runs
WALL_CLOCK_KEYS = ("bound_s", "series_s", "kinetic_s")


@dataclass
class TimeSeries:
    """Per-step populations plus full snapshots at requested times."""

    t: np.ndarray                 # a.u., one entry per recorded step edge
    pop_g: np.ndarray
    pop_e: np.ndarray
    norm: np.ndarray
    snapshots: list[TwoChannelState]
    grid: RadialGrid
    meta: dict = field(default_factory=dict)

    @property
    def t_ps(self) -> np.ndarray:
        return self.t / ps2au

    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norm - self.norm[0])))


def _knot_times(sys: CoupledSystem, plan: PropagationPlan) -> np.ndarray:
    knots = {plan.t_start, plan.t_end}
    for seg in sys.envelope.segments:
        for t in (seg.t0, seg.t1):
            if plan.t_start < t < plan.t_end:
                knots.add(t)
    for t in plan.snapshots:
        knots.add(t)
    return np.array(sorted(knots))


def _segment_shape(sys: CoupledSystem, t_mid: float) -> str:
    for seg in sys.envelope.segments:
        if seg.t0 <= t_mid <= seg.t1:
            return seg.shape
    return "const"     # outside the envelope f == 0, constant


def propagate(sys: CoupledSystem, grid: RadialGrid, plan: PropagationPlan,
              initial: TwoChannelState) -> TimeSeries:
    """Drive the state from plan.t_start to plan.t_end.

    The engine steps phi = sqrt(J) psi, taken from the initial state
    once. Populations and norm are recorded at every step edge, as
    dx sum |phi|^2 (the weights are w = J dx); snapshots are stored
    exactly at the requested times (step sizes are clipped to land on
    them), as psi = phi / sqrt(J).
    """
    ensure_same_grid(grid, initial.grid)
    for name, amp in (("ground", initial.g), ("excited", initial.e)):
        bad = np.flatnonzero(~np.isfinite(amp))
        if len(bad):
            raise DomainError(f"initial {name} amplitude is {amp[bad[0]]} "
                              f"at node {bad[0]}")
    norm = initial.norm()
    if not abs(norm - 1.0) <= 1e-6:
        raise DomainError(f"initial state norm {norm:.8f} is not 1")
    eng = _Engine(sys, grid, plan.cheb_tol, plan.spectral_margin, plan.v_cap)
    rj = np.sqrt(grid.jac)
    phi = np.array([initial.g, initial.e], dtype=complex) * rj
    t = plan.t_start
    dx = np.full(grid.n, grid.dx)

    def pops(p):
        return (np.abs(p) ** 2) @ dx

    rec_t, rec_p = [t], [pops(phi)]
    snaps = []
    want = set(float(x) for x in plan.snapshots)
    if t in want:
        snaps.append(TwoChannelState(grid, *(phi / rj), t))

    knots = _knot_times(sys, plan)
    for ta, tb in zip(knots[:-1], knots[1:]):
        const = _segment_shape(sys, 0.5 * (ta + tb)) == "const"
        dt_base = plan.dt_flat if const else plan.dt_ramp
        n_steps = max(1, int(math.ceil((tb - ta) / dt_base - 1e-12)))
        dt = (tb - ta) / n_steps
        # envelope at every step midpoint, one call per interval
        if const:
            f_mid = np.full(n_steps, sys.envelope.value(0.5 * (ta + tb)))
        else:
            f_mid = sys.envelope.value(ta + (np.arange(n_steps) + 0.5) * dt)
        for phi in eng.steps(phi, dt, f_mid, const):
            t += dt
            rec_t.append(t); rec_p.append(pops(phi))
        t = tb    # kill accumulated rounding at the knot
        rec_t[-1] = t
        if any(abs(t - s) < 1e-9 for s in want):
            snaps.append(TwoChannelState(grid, *(phi / rj), t))

    meta = {
        "e_lo": eng.e_lo, "e_hi": eng.e_hi, "v_cap": eng.cap,
        "lambda_max": eng.lambda_max, "bound_matvecs": eng.bound_matvecs,
        "bound_s": eng.bound_s,
        "matvecs": eng.matvecs, "max_order": eng.max_order,
        "order_counts": dict(sorted(eng.order_counts.items())),
        "eigensolves": eng.eigensolves,
        "eigen_orthogonality": eng.eigen_orthogonality,
        "series_s": eng.series_s, "kinetic_s": eng.kinetic_s,
        # 0: the dense path runs no FFT
        "kinetic_fft_len": 0 if eng.h_dense is not None
        else grid.kinetic_fft_len,
    }
    pg, pe = np.array(rec_p).T.copy()
    return TimeSeries(
        t=np.array(rec_t), pop_g=pg, pop_e=pe, norm=np.sqrt(pg + pe),
        snapshots=snaps, grid=grid, meta=meta,
    )
