"""Two-channel time propagation with a Chebyshev expansion of exp(-i H dt).

The pulse envelope is frozen at the midpoint of every step, which is exact
on constant segments and second-order accurate on ramps; ramp segments get
their own (smaller) step size. The spectral bounds, which set the
expansion order (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), are
measured once per run on the operator the propagator applies: the top is
the largest eigenvalue of the capped coupled H at the peak envelope value,
found by Lanczos, and the floor is min(V) - f_max W, rigorous since T is
positive semi-definite (see :func:`spectral_bounds`). Both are padded by a
configurable margin; a runaway recurrence is detected and reported rather
than silently aliased.

One state layout, one operator builder and one recurrence serve every
grid. The state is a C-ordered channel-major (2, n) complex block of psi
values, ground row first, and each Chebyshev term applies
2 A = 2 (H - e_mid) / half_span as one pre-scaled operator. Grids of up
to 256 points take the dense path: the operator is one real symmetric
2n x 2n matrix in the phi = sqrt(J) psi representation, block-diagonal in
the channels with the coupling at (i, i + n), and each term is one matmul
on the real (2n, 2) [re, im] view of the phi block. There a constant
interval, whatever its step count, is propagated exactly from one
eigendecomposition of that matrix, whose eigenvectors are the dressed
states (Kosloff, Annu. Rev. Phys. Chem. 45, 145 (1994)).
Larger grids take Chebyshev steps throughout, on the psi block itself:
the kinetic energy as two complex-FFT convolutions against the real cot
table at a 5-smooth length (see :mod:`coldpa.grids`), with 2 / half_span
folded into its row scale; the potentials as one (2, n) diagonal; the
coupling as one scalar on the channel-swapped rows. The Lanczos estimate
of the top applies the same operator at shift 0 and scale 1.
Both paths time their steps (``series_s`` in :attr:`TimeSeries.meta`),
and the FFT path its convolutions (``kinetic_s``).

Short-range repulsive walls can tower orders of magnitude above every
energy the dynamics visits and would inflate the expansion order, so the
propagator caps the potentials at a configurable ceiling (default: highest
asymptote plus the kinetic capacity). Eigensolves elsewhere never cap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import block_diag
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import jv

from .errors import DomainError, NumericsError, SpectralBoundsError
from .grids import (RadialGrid, TwoChannelState, _mapped_gram,
                    ensure_same_grid)
from .potentials import CoupledSystem
from .spectrum import hamiltonian_matrix
from .units import ps2au


@dataclass(frozen=True)
class PropagationPlan:
    """Stepping policy and observation schedule (times in a.u.)."""

    t_start: float
    t_end: float
    dt_ramp: float = 0.01 * ps2au
    dt_flat: float = 0.5 * ps2au
    cheb_tol: float = 1e-14
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


def spectral_bounds(sys: CoupledSystem, grid: RadialGrid,
                    v_cap: float = None, margin: float = 0.05):
    """(e_lo, e_hi, cap): the interval the propagator declares for the
    coupled Hamiltonian H(f) at every envelope value 0 <= f <= f_max.

    cap is the potential ceiling applied inside the propagator. The top
    is lambda_max(H(f_max)), measured by Lanczos. It bounds every step:
    lambda_max(H0 + f C) is a maximum of functions linear in f, so it is
    convex in f, and it is even in f, since flipping the sign of the
    excited channel maps H(f) to H(-f); so it grows with |f|. The floor
    min(V) - f_max W is rigorous, since T is positive semi-definite. The
    span between them is padded by ``margin`` on each side.
    """
    eng = _Engine(sys, grid, 1e-14, margin, v_cap)
    return eng.e_lo, eng.e_hi, eng.cap


# sign of c_k = 2 J_k (-i)^k in its real (even k) or imaginary (odd k) part
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


class _Engine:
    """Cached arrays and the propagation kernels for one (sys, grid) pair,
    on C-ordered channel-major (2, n) psi blocks, ground row first."""

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
        self.sqrt_j = np.sqrt(grid.jac)
        self.w_peak = sys.coupling
        # dense kinetic matvec wins below a few hundred points
        self.h_dense = (block_diag(*(hamiltonian_matrix(v, grid)
                                     for v in self.v))
                        if grid.n <= 256 else None)
        self._op, self._op_key = None, None
        self._coef_cache: dict[float, np.ndarray] = {}
        self.bound_matvecs = 0
        self.kinetic_s = 0.0      # _top's FFT applications add to it
        w_max = sys.coupling * sys.envelope.flat_value
        self.lambda_max = self._top(w_max)
        lo = float(self.v.min()) - w_max
        pad = margin * (self.lambda_max - lo)
        self.e_lo, self.e_hi = lo - pad, self.lambda_max + pad
        self.e_mid = 0.5 * (self.e_hi + self.e_lo)
        self.half_span = 0.5 * (self.e_hi - self.e_lo)
        self.matvecs = 0
        self.max_order = 0
        self.eigensolves = 0
        self.eigen_orthogonality = 0.0
        self.series_s = 0.0
        self.kinetic_s = 0.0      # the Lanczos applications are not steps

    def _operator(self, w_eff: float, shift: float, scale: float):
        """scale (H(w_eff) - shift) as one operator, built once per
        (shift, scale, path) and kept until the next call.

        Dense path (``h_dense`` set): ``partial(np.matmul, M)`` with M the
        real symmetric 2n x 2n phi-representation matrix, block-diagonal in
        the channels, the coupling w_eff scale at (i, i + n) and (i + n, i);
        it acts on a channel-major phi = sqrt(J) psi block, as a 2n vector
        or its real (2n, 2) [re, im] view. A new w_eff rewrites only those
        2n entries.

        FFT path: apply(x, out) writes it for a channel-major (2, n) block x
        of psi values, real or complex. The kinetic part is
        :func:`grids._mapped_gram` with ``scale`` folded into its row scale,
        then divided by J; the potentials are one (2, n) diagonal
        (V - shift) scale, and the coupling the scalar w_eff scale on the
        channel-swapped rows. Time in the FFT convolutions goes to
        kinetic_s.
        """
        dense = self.h_dense is not None
        key = (shift, scale, dense)
        if self._op_key != key:
            if dense:
                m = self.h_dense * scale
                m[np.diag_indices_from(m)] -= shift * scale
                self._op = m
            else:
                self._op = (self.grid._convolution[4] * scale,
                            (self.v - shift) * scale)
            self._op_key = key
        if dense:
            n, m = self.grid.n, self._op
            np.fill_diagonal(m[:n, n:], w_eff * scale)
            np.fill_diagonal(m[n:, :n], w_eff * scale)
            return partial(np.matmul, m)
        row, diag = self._op
        inv_j, ws = self.grid._convolution[3], w_eff * scale

        def apply(x, out):
            t0 = time.perf_counter()
            kin = _mapped_gram(self.grid, x, row)
            self.kinetic_s += time.perf_counter() - t0
            np.multiply(kin, inv_j, out=out)
            out += diag * x
            out += ws * x[::-1]
            return out

        return apply

    def _top(self, w: float) -> float:
        """Largest eigenvalue of H at coupling w, by Lanczos (ARPACK) on
        the symmetric phi representation: :meth:`_operator` at shift 0 and
        scale 1, conjugated by sqrt(J) on the FFT path. Vectors are
        channel-major 2n vectors of phi. Operator applications go to
        bound_matvecs."""
        n = self.grid.n
        h_op = self._operator(w, 0.0, 1.0)

        def matvec(x):
            self.bound_matvecs += 1
            if self.h_dense is not None:
                return h_op(x)
            psi = x.reshape(2, n) / self.sqrt_j
            return (h_op(psi, np.empty_like(psi)) * self.sqrt_j).ravel()

        op = LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=float)
        # a fixed start vector, drawn in (node, channel) order, so the
        # measured top and bound_matvecs repeat from run to run
        v0 = np.random.default_rng(0).standard_normal(2 * n)
        return float(eigsh(op, k=1, which="LA", v0=v0.reshape(n, 2).T.ravel(),
                           tol=1e-6, return_eigenvectors=False)[0])

    def _coefficients(self, alpha: float) -> np.ndarray:
        """Real b_k of the series c_k = 2 J_k(alpha) (-i)^k (c_0 halved):
        c_k = b_k for even k and i b_k for odd k."""
        coefs = self._coef_cache.get(alpha)
        if coefs is not None:
            return coefs
        cap = int(10.0 * abs(alpha)) + 100
        raw = jv(np.arange(cap + 1), alpha)
        big = np.nonzero(np.abs(raw) >= 0.5 * self.tol)[0]
        order = int(big[-1]) if len(big) else 0
        if order >= cap:
            raise NumericsError(
                f"Chebyshev series not converged at order cap {cap}"
            )
        coefs = raw[:order + 1] * _SIGNS[np.arange(order + 1) % 4]
        coefs[1:] *= 2.0
        self._coef_cache[alpha] = coefs
        return coefs

    def _series(self, x: np.ndarray, dt: float, apply2a) -> np.ndarray:
        """exp(-i H dt) psi = e^{-i e_mid dt} sum_k c_k T_k(A) psi, with
        A = (H - e_mid) / half_span and apply2a(cur, out=nxt) the
        :meth:`_operator` at (e_mid, 2 / half_span), writing 2 A cur into
        nxt. x is the channel-major state: on the dense path the real
        (2n, 2) [re, im] view of the phi block, on the FFT path the complex
        (2, n) psi block.

        A is real, so the even terms (real c_k) and the odd ones
        (imaginary c_k) gather in two accumulators of x's type, combined
        into the complex result once. One matvec is counted per term
        after the first.
        """
        coefs = self._coefficients(self.half_span * dt)
        order = len(coefs) - 1
        guard = 100.0 * float(np.max(np.abs(x))) + 1e-300
        acc = [coefs[0] * x, np.zeros_like(x)]
        prev, cur, nxt = np.empty_like(x), x.copy(), np.empty_like(x)
        for k in range(1, order + 1):
            # nxt = 2 A cur, then T_1 = A T_0, T_k = 2 A T_(k-1) - T_(k-2)
            apply2a(cur, out=nxt)
            if k == 1:
                nxt *= 0.5
            else:
                nxt -= prev
            prev, cur, nxt = cur, nxt, prev
            acc[k & 1] += coefs[k] * cur
            if k % 16 == 0 and float(np.max(np.abs(cur))) > guard:
                raise SpectralBoundsError(
                    "Chebyshev recurrence is growing: the Hamiltonian "
                    "spectrum leaves the declared bounds; re-estimate "
                    "them (raise the margin or the potential cap)"
                )
        self.matvecs += order
        self.max_order = max(self.max_order, order)
        even, odd = acc
        if not np.iscomplexobj(x):
            even, odd = even.view(complex), odd.view(complex)
        return (even + 1j * odd) * np.exp(-1j * self.e_mid * dt)

    def step(self, psi: np.ndarray, dt: float, f_mid: float) -> np.ndarray:
        """exp(-i H(f_mid) dt) applied to a channel-major (2, n) block;
        the wall time goes to series_s. The dense path runs the series on
        phi = sqrt(J) psi, so sqrt(J) is applied once per step."""
        t0 = time.perf_counter()
        psi = np.ascontiguousarray(psi, dtype=complex)
        op = self._operator(self.w_peak * f_mid, self.e_mid,
                            2.0 / self.half_span)
        if self.h_dense is None:
            out = self._series(psi, dt, op)
        else:
            phi = (psi * self.sqrt_j).view(float).reshape(-1, 2)
            out = self._series(phi, dt, op).reshape(psi.shape) / self.sqrt_j
        self.series_s += time.perf_counter() - t0
        return out

    def steps(self, psi: np.ndarray, dt: float, f_mid: np.ndarray,
              const: bool):
        """Yield the (2, n) state after each step of an interval with
        envelope values f_mid at the step midpoints: Chebyshev steps,
        except on a constant interval of the dense path, which is exact
        from one eigendecomposition of the :meth:`_operator` matrix,
        2 A = V diag(lam) V^T, c = V^T phi, phi = V c."""
        if not const or self.h_dense is None:
            for f in f_mid:
                psi = self.step(psi, dt, f)
                yield psi
            return
        # eigenvalues of 2 A are 2 (E - e_mid) / half_span: both paths
        # propagate the same operator
        op = self._operator(self.w_peak * f_mid[0], self.e_mid,
                            2.0 / self.half_span)
        lam, v = np.linalg.eigh(op.args[0])
        self.eigensolves += 1
        dev = float(np.abs(v.T @ v - np.eye(len(v))).max())
        self.eigen_orthogonality = max(self.eigen_orthogonality, dev)
        phase = np.exp(-1j * (self.e_mid + 0.5 * self.half_span * lam) * dt)
        phi = np.ascontiguousarray(psi, dtype=complex) * self.sqrt_j
        c = (v.T @ phi.view(float).reshape(-1, 2)).view(complex)[:, 0]
        v /= np.tile(self.sqrt_j, 2)[:, None]       # so that V c is psi
        for _ in f_mid:
            c *= phase
            # a C-ordered real (2n, 2) [re, im] array is a complex 2n vector
            psi = (v @ c.view(float).reshape(-1, 2)).view(complex)
            yield psi.reshape(phi.shape)


def step(sys: CoupledSystem, grid: RadialGrid, state: TwoChannelState,
         dt: float, f: float = None, tol: float = 1e-14,
         margin: float = 0.05, v_cap: float = None) -> TwoChannelState:
    """Single frozen-envelope step; f defaults to the envelope at the
    midpoint of [state.t, state.t + dt]."""
    ensure_same_grid(grid, state.grid)
    eng = _Engine(sys, grid, tol, margin, v_cap)
    if f is None:
        f = float(sys.envelope.value(state.t + 0.5 * dt))
    psi = eng.step(np.array([state.g, state.e]), dt, f)
    return TwoChannelState(grid, *psi, state.t + dt)


# TimeSeries.meta entries that are wall-clock seconds, so differ between
# identical runs
WALL_CLOCK_KEYS = ("series_s", "kinetic_s")


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

    def final(self) -> TwoChannelState:
        if not self.snapshots:
            raise DomainError("run recorded no snapshots")
        return self.snapshots[-1]


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

    Populations and norm are recorded at every step edge; snapshots are
    stored exactly at the requested times (step sizes are clipped to land
    on them).
    """
    ensure_same_grid(grid, initial.grid)
    if abs(initial.norm() - 1.0) > 1e-6:
        raise DomainError(
            f"initial state norm {initial.norm():.8f} is not 1"
        )
    eng = _Engine(sys, grid, plan.cheb_tol, plan.spectral_margin, plan.v_cap)
    psi = np.array([initial.g, initial.e], dtype=complex)
    t = plan.t_start

    def pops(p):
        return (p.real ** 2 + p.imag ** 2) @ grid.w

    rec_t, rec_p = [t], [pops(psi)]
    snaps = []
    want = set(float(x) for x in plan.snapshots)
    if t in want:
        snaps.append(TwoChannelState(grid, *psi, t))

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
        for psi in eng.steps(psi, dt, f_mid, const):
            t += dt
            rec_t.append(t); rec_p.append(pops(psi))
        t = tb    # kill accumulated rounding at the knot
        rec_t[-1] = t
        if any(abs(t - s) < 1e-9 for s in want):
            snaps.append(TwoChannelState(grid, *psi, t))

    meta = {
        "e_lo": eng.e_lo, "e_hi": eng.e_hi, "v_cap": eng.cap,
        "lambda_max": eng.lambda_max, "bound_matvecs": eng.bound_matvecs,
        "matvecs": eng.matvecs, "max_order": eng.max_order,
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
