"""Two-channel time propagation with a Chebyshev expansion of exp(-i H dt).

The pulse envelope is frozen at the midpoint of every step, which is exact
on constant segments and second-order accurate on ramps; ramp segments get
their own (smaller) step size. Spectral bounds enclose both channel
potentials, the peak coupling, and the grid's kinetic capacity, padded by a
configurable margin; a runaway recurrence is detected and reported rather
than silently aliased.

Grids of up to 256 points take the dense path: the coupled Hamiltonian is
one real 2n x 2n matrix and each Chebyshev term is one matmul on the real
(2n, 2) [re, im] view of the state. Larger grids apply the kinetic energy
by sine/cosine transforms. On the dense path a constant segment of more
than n steps builds U(dt, f) = exp(-i H(f) dt) once, by running the same
recurrence on the 2n identity columns, and then takes each step as one
complex matvec; ramps never build one. Timed on 2 vCPUs, a build pays for
itself after 14-18 steps at n=64 and about 47 at n=256, whatever the
order, so the cut at n leaves a margin of 3.5 or more; in flops alone
(no per-term overhead, matmul as fast as matvec) the break-even is
n * order / (order - 2), within a few percent of n at the orders used.

Short-range repulsive walls can tower orders of magnitude above every
energy the dynamics visits and would inflate the expansion order, so the
propagator caps the potentials at a configurable ceiling (default: highest
asymptote plus the kinetic capacity). Eigensolves elsewhere never cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import jv

from .errors import DomainError, NumericsError, SpectralBoundsError
from .grids import (RadialGrid, TwoChannelState, apply_kinetic,
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
    cheb_tol: float = 1e-14
    spectral_margin: float = 0.05
    v_cap: float | None = None
    snapshots: tuple[float, ...] = ()

    def __post_init__(self):
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
    """(e_lo, e_hi, cap): enclosing interval for the coupled Hamiltonian.

    cap is the potential ceiling actually applied inside the propagator.
    """
    t_max = grid.k_max**2 / (2.0 * grid.mu)
    if v_cap is None:
        v_cap = max(sys.ground.asymptote, sys.excited.asymptote) + t_max
    vg = np.minimum(sys.ground.value(grid.r), v_cap)
    ve = np.minimum(sys.excited.value(grid.r), v_cap)
    w = sys.coupling * sys.envelope.flat_value
    lo = float(min(vg.min(), ve.min())) - w
    hi = float(max(vg.max(), ve.max())) + w + t_max
    span = hi - lo
    return lo - margin * span, hi + margin * span, v_cap


class _Engine:
    """Cached arrays and the Chebyshev kernel for one (sys, grid) pair."""

    def __init__(self, sys: CoupledSystem, grid: RadialGrid,
                 tol: float, margin: float, v_cap: float = None):
        self.sys = sys
        self.grid = grid
        self.tol = tol
        e_lo, e_hi, cap = spectral_bounds(sys, grid, v_cap, margin)
        self.e_lo, self.e_hi, self.cap = e_lo, e_hi, cap
        self.e_mid = 0.5 * (e_hi + e_lo)
        self.half_span = 0.5 * (e_hi - e_lo)
        self.vg = np.minimum(sys.ground.value(grid.r), cap)
        self.ve = np.minimum(sys.excited.value(grid.r), cap)
        self.w_peak = sys.coupling
        # dense kinetic matvec wins below a few hundred points
        self.h_dense = self._dense_hamiltonian() if grid.n <= 256 else None
        self._coef_cache: dict[float, np.ndarray] = {}
        self.matvecs = 0
        self.max_order = 0
        self.propagator_builds = 0

    def _dense_hamiltonian(self) -> np.ndarray:
        """Uncoupled H as one real 2n x 2n matrix, channels interleaved
        (index 2i ground, 2i+1 excited at node i), so that a C-ordered
        (n, 2) pair is a 2n vector without a copy."""
        grid = self.grid
        t_phi = kinetic_matrix(grid)
        if grid.jac is not None:
            rj = np.sqrt(grid.jac)
            t_phi = (t_phi * rj[None, :]) / rj[:, None]
        h = np.zeros((2 * grid.n, 2 * grid.n))
        h[0::2, 0::2] = t_phi + np.diag(self.vg)
        h[1::2, 1::2] = t_phi + np.diag(self.ve)
        return h

    def apply_h(self, pair: np.ndarray, w_eff: float) -> np.ndarray:
        """H acting on stacked channels, pair shape (n, 2)."""
        out = apply_kinetic(self.grid, pair)
        out[:, 0] += self.vg * pair[:, 0] + w_eff * pair[:, 1]
        out[:, 1] += self.ve * pair[:, 1] + w_eff * pair[:, 0]
        return out

    def _scaled_dense(self, w_eff: float) -> np.ndarray:
        """(H(w_eff) - e_mid) / half_span as a real 2n x 2n matrix."""
        inv = 1.0 / self.half_span
        a = self.h_dense * inv
        i = np.arange(len(a))
        a[i, i] -= self.e_mid * inv
        a[i, i ^ 1] = w_eff * inv      # couples the two channels of a node
        return a

    def _coefficients(self, alpha: float) -> np.ndarray:
        coefs = self._coef_cache.get(alpha)
        if coefs is not None:
            return coefs
        cap = int(10.0 * abs(alpha)) + 100
        raw = jv(np.arange(cap + 1), alpha)
        big = np.nonzero(np.abs(raw) >= 0.5 * self.tol)[0]
        if len(big) == 0:
            order = 0
        else:
            order = int(big[-1])
        if order >= cap:
            raise NumericsError(
                f"Chebyshev series not converged at order cap {cap}"
            )
        coefs = raw[:order + 1] * (-1j) ** np.arange(order + 1)
        coefs[1:] *= 2.0
        self._coef_cache[alpha] = coefs
        return coefs

    def _series(self, apply_a, v: np.ndarray, dt: float) -> np.ndarray:
        """exp(-i H dt) v = e^{-i e_mid dt} sum_k c_k T_k(A) v, with
        A = (H - e_mid) / half_span applied by apply_a.

        A is real, so v may be real or complex, and each column of v is
        propagated on its own. One matvec is counted per term after the
        first.
        """
        coefs = self._coefficients(self.half_span * dt)
        order = len(coefs) - 1
        guard = 100.0 * float(np.max(np.abs(v))) + 1e-300
        acc = coefs[0] * v
        if order > 0:
            phi_prev, phi = v, apply_a(v)
            acc += coefs[1] * phi
            for k in range(2, order + 1):
                phi_prev, phi = phi, 2.0 * apply_a(phi) - phi_prev
                acc += coefs[k] * phi
                if k % 16 == 0 and float(np.max(np.abs(phi))) > guard:
                    raise SpectralBoundsError(
                        "Chebyshev recurrence is growing: the Hamiltonian "
                        "spectrum leaves the declared bounds; re-estimate "
                        "them (raise the margin or the potential cap)"
                    )
        self.matvecs += order
        self.max_order = max(self.max_order, order)
        return acc * np.exp(-1j * self.e_mid * dt)

    def step(self, pair: np.ndarray, dt: float, f_mid: float) -> np.ndarray:
        """exp(-i H(f_mid) dt) applied to stacked channels."""
        w_eff = self.w_peak * f_mid
        if self.h_dense is None:
            inv = 1.0 / self.half_span

            def apply_a(x):
                return (self.apply_h(x, w_eff) - self.e_mid * x) * inv

            return self._series(apply_a, pair, dt)
        pair = np.ascontiguousarray(pair, dtype=complex)
        # real (2n, 2) [re, im] view: each term is one real matmul
        acc = self._series(self._scaled_dense(w_eff).__matmul__,
                           pair.view(float).reshape(-1, 2), dt)
        return (acc[:, 0] + 1j * acc[:, 1]).reshape(pair.shape)

    def propagator(self, dt: float, f: float) -> np.ndarray:
        """Dense exp(-i H(f) dt) as a complex 2n x 2n matrix: the
        recurrence run on the 2n identity columns."""
        self.propagator_builds += 1
        return self._series(self._scaled_dense(self.w_peak * f).__matmul__,
                            np.eye(len(self.h_dense)), dt)


def step(sys: CoupledSystem, grid: RadialGrid, state: TwoChannelState,
         dt: float, f: float = None, tol: float = 1e-14,
         margin: float = 0.05, v_cap: float = None) -> TwoChannelState:
    """Single frozen-envelope step; f defaults to the envelope at the
    midpoint of [state.t, state.t + dt]."""
    ensure_same_grid(grid, state.grid)
    eng = _Engine(sys, grid, tol, margin, v_cap)
    if f is None:
        f = float(sys.envelope.value(state.t + 0.5 * dt))
    pair = eng.step(np.column_stack([state.g, state.e]), dt, f)
    return TwoChannelState(grid, pair[:, 0], pair[:, 1], state.t + dt)


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
    pair = np.column_stack([initial.g, initial.e]).astype(complex)
    t = plan.t_start

    def pops(p):
        w = grid.w
        return (float(np.sum(np.abs(p[:, 0]) ** 2 * w)),
                float(np.sum(np.abs(p[:, 1]) ** 2 * w)))

    rec_t, rec_g, rec_e, rec_n = [t], [], [], []
    pg, pe = pops(pair)
    rec_g.append(pg); rec_e.append(pe); rec_n.append(math.sqrt(pg + pe))
    snaps = []
    want = set(float(x) for x in plan.snapshots)
    if t in want:
        snaps.append(TwoChannelState(grid, pair[:, 0].copy(),
                                     pair[:, 1].copy(), t))

    cached_steps = 0
    knots = _knot_times(sys, plan)
    for ta, tb in zip(knots[:-1], knots[1:]):
        const = _segment_shape(sys, 0.5 * (ta + tb)) == "const"
        dt_base = plan.dt_flat if const else plan.dt_ramp
        n_steps = max(1, int(math.ceil((tb - ta) / dt_base - 1e-12)))
        dt = (tb - ta) / n_steps
        u = None
        if const:
            f_mid = float(sys.envelope.value(0.5 * (ta + tb)))
            # measured break-even is well below n steps: module docstring
            if eng.h_dense is not None and n_steps > grid.n:
                u = eng.propagator(dt, f_mid)
        for _ in range(n_steps):
            if u is not None:
                pair = (u @ pair.reshape(-1)).reshape(pair.shape)
                cached_steps += 1
            else:
                if not const:
                    f_mid = float(sys.envelope.value(t + 0.5 * dt))
                pair = eng.step(pair, dt, f_mid)
            t += dt
            pg, pe = pops(pair)
            rec_t.append(t); rec_g.append(pg); rec_e.append(pe)
            rec_n.append(math.sqrt(pg + pe))
        t = tb    # kill accumulated rounding at the knot
        rec_t[-1] = t
        if any(abs(t - s) < 1e-9 for s in want):
            snaps.append(TwoChannelState(grid, pair[:, 0].copy(),
                                         pair[:, 1].copy(), t))

    meta = {
        "e_lo": eng.e_lo, "e_hi": eng.e_hi, "v_cap": eng.cap,
        "matvecs": eng.matvecs, "max_order": eng.max_order,
        "propagator_builds": eng.propagator_builds,
        "cached_steps": cached_steps,
    }
    return TimeSeries(
        t=np.array(rec_t), pop_g=np.array(rec_g), pop_e=np.array(rec_e),
        norm=np.array(rec_n), snapshots=snaps, grid=grid, meta=meta,
    )
