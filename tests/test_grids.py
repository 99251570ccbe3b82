import re

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.linalg import eigh

from coldpa.errors import (DomainError, GridCapacityError, GridMismatchError,
                           RangeError)
from coldpa.grids import (MomentumSpectrum, RadialGrid, TwoChannelState,
                          apply_kinetic, apply_kinetic_phi, build_adaptive,
                          build_grid, build_uniform, ensure_same_grid,
                          from_momentum, gaussian, inner, kinetic_matrix,
                          normalize, same_grid, to_momentum)
from coldpa.potentials import reference_system
from coldpa.spectrum import _refined
from coldpa.units import ps2au

MU = 2000.0


def _morse(r, de=0.01, a=0.8, re=4.0):
    x = np.exp(-a * (np.asarray(r, dtype=float) - re))
    return de * (x * x - 2.0 * x)


def _adaptive(n=300, e_env=0.002):
    return build_adaptive(_morse, MU, n, 1.5, 30.0, e_env=e_env)


# --- construction -------------------------------------------------------------

def test_uniform_nodes_and_weights():
    g = build_uniform(2.0, 12.0, 99, MU)
    assert g.n == 99
    dr = 10.0 / 100
    np.testing.assert_allclose(np.diff(g.r), dr, rtol=1e-13)
    assert g.r[0] == pytest.approx(2.0 + dr)
    assert g.r[-1] == pytest.approx(12.0 - dr)
    np.testing.assert_allclose(g.w, dr)
    assert g.k_max == pytest.approx(np.pi / dr)
    # a uniform grid is the mapped grid with J == 1
    assert np.array_equal(g.jac, np.ones(99))
    assert np.array_equal(g.jac_full, np.ones(g.n + 2))


def test_uniform_rejects_bad_box():
    with pytest.raises(DomainError):
        build_uniform(5.0, 2.0, 64, MU)
    with pytest.raises(DomainError):
        build_uniform(2.0, 5.0, 4, MU)
    with pytest.raises(DomainError):
        RadialGrid(r=np.array([1.0, 2.0]), w=np.ones(2), r_lo=0.5, r_hi=3.0,
                   mu=-1.0, kind="uniform", dx=1.0, kx=np.ones(2))
    # every per-node array must match the nodes and be finite and positive
    good = dict(r=np.array([1.0, 2.0]), w=np.ones(2), r_lo=0.5, r_hi=3.0,
                mu=1.0, kind="adaptive", dx=1.0, kx=np.ones(2),
                jac=np.ones(2), jac_full=np.ones(4))
    RadialGrid(**good)
    for name, bad in [("w", np.ones(3)), ("kx", np.ones(1)),
                      ("jac", np.ones(3)), ("jac_full", np.ones(2)),
                      ("jac", None), ("jac_full", None),
                      ("w", np.array([1.0, 0.0])),
                      ("kx", np.array([1.0, np.nan])),
                      ("jac", np.array([1.0, -1.0])),
                      ("jac_full", np.array([1.0, 1.0, np.inf, 1.0]))]:
        with pytest.raises(DomainError, match=rf"\b{name}\b"):
            RadialGrid(**{**good, name: bad})


def test_adaptive_spacing_criterion():
    # construction guarantees dr(r) <= beta * pi / k_loc(r) at every node
    beta, e_env = 0.7, 0.002
    g = build_adaptive(_morse, MU, 200, 1.5, 30.0, beta=beta, e_env=e_env)
    k_loc = np.sqrt(2.0 * MU * (e_env - np.minimum(_morse(g.r), _morse(30.0))))
    assert np.all(g.dr_local <= beta * np.pi / k_loc * (1 + 1e-12))


def test_adaptive_denser_in_the_well():
    g = _adaptive()
    i_min = np.argmin(g.dr_local)
    assert abs(g.r[i_min] - 4.0) < 2.0          # well bottom at re = 4
    # spacing ratio tracks sqrt of the local-momentum ratio:
    # sqrt((e_env + de) / e_env) = sqrt(0.012 / 0.002)
    ratio = g.dr_local[-1] / g.dr_local[i_min]
    assert ratio == pytest.approx(np.sqrt(6.0), rel=0.05)


def test_adaptive_capacity_error_reports_requirement():
    with pytest.raises(GridCapacityError) as err:
        build_adaptive(_morse, MU, 10, 1.5, 30.0, e_env=0.002)
    need = int(re.search(r"need at least (\d+)", str(err.value)).group(1))
    assert need > 10
    g = build_adaptive(_morse, MU, need, 1.5, 30.0, e_env=0.002)
    assert g.n == need


def test_adaptive_validation():
    with pytest.raises(DomainError):
        build_adaptive(_morse, MU, 100, 1.5, 30.0, beta=1.5)
    with pytest.raises(DomainError):
        # e_env below the envelope ceiling
        build_adaptive(_morse, MU, 100, 1.5, 30.0, e_env=-1.0)
    with pytest.raises(DomainError):
        # flat envelope has no well, so the default e_env cannot be set
        build_adaptive(lambda r: np.full_like(np.asarray(r, float), -0.01),
                       MU, 100, 1.5, 30.0)


def test_build_grid_guards():
    sys_ = reference_system()
    wlo, whi = sys_.working_range
    with pytest.raises(RangeError):
        build_grid(sys_, 256, wlo - 0.5, 100.0)
    with pytest.raises(RangeError):
        build_grid(sys_, 256, wlo, whi + 1.0)
    with pytest.raises(DomainError):
        build_grid(sys_, 256, wlo, 100.0, kind="chebyshev")
    g = build_grid(sys_, 256, wlo, 100.0)
    assert g.kind == "uniform" and g.mu == sys_.mu


# --- kinetic operator ---------------------------------------------------------

def test_uniform_kinetic_eigenfunctions_exact():
    # sine modes of the box are exact eigenfunctions with (m pi / L)^2 / 2 mu
    g = build_uniform(2.0, 22.0, 128, MU)
    length = g.r_hi - g.r_lo
    for m in (1, 2, 7, 64, 128):
        u = np.sin(m * np.pi * (g.r - g.r_lo) / length)
        ev = (m * np.pi / length) ** 2 / (2.0 * MU)
        np.testing.assert_allclose(apply_kinetic(g, u), ev * u,
                                   rtol=1e-11, atol=1e-16)


def test_constant_jacobian_matches_uniform():
    # a flat envelope makes J constant; the mapped operator must then
    # reproduce the uniform spectrum exactly
    flat = lambda r: np.full_like(np.asarray(r, float), -0.01)
    g = build_adaptive(flat, MU, 64, 2.0, 12.0, e_env=-0.005)
    assert g.jac is not None
    np.testing.assert_allclose(g.jac, 10.0, rtol=1e-12)
    evals = np.linalg.eigvalsh(kinetic_matrix(g))
    m = np.arange(1, 65)
    np.testing.assert_allclose(np.sort(evals),
                               (m * np.pi / 10.0) ** 2 / (2.0 * MU),
                               rtol=1e-10)


def test_kinetic_matrix_symmetric_psd():
    g = _adaptive(n=120)
    t = apply_kinetic_phi(g, np.eye(g.n))
    asym = np.max(np.abs(t - t.T)) / np.max(np.abs(t))
    assert asym < 1e-12
    evals = np.linalg.eigvalsh(kinetic_matrix(g))
    assert evals[0] > -1e-12 * evals[-1]


# n = 120 adaptive, its refinement n = 241, and a uniform grid (J == 1)
@pytest.mark.parametrize("refine", [False, True,
                                    pytest.param(None, id="uniform")])
def test_kinetic_matrix_closed_form_matches_transforms(refine):
    if refine is None:
        g = build_uniform(2.0, 12.0, 99, MU)
    else:
        g = _adaptive(n=120)
        if refine:
            g = _refined(g)
    t = apply_kinetic_phi(g, np.eye(g.n))
    ref = 0.5 * (t + t.T)
    tk = kinetic_matrix(g)
    np.testing.assert_allclose(tk, ref, rtol=0,
                               atol=1e-12 * np.max(np.abs(ref)))
    assert np.array_equal(tk, tk.T)
    # C-ordered, so LAPACK overwrites it in place through tk.T
    assert tk.flags.c_contiguous and tk.T.flags.f_contiguous
    evals = np.linalg.eigvalsh(tk)
    assert evals[0] > -1e-12 * evals[-1]


def test_kinetic_ceiling_covers_mapped_spectrum():
    # the propagator's bounds take k_max^2 / 2 mu as the kinetic ceiling
    g = build_grid(reference_system(), 1400, 2.0, 200.0, kind="adaptive")
    top = eigh(kinetic_matrix(g), eigvals_only=True,
               subset_by_index=(g.n - 1, g.n - 1))[0]
    assert g.k_max**2 / (2.0 * g.mu) >= top


def _four_transform_kinetic(g, phi):
    """The mapped kinetic step written out as transforms: DST-I, pad onto
    the cosine nodes, DCT-I, divide by J_full, DCT-I, DST-I. At J == 1 the
    two DCT-I cancel and this is the sine-basis operator DST k^2 DST."""
    def dst(x):
        return sfft.dst(x, type=1, norm="ortho", axis=0)

    def dct(x):
        return sfft.dct(x, type=1, norm="ortho", axis=0)

    col = (slice(None),) + (None,) * (phi.ndim - 1)
    kx, rj = g.kx[col], np.sqrt(g.jac)[col]
    b = np.pad(dst(phi / rj) * kx, [(1, 1)] + [(0, 0)] * (phi.ndim - 1))
    c = dct(dct(b) / g.jac_full[col])
    return dst(c[1:-1] * kx) / rj / (2.0 * g.mu)


@pytest.mark.parametrize("which", ["n120", "n241", "n1400", "uniform"])
def test_mapped_kinetic_matches_four_transform_oracle(which):
    if which == "n1400":
        g = build_grid(reference_system(), 1400, 2.0, 200.0, kind="adaptive")
    elif which == "uniform":
        g = build_uniform(2.0, 22.0, 300, MU)
    else:
        g = _adaptive(n=120)
        if which == "n241":
            g = _refined(g)
    rng = np.random.default_rng(19)
    block = (rng.standard_normal((g.n, 5))
             + 1j * rng.standard_normal((g.n, 5)))
    t = kinetic_matrix(g)
    for x in (rng.standard_normal(g.n), block[:, 0], block[:, :3],
              block[:, 1::2]):
        out = apply_kinetic_phi(g, x)
        assert out.shape == x.shape and out.dtype == x.dtype
        tol = 1e-12 * np.max(np.abs(out))
        np.testing.assert_allclose(out, _four_transform_kinetic(g, x),
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(out, t @ x, rtol=0, atol=tol)


@pytest.mark.parametrize("which", ["real_n3", "fortran_complex_n2",
                                   "real_vector_n1400"])
def test_public_kinetic_keeps_its_contract(which):
    # both public kinetic functions take (n,) and (n, m) input, real or
    # complex, in any memory order, and return its shape and dtype
    rng = np.random.default_rng(23)
    if which == "real_vector_n1400":
        g = build_grid(reference_system(), 1400, 2.0, 200.0, kind="adaptive")
        x = rng.standard_normal(g.n)
    else:
        g = _adaptive(n=120)
        if which == "real_n3":
            x = rng.standard_normal((g.n, 3))
        else:
            x = np.asfortranarray(rng.standard_normal((g.n, 2))
                                  + 1j * rng.standard_normal((g.n, 2)))
    t = kinetic_matrix(g)
    rj = np.sqrt(g.jac).reshape((-1,) + (1,) * (x.ndim - 1))
    for fn, ref in ((apply_kinetic_phi, t @ x),
                    (apply_kinetic, (t @ (rj * x)) / rj)):
        out = fn(g, x)
        assert out.shape == x.shape and out.dtype == x.dtype
        np.testing.assert_allclose(out, ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))


def test_kinetic_fft_length_is_smooth_on_reference_grid():
    g = build_grid(reference_system(), 1400, 2.0, 200.0, kind="adaptive")
    size = g.kinetic_fft_len
    assert size == 4320 >= 3 * g.n + 2
    for p in (2, 3, 5):
        while size % p == 0:
            size //= p
    assert size == 1


def test_kinetic_columns_match_single_vectors():
    rng = np.random.default_rng(7)
    g = _adaptive(n=90)
    block = rng.standard_normal((g.n, 3)) + 1j * rng.standard_normal((g.n, 3))
    out = apply_kinetic(g, block)
    for j in range(3):
        np.testing.assert_allclose(out[:, j], apply_kinetic(g, block[:, j]),
                                   rtol=1e-12, atol=1e-14)


def test_mapped_morse_levels():
    # Morse eigenvalues have a closed form; the mapped grid must recover the
    # low, box-contained part of the spectrum (map smoothness limits the
    # rate, so this is a looser check than the uniform-grid one)
    from coldpa.spectrum import solve_levels

    de, a, re_ = 0.01, 0.8, 4.0
    g = _adaptive(n=300)
    levels = solve_levels(_morse, g)
    w0 = a * np.sqrt(2.0 * de / MU)
    v = np.arange(5)
    exact = -de + w0 * (v + 0.5) - w0**2 / (4.0 * de) * (v + 0.5) ** 2
    # the grid error is roughly level-independent, so bound it absolutely
    np.testing.assert_allclose(levels.energies[:5], exact, rtol=0, atol=5e-6)


# --- momentum representation ---------------------------------------------------

def _gauss_spectrum(k, r0, sigma, k0):
    q = k - k0
    return ((2.0 * sigma**2 / np.pi) ** 0.25
            * np.exp(-(sigma * q) ** 2 - 1j * q * r0))


def test_momentum_uniform_gaussian_analytic():
    g = build_uniform(1.5, 30.0, 512, MU)
    amp = gaussian(g, 15.0, 1.0, k0=2.5)
    spec = to_momentum(g, amp)
    np.testing.assert_allclose(spec.amp, _gauss_spectrum(spec.k, 15.0, 1.0, 2.5),
                               atol=1e-12)


def test_momentum_uniform_parseval_and_round_trip():
    rng = np.random.default_rng(11)
    g = build_uniform(1.5, 30.0, 256, MU)
    amp = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    spec = to_momentum(g, amp)
    pop = float(np.sum(np.abs(amp) ** 2 * g.w))
    assert spec.norm_sq() == pytest.approx(pop, rel=1e-12)
    np.testing.assert_allclose(from_momentum(g, spec), amp,
                               rtol=1e-12, atol=1e-12)


def test_momentum_mapped_gaussian():
    # mapped grids resample through a cubic spline; accuracy is h^4-limited
    g = _adaptive(n=600)
    amp = gaussian(g, 15.0, 1.0, k0=2.5)
    spec = to_momentum(g, amp)
    np.testing.assert_allclose(spec.amp, _gauss_spectrum(spec.k, 15.0, 1.0, 2.5),
                               atol=3e-6)
    assert spec.norm_sq() == pytest.approx(1.0, abs=1e-5)


def test_momentum_mapped_round_trip():
    g = _adaptive(n=600)
    amp = gaussian(g, 12.0, 1.5, k0=-3.0)
    back = from_momentum(g, to_momentum(g, amp))
    np.testing.assert_allclose(back, amp, atol=3e-7)


def test_momentum_spline_error_is_fourth_order():
    errs = []
    for n in (300, 600):
        g = _adaptive(n=n)
        amp = gaussian(g, 15.0, 1.0, k0=2.5)
        spec = to_momentum(g, amp)
        errs.append(np.max(np.abs(
            spec.amp - _gauss_spectrum(spec.k, 15.0, 1.0, 2.5))))
    assert errs[1] < errs[0] / 10.0


# --- states and helpers ---------------------------------------------------------

def test_gaussian_is_normalized():
    g = build_uniform(1.5, 30.0, 256, MU)
    amp = gaussian(g, 10.0, 0.8, k0=1.0)
    assert np.sum(np.abs(amp) ** 2 * g.w) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        gaussian(g, 10.0, -0.5)


def test_normalize_and_inner():
    g = build_uniform(2.0, 10.0, 64, MU)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    na = normalize(g, a)
    assert inner(g, na, na).real == pytest.approx(1.0, rel=1e-12)
    assert inner(g, a, na) == pytest.approx(
        np.sqrt(inner(g, a, a).real), rel=1e-12)
    with pytest.raises(DomainError):
        normalize(g, np.zeros(g.n))


def test_two_channel_state():
    g = build_uniform(2.0, 10.0, 64, MU)
    psi = gaussian(g, 6.0, 0.6)
    st = TwoChannelState(g, psi, 0.3 * psi, t=2.0 * ps2au)
    assert st.population_g() == pytest.approx(1.0, rel=1e-12)
    assert st.population_e() == pytest.approx(0.09, rel=1e-12)
    assert st.norm() == pytest.approx(np.sqrt(1.09), rel=1e-12)
    assert st.t_ps == pytest.approx(2.0)
    cp = st.copy()
    cp.g[:] = 0
    assert st.population_g() == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(GridMismatchError):
        TwoChannelState(g, psi[:-1], psi)


def test_grid_identity_checks():
    a = build_uniform(2.0, 10.0, 64, MU)
    b = build_uniform(2.0, 10.0, 64, MU)
    c = build_uniform(2.0, 10.0, 65, MU)
    assert same_grid(a, a) and same_grid(a, b)
    ensure_same_grid(a, b)
    with pytest.raises(GridMismatchError):
        ensure_same_grid(a, c)


def test_momentum_spectrum_density():
    spec = MomentumSpectrum(k=np.array([-1.0, 0.0, 1.0]),
                            amp=np.array([1j, 2.0, 0.0]), dk=1.0)
    np.testing.assert_allclose(spec.density(), [1.0, 4.0, 0.0])
    assert spec.norm_sq() == pytest.approx(5.0)
