import numpy as np
import pytest

from coldpa.config import RunConfig
from coldpa.errors import ConfigError, GridCapacityError
from coldpa.potentials import find_crossing
from coldpa.units import convert, coupling_from_intensity, mu_cs2, ps2au

MINIMAL = "[system]\ncoupling_cm = 13.17\n"


def test_defaults_fill_every_section():
    cfg = RunConfig.parse(MINIMAL)
    assert cfg["system.mu"] == mu_cs2
    assert cfg["system.detuning_cm"] == 140.0
    assert cfg["grid.n"] == 512
    assert cfg["grid.mapping"] == "adaptive"
    assert cfg["pulse.rise_ps"] == 100.0
    assert cfg["propagation.dt_flat_ps"] == 0.5
    assert cfg["initial.kind"] == "continuum"
    assert cfg["analysis.detunings_cm"] == (67.4, 70.0)
    assert cfg.text == MINIMAL


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[pulses\]"):
        RunConfig.parse(MINIMAL + "[pulses]\nrise_ps = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="grid.points"):
        RunConfig.parse(MINIMAL + "[grid]\npoints = 12\n")
    with pytest.raises(ConfigError, match="initial.seed"):
        RunConfig.parse(MINIMAL + "[initial]\nseed = 0\n")


def test_bad_value_names_its_path():
    with pytest.raises(ConfigError, match="grid.n"):
        RunConfig.parse(MINIMAL + "[grid]\nn = twelve\n")
    with pytest.raises(ConfigError, match="propagation.snapshots_ps"):
        RunConfig.parse(MINIMAL + "[propagation]\nsnapshots_ps = 1, x\n")
    # float() accepts these spellings; no physical input is non-finite
    for raw in ("nan", "inf", "-Infinity", "1e400"):
        with pytest.raises(ConfigError,
                           match="bad value for system.coupling_cm"):
            RunConfig.parse(f"[system]\ncoupling_cm = {raw}\n")
    with pytest.raises(ConfigError, match="bad value for analysis.detunings"):
        RunConfig.parse(MINIMAL + "[analysis]\ndetunings_cm = 67.4, nan\n")


def test_unparable_text_rejected():
    with pytest.raises(ConfigError, match="does not parse"):
        RunConfig.parse("[system\ncoupling_cm = 1")


def test_coupling_source_rules():
    with pytest.raises(ConfigError, match="not both"):
        RunConfig.parse("[system]\ncoupling_cm = 13\nintensity_wcm2 = 1e8\n"
                        "dipole_au = 5\n")
    with pytest.raises(ConfigError, match="belong together"):
        RunConfig.parse("[system]\nintensity_wcm2 = 1e8\n")
    with pytest.raises(ConfigError, match="required"):
        RunConfig.parse("[grid]\nn = 256\n")
    cfg = RunConfig.parse("[system]\nintensity_wcm2 = 1e8\ndipole_au = 5\n")
    assert cfg.coupling_au() == pytest.approx(
        coupling_from_intensity(1e8, 5.0), rel=1e-12)


def test_coupling_from_wavenumbers():
    cfg = RunConfig.parse(MINIMAL)
    assert cfg.coupling_au() == pytest.approx(
        convert(13.17, "cm-1", "hartree"), rel=1e-12)


def test_enum_values_guarded():
    with pytest.raises(ConfigError, match="mapping"):
        RunConfig.parse(MINIMAL + "[grid]\nmapping = fishy\n")
    with pytest.raises(ConfigError, match="kind"):
        RunConfig.parse(MINIMAL + "[initial]\nkind = plane\n")


def test_negative_level_index_rejected():
    # a negative v would index the bound levels from the top
    for v in (-1, -9000):
        with pytest.raises(ConfigError, match="initial.v"):
            RunConfig.parse(MINIMAL + f"[initial]\nkind = level\nv = {v}\n")


def test_hole_settings_out_of_range_rejected():
    # analyze would catch detect_hole's refusal and report no hole
    for key, raw in [("hole_threshold", "1.5"), ("hole_threshold", "0"),
                     ("hole_threshold", "1"), ("hole_threshold", "-0.5"),
                     ("hole_smooth", "0"), ("hole_smooth", "-2")]:
        with pytest.raises(ConfigError, match=f"analysis.{key}"):
            RunConfig.parse(MINIMAL + f"[analysis]\n{key} = {raw}\n")


@pytest.mark.parametrize("key, raw", [
    ("temperature_mk", "0"), ("temperature_mk", "-1"), ("volume_cm3", "0"),
    ("volume_cm3", "-1e-3"), ("n_atoms", "0"), ("n_atoms", "-1e8"),
    ("spin_factor", "0"), ("spin_factor", "-0.75"), ("spin_factor", "1.5")])
def test_thermal_settings_out_of_range_rejected(key, raw):
    # analyze would refuse them only after both bound-level eigensolves
    with pytest.raises(ConfigError, match=f"analysis.{key} must"):
        RunConfig.parse(MINIMAL + f"[analysis]\n{key} = {raw}\n")


def test_thermal_settings_at_their_edges_accepted():
    cfg = RunConfig.parse(MINIMAL + "[analysis]\nspin_factor = 1\n"
                          "temperature_mk = 1e-9\n")
    assert (cfg["analysis.spin_factor"], cfg["analysis.temperature_mk"]) == (
        1.0, 1e-9)


def test_boolean_style_values_rejected_where_float():
    with pytest.raises(ConfigError):
        RunConfig.parse(MINIMAL + "[propagation]\ncheb_tol = maybe\n")


def test_load_round_trip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(MINIMAL + "[grid]\nn = 600\n", encoding="utf-8")
    cfg = RunConfig.load(str(p))
    assert cfg["grid.n"] == 600
    assert cfg["system.coupling_cm"] == 13.17


# --- builders ----------------------------------------------------------------

@pytest.fixture(scope="module")
def default_cfg():
    return RunConfig.parse(MINIMAL)


@pytest.fixture(scope="module")
def default_sys(default_cfg):
    return default_cfg.build_system()


def test_build_system_calibrates_crossing(default_sys):
    assert find_crossing(default_sys) == pytest.approx(29.3, abs=1e-3)
    assert default_sys.mu == mu_cs2
    assert default_sys.coupling == pytest.approx(
        convert(13.17, "cm-1", "hartree"))
    assert default_sys.ground.asymptote == pytest.approx(
        -convert(140.0, "cm-1", "hartree"))
    env = default_sys.envelope
    (flat,) = [s for s in env.segments
               if s.shape == "const" and s.f0 == env.flat_value]
    lo, hi = flat.t0, flat.t1
    assert lo == pytest.approx(100.0 * ps2au)
    assert hi == pytest.approx(295.0 * ps2au)


def test_explicit_tail_coefficient_skips_calibration():
    cfg = RunConfig.parse(MINIMAL + "[excited]\nc_n = 12.5\n")
    sys_ = cfg.build_system()
    assert sys_.excited.cn == 12.5


def test_build_grid_kinds(default_cfg, default_sys):
    uni = RunConfig.parse(
        MINIMAL + "[grid]\nmapping = uniform\nn = 256\nr_lo = 2\nr_hi = 100\n")
    g = uni.build_grid(default_sys)
    assert g.kind == "uniform" and g.n == 256
    small = RunConfig.parse(
        MINIMAL + "[grid]\nmapping = adaptive\nn = 64\nr_lo = 2\nr_hi = 200\n")
    with pytest.raises(GridCapacityError):
        small.build_grid(default_sys)
    big = RunConfig.parse(
        MINIMAL + "[grid]\nmapping = adaptive\nn = 1400\nr_lo = 2\n"
        "r_hi = 200\n")
    ga = big.build_grid(default_sys)
    assert ga.kind == "adaptive" and ga.n == 1400


def test_build_plan_converts_units():
    cfg = RunConfig.parse(
        MINIMAL + "[propagation]\nt_end_ps = 10\ndt_flat_ps = 0.25\n"
        "snapshots_ps = 1 5 10\nv_cap_cm = 300\n")
    plan = cfg.build_plan()
    assert plan.t_end == pytest.approx(10.0 * ps2au)
    assert plan.dt_flat == pytest.approx(0.25 * ps2au)
    assert plan.snapshots == tuple(t * ps2au for t in (1.0, 5.0, 10.0))
    assert plan.v_cap == pytest.approx(convert(300.0, "cm-1", "hartree"))
    assert plan.cheb_tol == 1e-14


def _grid_for(default_sys, n=512):
    cfg = RunConfig.parse(
        MINIMAL + f"[grid]\nmapping = uniform\nn = {n}\nr_lo = 2\nr_hi = 100\n")
    return cfg.build_grid(default_sys)


def test_initial_gaussian(default_sys):
    cfg = RunConfig.parse(
        MINIMAL + "[initial]\nkind = gaussian\nr0 = 50\nsigma = 4\n"
        "[grid]\nmapping = uniform\nn = 256\nr_lo = 2\nr_hi = 100\n")
    grid = cfg.build_grid(default_sys)
    state, info = cfg.build_initial(default_sys, grid)
    assert info == {"kind": "gaussian", "e_g": None, "de_dn": None}
    assert state.norm() == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(state.e)) == 0.0


def test_initial_level(default_sys):
    cfg = RunConfig.parse(MINIMAL + "[initial]\nkind = level\nv = 3\n")
    grid = _grid_for(default_sys)
    state, info = cfg.build_initial(default_sys, grid)
    assert info["kind"] == "level" and info["de_dn"] is None
    assert info["e_g"] < default_sys.ground.asymptote
    assert state.norm() == pytest.approx(1.0, rel=1e-10)
    bad = RunConfig.parse(MINIMAL + "[initial]\nkind = level\nv = 9000\n")
    with pytest.raises(ConfigError, match="bound levels"):
        bad.build_initial(default_sys, grid)


def test_initial_continuum(default_sys):
    cfg = RunConfig.parse(MINIMAL + "[initial]\nkind = continuum\n"
                          "energy_cm = 3.5e-5\n")
    grid = _grid_for(default_sys)
    state, info = cfg.build_initial(default_sys, grid)
    assert info["kind"] == "continuum"
    assert info["de_dn"] > 0.0
    assert info["e_g"] > default_sys.ground.asymptote
    target = convert(3.5e-5, "cm-1", "hartree")
    assert info["e_above"] == pytest.approx(target, abs=2 * info["de_dn"])
    assert 0.0 <= info["residual"] <= 1e-10
    assert state.norm() == pytest.approx(1.0, rel=1e-10)
