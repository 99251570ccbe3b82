import math
import os

import numpy as np
import pytest
from scipy import fft as sfft

from coldpa import cli, potentials
from coldpa.cli import main
from coldpa.config import RunConfig
from coldpa.errors import ColdpaError
from coldpa.impulsive import predict_k_peaks
from coldpa.io import load_state, peaks_to_json, read_csv, read_json
from coldpa.observables import radius_from_momentum
from coldpa.grids import build_uniform
from coldpa.units import mu_cs2

FAST_GRID = "[grid]\nmapping = uniform\nn = 768\nr_lo = 2\nr_hi = 100\n"


def _config(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text("[system]\ncoupling_cm = 13.17\n" + body, encoding="utf-8")
    return str(p)


def test_times_reports_crossing_period(tmp_path, capsys):
    cfg = _config(tmp_path, "")
    out = str(tmp_path / "out")
    assert main(["times", "--config", cfg, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "crossing" in text and "1.27" in text
    header, cols = read_csv(os.path.join(out, "times.csv"))
    assert header == ["where", "detuning_cm", "period_ps"]
    assert cols[2][0] == pytest.approx(1.2664, abs=1e-3)
    # detuning rows follow the closed form pi / hypot(W, delta)
    assert cols[2][1] == pytest.approx(0.2429, abs=1e-3)


def test_calibrate_writes_report(tmp_path):
    cfg = _config(tmp_path, "")
    out = str(tmp_path / "cal")
    assert main(["calibrate", "--config", cfg, "--out", out, "--quiet"]) == 0
    rep = read_json(os.path.join(out, "calibration.json"))
    assert rep["r_crossing_bohr"] == pytest.approx(29.3, abs=1e-3)
    assert rep["adiabatic_gap_cm"] == pytest.approx(26.34, abs=1e-10)
    assert rep["t_rabi_crossing_ps"] == pytest.approx(1.2664, abs=1e-3)
    man = read_json(os.path.join(out, "manifest.json"))
    assert man["command"] == "calibrate"
    assert "calibration.json" in man["files"]


def test_quiet_silences_stdout(tmp_path, capsys):
    cfg = _config(tmp_path, "")
    assert main(["times", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_spectrum_tables(tmp_path):
    cfg = _config(tmp_path, FAST_GRID)
    out = str(tmp_path / "spec")
    assert main(["spectrum", "--config", cfg, "--out", out, "--quiet"]) == 0
    for name in ("levels_ground.csv", "levels_excited.csv"):
        header, cols = read_csv(os.path.join(out, name))
        assert header[:3] == ["v", "energy_hartree", "energy_rel_cm"]
        assert len(cols[0]) > 0
    # ground channel supports a healthy bound ladder in this box
    with open(os.path.join(out, "levels_ground.csv")) as fh:
        n_bound = sum(1 for line in fh if line.rstrip().endswith("bound"))
    assert n_bound > 20


def _propagate(tmp_path, tag, coupling_line="coupling_cm = 13.17"):
    body = (FAST_GRID
            + "[propagation]\nt_end_ps = 2\nsnapshots_ps = 1\n"
            + "[initial]\nkind = continuum\nenergy_cm = 3.5e-5\n")
    p = tmp_path / f"{tag}.ini"
    p.write_text(f"[system]\n{coupling_line}\n" + body, encoding="utf-8")
    out = str(tmp_path / tag)
    rc = main(["propagate", "--config", str(p), "--out", out, "--quiet"])
    return rc, out


def test_propagate_dark_pulse_preserves_state(tmp_path):
    # zero coupling: the stationary initial state only picks up a phase
    rc, out = _propagate(tmp_path, "dark", "coupling_cm = 0.0")
    assert rc == 0
    header, cols = read_csv(os.path.join(out, "populations.csv"))
    assert header == ["t_ps", "pop_g", "pop_e", "norm"]
    np.testing.assert_allclose(cols[1], 1.0, atol=1e-10)
    assert np.max(cols[2]) < 1e-14
    idx = read_json(os.path.join(out, "snapshots.json"))
    assert [s["t_ps"] for s in idx["snapshots"]] == [0.0, 1.0, 2.0]
    grid = build_uniform(2.0, 100.0, 768, mu_cs2)
    first = load_state(os.path.join(out, "state_0000.csv"), grid)
    last = load_state(os.path.join(out, "state_0002.csv"), grid)
    np.testing.assert_allclose(np.abs(last.g), np.abs(first.g), atol=1e-9)


def test_propagate_outputs_are_reproducible(tmp_path):
    rc1, out1 = _propagate(tmp_path, "runa")
    rc2, out2 = _propagate(tmp_path, "runb")
    assert rc1 == rc2 == 0
    for name in ("populations.csv", "state_0000.csv", "state_0002.csv",
                 "grid.csv", "snapshots.json"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, f"{name} differs between identical runs"


def test_propagate_manifest_records_the_run(tmp_path):
    rc, out = _propagate(tmp_path, "meta")
    assert rc == 0
    man = read_json(os.path.join(out, "manifest.json"))
    # the continuum start's eigenpair residual, relative to max|H_ii|
    assert 0.0 <= man["initial"]["residual"] <= 1e-10
    run = man["propagation"]
    # the measured spectral top sits inside the declared interval
    assert run["e_lo"] < run["lambda_max"] < run["e_hi"]
    assert run["bound_matvecs"] > 0
    assert run["matvecs"] > 0 and run["max_order"] > 0


def test_propagate_manifest_times_each_phase(tmp_path):
    rc, out = _propagate(tmp_path, "timed")
    assert rc == 0
    man = read_json(os.path.join(out, "manifest.json"))
    timings = man["timings"]
    assert sorted(timings) == ["grid_s", "initial_s", "plan_s",
                               "propagate_s", "save_s", "system_s"]
    assert all(v >= 0.0 for v in timings.values())
    # the Chebyshev steps run inside the propagate phase
    run = man["propagation"]
    assert 0.0 < run["kinetic_s"] <= run["series_s"] <= timings["propagate_s"]


def test_analyze_after_propagate(tmp_path, monkeypatch):
    rc, run_dir = _propagate(tmp_path, "run")
    assert rc == 0
    cfg = _config(tmp_path, FAST_GRID
                  + "[propagation]\nt_end_ps = 2\nsnapshots_ps = 1\n"
                  + "[initial]\nkind = continuum\nenergy_cm = 3.5e-5\n")
    out = str(tmp_path / "ana")
    scans = []
    locate = potentials.find_crossing

    def counted(*args, **kwargs):
        scans.append(1)
        return locate(*args, **kwargs)

    monkeypatch.setattr(potentials, "find_crossing", counted)
    monkeypatch.setattr(cli, "find_crossing", counted)
    system = RunConfig.load(cfg).build_system()
    calibration = len(scans)
    assert main(["analyze", "--config", cfg, "--run", run_dir,
                 "--out", out, "--quiet"]) == 0
    monkeypatch.undo()
    rep = read_json(os.path.join(out, "analysis.json"))
    # past the calibration, one crossing scan serves every peak, and each
    # radius is the one the peak's own inversion gives
    peaks = rep["momentum_peaks"]
    assert len(peaks) > 1 and len(scans) == 2 * calibration + 1
    for p in peaks:
        try:
            r0 = radius_from_momentum(system, p["k"])
        except ColdpaError:
            r0 = None
        assert p["r_source_bohr"] == r0
    assert rep["t_ps"] == pytest.approx(2.0)
    assert rep["populations"]["norm"] == pytest.approx(1.0, abs=1e-8)
    assert 0.0 <= rep["bound_fraction_e"] < 0.5
    assert rep["hole"] is None            # 2 ps of weak driving digs no hole
    assert rep["thermal"] is not None
    assert rep["thermal"]["n_molecules"] >= 0.0
    header, _ = read_csv(os.path.join(out, "level_populations.csv"))
    assert header == ["channel", "v", "energy_hartree", "population"]
    header, cols = read_csv(os.path.join(out, "momentum_ground.csv"))
    assert header == ["k_au", "abs_amp"] and len(cols[0]) > 100


def test_spectrum_and_analyze_manifests_time_each_eigensolve(tmp_path):
    cfg = _config(tmp_path, FAST_GRID
                  + "[propagation]\nt_end_ps = 2\nsnapshots_ps = 1\n"
                  + "[initial]\nkind = continuum\nenergy_cm = 3.5e-5\n")
    spec = str(tmp_path / "spec")
    assert main(["spectrum", "--config", cfg, "--out", spec, "--quiet"]) == 0
    rc, run_dir = _propagate(tmp_path, "run")
    assert rc == 0
    ana = str(tmp_path / "ana")
    assert main(["analyze", "--config", cfg, "--run", run_dir,
                 "--out", ana, "--quiet"]) == 0
    for out in (spec, ana):
        timings = read_json(os.path.join(out, "manifest.json"))["timings"]
        assert sorted(timings) == ["eigensolve_excited_s",
                                   "eigensolve_ground_s"]
        assert all(v > 0.0 for v in timings.values())


def test_impulsive_writes_predictions(tmp_path):
    cfg = _config(tmp_path, FAST_GRID
                  + "[initial]\nkind = continuum\nenergy_cm = 3.5e-5\n")
    out = str(tmp_path / "imp")
    assert main(["impulsive", "--config", cfg, "--out", out, "--quiet",
                 "--t-ps", "10", "30"]) == 0
    for tag in ("10ps", "30ps"):
        assert os.path.exists(os.path.join(out, f"state_ia_{tag}.csv"))
        assert os.path.exists(os.path.join(out, f"momentum_ia_{tag}.csv"))
    peaks = read_json(os.path.join(out, "predicted_peaks.json"))
    assert isinstance(peaks, list) and len(peaks) > 0
    for p in peaks:
        assert p["k"] < 0.0
        assert p["t_match"] is None or p["t_match"] > 0.0
    # one prediction from the initial state, whatever the times asked
    rc = RunConfig.load(cfg)
    system = rc.build_system()
    grid = rc.build_grid(system)
    state, _ = rc.build_initial(system, grid)
    assert peaks == peaks_to_json(predict_k_peaks(system, grid, state.g))


def test_impulsive_needs_stationary_initial(tmp_path, capsys):
    cfg = _config(tmp_path, FAST_GRID + "[initial]\nkind = gaussian\n")
    out = str(tmp_path / "impbad")
    assert main(["impulsive", "--config", cfg, "--out", out]) == 2
    assert "stationary" in capsys.readouterr().err


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[system]\ncoupling_cm = 13.17\n[grid]\npoints = 9\n")
    assert main(["times", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err

    missing = str(tmp_path / "nope.ini")
    assert main(["times", "--config", missing]) == 2
    assert "cannot read config" in capsys.readouterr().err

    cfg = _config(tmp_path, "")
    assert main(["analyze", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == 2
    assert "--run" in capsys.readouterr().err

    assert main(["propagate", "--config", cfg]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-3", "two"])
def test_threads_must_be_a_count(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["times", "--config", _config(tmp_path, ""), "--threads", value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--threads" in err and value in err


@pytest.mark.parametrize("flags, workers", [([], 1), (["--threads", "2"], 2)])
def test_threads_set_fft_workers_of_the_handler(tmp_path, monkeypatch,
                                                flags, workers):
    seen = []
    monkeypatch.setitem(cli._HANDLERS, "times",
                        lambda args, cfg: seen.append(sfft.get_workers()) or 0)
    assert main(["times", "--config", _config(tmp_path, "")] + flags) == 0
    assert seen == [workers]
    assert sfft.get_workers() == 1
