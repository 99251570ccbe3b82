import json
import math
import os

import numpy as np
import pytest
import scipy.fft

from coldpa import io as coldpa_io
from coldpa.errors import ConfigError, DomainError
from coldpa.grids import TwoChannelState, build_uniform, gaussian
from coldpa.impulsive import PredictedPeak
from coldpa.io import (load_state, make_run_dir, peaks_to_json, read_csv,
                       read_json, save_grid, save_state,
                       save_timeseries, write_csv, write_json, write_manifest)
from coldpa.propagation import TimeSeries
from coldpa.units import ps2au


def test_csv_cells_match_per_cell_format(tmp_path):
    # each row's one %-format writes the bytes of formatting every cell on
    # its own: a string as it is, anything else as '%.17g' of its float;
    # the rows change cell types and lengths, so formats are both reused
    # and rebuilt
    exact = (0.1, 1.0 / 3.0, math.pi, -2.5e-17, 0.0, 1e300)
    rows = [exact,
            (np.float64(-0.0), -0.0, float("nan"), np.nan, -np.inf,
             np.float32(0.1)),
            (7, np.int64(-3), True, 2**60 + 1, np.float64(1e-310), 2.5),
            ("g", np.str_("e"), "", 1.5, "-0.0", np.float64(np.pi)),
            (0.1, "x", 2, np.float64(-0.0), "nan", 0.25),
            (0.2, "y", 3, 1.0 / 3.0, "z", 0.3),
            (0.4, "y", "w", 0.5, "z", 0.6),
            ("s", 1.0, "t"),
            ("u",),
            exact[:2],
            ()]
    path = str(tmp_path / "cells.csv")
    write_csv(path, ["a", "b"], rows)
    ref = "a,b\n" + "".join(
        ",".join(c if isinstance(c, str) else "%.17g" % float(c)
                 for c in row) + "\n" for row in rows)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == ref
    with open(path, encoding="utf-8") as fh:
        cells = fh.read().splitlines()[1].split(",")
    assert [float(c) for c in cells] == list(exact)


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [(0.1, -1.0 / 3.0), (2.0, 4.0), (math.pi, 1e-300)]
    write_csv(path, ["a", "b"], rows)
    header, cols = read_csv(path)
    assert header == ["a", "b"]
    np.testing.assert_array_equal(cols[0], [0.1, 2.0, math.pi])
    np.testing.assert_array_equal(cols[1], [-1.0 / 3.0, 4.0, 1e-300])


def test_csv_mixed_columns(tmp_path):
    path = str(tmp_path / "m.csv")
    write_csv(path, ["name", "x"], [("alpha", 1.5), ("beta", -2.0)])
    header, (names, x) = read_csv(path)
    assert header == ["name", "x"]
    assert list(names) == ["alpha", "beta"]
    np.testing.assert_array_equal(x, [1.5, -2.0])


def test_csv_no_rows(tmp_path):
    path = str(tmp_path / "e.csv")
    write_csv(path, ["x", "y"], [])
    header, cols = read_csv(path)
    assert header == ["x", "y"]
    assert all(len(c) == 0 for c in cols)


def test_outputs_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rows = [(1.0 / 3.0, 2.0 / 7.0)] * 5
    write_csv(a, ["x", "y"], rows)
    write_csv(b, ["x", "y"], rows)
    assert open(a, "rb").read() == open(b, "rb").read()
    ja, jb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_json(ja, {"z": 1, "a": [1.5, None], "m": {"k": True}})
    write_json(jb, {"m": {"k": True}, "a": [1.5, None], "z": 1})
    assert open(ja, "rb").read() == open(jb, "rb").read()


def test_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(str(tmp_path / "bad.json"), {"x": float("nan")})


def test_json_round_trip(tmp_path):
    path = str(tmp_path / "r.json")
    obj = {"name": "demo", "values": [1.0, 2.5], "flag": False}
    write_json(path, obj)
    assert read_json(path) == obj


def test_make_run_dir_refuses_reuse(tmp_path):
    d = str(tmp_path / "out")
    assert make_run_dir(d) == d
    make_run_dir(d)                       # still empty: fine
    (tmp_path / "out" / "x.txt").write_text("hi")
    with pytest.raises(ConfigError, match="not empty"):
        make_run_dir(d)


def test_manifest_lists_files(tmp_path):
    d = str(tmp_path)
    (tmp_path / "b.csv").write_text("x\n")
    (tmp_path / "a.csv").write_text("y\n")
    write_manifest(d, "coldpa demo", "[system]\n", extra={"note": 1})
    m = read_json(os.path.join(d, "manifest.json"))
    assert m["files"] == ["a.csv", "b.csv"]
    assert m["command"] == "coldpa demo"
    assert m["config"] == "[system]\n"
    assert m["note"] == 1
    assert "version" in m


def test_manifest_records_environment(tmp_path):
    write_manifest(str(tmp_path), "coldpa demo", "")
    env = read_json(str(tmp_path / "manifest.json"))["environment"]
    assert env.pop("threads") >= 1
    assert env.pop("thread_env").keys() == {
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env == {"numpy": np.__version__, "scipy": scipy.__version__,
                   "fft_workers": scipy.fft.get_workers()}
    with scipy.fft.set_workers(2):
        write_manifest(str(tmp_path), "coldpa demo", "")
    env = read_json(str(tmp_path / "manifest.json"))["environment"]
    assert env["fft_workers"] == 2


def test_manifest_records_threads(tmp_path, monkeypatch):
    man = str(tmp_path / "manifest.json")
    tasks = "/proc/self/task"
    if os.path.isdir(tasks):
        # read with no thread started in between
        before = len(os.listdir(tasks))
        write_manifest(str(tmp_path), "coldpa demo", "")
        assert read_json(man)["environment"]["threads"] == before
    monkeypatch.setattr(coldpa_io, "_TASK_DIR", str(tmp_path / "none"))
    write_manifest(str(tmp_path), "coldpa demo", "")
    assert read_json(man)["environment"]["threads"] is None
    # the thread variables as the package found them at import (no test
    # sets them): BLAS has read them by then, so a later change is not
    # what it runs with
    start = {var: os.environ.get(var) for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    write_manifest(str(tmp_path), "coldpa demo", "")
    assert read_json(man)["environment"]["thread_env"] == start


def test_state_round_trip(tmp_path):
    grid = build_uniform(2.0, 20.0, 128, 2000.0)
    psi = gaussian(grid, 10.0, 1.0, k0=0.7)
    st = TwoChannelState(grid, psi, 0.2j * psi, t=3.0 * ps2au)
    path = str(tmp_path / "state.csv")
    save_state(path, st)
    back = load_state(path, grid, t=st.t)
    np.testing.assert_array_equal(back.g, st.g)
    np.testing.assert_array_equal(back.e, st.e)
    assert back.t == st.t


def test_load_state_guards(tmp_path):
    grid = build_uniform(2.0, 20.0, 128, 2000.0)
    other = build_uniform(2.0, 20.0, 129, 2000.0)
    psi = gaussian(grid, 10.0, 1.0)
    path = str(tmp_path / "state.csv")
    save_state(path, TwoChannelState(grid, psi, psi))
    with pytest.raises(DomainError, match="different grid"):
        load_state(path, other)
    gpath = str(tmp_path / "grid.csv")
    save_grid(gpath, grid)
    with pytest.raises(DomainError, match="not a saved"):
        load_state(gpath, grid)


def test_save_grid_columns(tmp_path):
    grid = build_uniform(2.0, 20.0, 64, 2000.0)
    path = str(tmp_path / "grid.csv")
    save_grid(path, grid)
    header, (r, w) = read_csv(path)
    assert header == ["r_bohr", "weight"]
    np.testing.assert_array_equal(r, grid.r)
    np.testing.assert_array_equal(w, grid.w)


def test_save_timeseries_layout(tmp_path):
    grid = build_uniform(2.0, 20.0, 64, 2000.0)
    psi = gaussian(grid, 10.0, 1.0)
    snaps = [TwoChannelState(grid, psi, 0 * psi, t=0.0),
             TwoChannelState(grid, psi, 0.1 * psi, t=2.0 * ps2au)]
    series = TimeSeries(
        t=np.array([0.0, 1.0, 2.0]) * ps2au,
        pop_g=np.array([1.0, 0.9, 0.8]),
        pop_e=np.array([0.0, 0.1, 0.2]),
        norm=np.ones(3), snapshots=snaps, grid=grid,
        meta={"matvecs": 42, "e_lo": -0.5,
              "order_counts": {20: 2, 124: 1, 58: 3}},
    )
    save_timeseries(str(tmp_path), series)
    header, cols = read_csv(str(tmp_path / "populations.csv"))
    assert header == ["t_ps", "pop_g", "pop_e", "norm"]
    np.testing.assert_allclose(cols[0], [0.0, 1.0, 2.0], atol=1e-12)
    np.testing.assert_array_equal(cols[2], [0.0, 0.1, 0.2])
    idx = read_json(str(tmp_path / "snapshots.json"))
    assert [s["file"] for s in idx["snapshots"]] == ["state_0000.csv",
                                                     "state_0001.csv"]
    assert idx["snapshots"][1]["t_ps"] == pytest.approx(2.0)
    assert idx["meta"]["matvecs"] == 42
    # the order histogram is written with string keys and reads back
    counts = idx["meta"]["order_counts"]
    assert all(isinstance(k, str) for k in counts)
    assert {int(k): v for k, v in counts.items()} == {20: 2, 124: 1, 58: 3}
    back = load_state(str(tmp_path / "state_0001.csv"), grid)
    np.testing.assert_array_equal(back.e, snaps[1].e)


def test_peaks_serialize_without_infinities():
    peaks = [PredictedPeak(r0=50.0, k=-12.0, amplitude_factor=0.009,
                           e_two_level=6e-4, delta=3e-4, t_match=math.inf,
                           valid=True),
             PredictedPeak(r0=80.0, k=-12.3, amplitude_factor=0.008,
                           e_two_level=6.2e-4, delta=3.1e-4, t_match=1e5,
                           valid=False)]
    out = peaks_to_json(peaks)
    assert out[0]["t_match"] is None
    assert out[0]["valid"] is True
    assert out[1]["t_match"] == 1e5
    assert out[1]["valid"] is False
    json.dumps(out, allow_nan=False)      # must not raise
