"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest bench/test_bench.py -q

A smoke run of every workload must print every metric BENCHMARK.json
names, with its unit; every correctness check must trip on a perturbed
output; and the benchmark must refuse to run without the program.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from coldpa import io  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((BENCH_DIR / "reference.json").read_text())


@pytest.fixture
def work():
    """A scratch directory inside the checkout, as the benchmark uses."""
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=out_root))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (3 if trace else 1)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_refuses_to_run_without_the_program(work):
    shutil.copy(ROOT / "BENCHMARK.json", work)
    shutil.copytree(BENCH_DIR, work / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("analog", 0, cwd=work)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _iteration(name, work):
    wl = workloads.WORKLOADS[name]("tiny", 3, REFS, str(work))
    tr = spans.NullTracer()
    st = wl.setup(tr)
    out = work / "out"
    out.mkdir()
    wl.solve(tr, st, str(out))
    wl.analyze(tr, st, str(out))
    assert wl.check(st) == []
    return wl, st


def _trips(wl, st, needle):
    fails = wl.check(st)
    assert any(needle in f for f in fails), fails


def test_analog_checks_trip(work):
    wl, st = _iteration("analog", work)
    s, report = st["series"], st["analysis"]

    s.norm[-1] += 1e-8
    _trips(wl, st, "norm drift")
    # a propagate step repeated alone has no analysis and is checked alike
    again = {k: v for k, v in st.items() if k not in ("an_dir", "analysis")}
    _trips(wl, again, "norm drift")
    s.norm[-1] -= 1e-8
    assert wl.check(again) == []

    good = report["populations"]["e"]
    report["populations"]["e"] = good * (1 + 1e-9)
    _trips(wl, st, "analysis.json P_e")
    report["populations"]["e"] = good

    # both routes agree, but on a P_e the dt/4 reference rules out
    s.pop_e[-1] *= 1.05
    report["populations"]["e"] = float(s.pop_e[-1])
    report["populations"]["norm"] = float(np.sqrt(s.pop_g[-1] + s.pop_e[-1]))
    _trips(wl, st, "dt/4 reference")

    st["info"]["e_above"] *= 2.0
    _trips(wl, st, "no stored reference")


def test_smallgrid_checks_trip(work):
    wl, st = _iteration("smallgrid", work)
    s = st["series"]
    s.pop_e[len(s.pop_e) // 2] += 2e-3
    _trips(wl, st, "ODE")
    s.pop_e[len(s.pop_e) // 2] -= 2e-3
    s.norm[3] += 1e-8
    _trips(wl, st, "norm drift")


def test_survey_checks_trip(work):
    wl, st = _iteration("survey", work)

    ref, pred = st["preds"][0]
    st["preds"][0] = (ref, dataclasses.replace(pred, psi_g=pred.psi_g * 1.001))
    _trips(wl, st, "frozen-nuclei norm")
    st["preds"][0] = (ref, pred)

    peaks = st["peaks"][0]
    st["peaks"][0] = [dataclasses.replace(peaks[0], k=peaks[0].k * 1.001)]
    st["peaks"][0] += peaks[1:]
    _trips(wl, st, "peak 0 k")
    st["peaks"][0] = peaks

    path = os.path.join(st["lev_dir"], "levels_ground.csv")
    header, cols = io.read_csv(path)
    cols[1][0] *= 1.0 + 1e-6
    io.write_csv(path, header, zip(*cols))
    _trips(wl, st, "ground level 0")
