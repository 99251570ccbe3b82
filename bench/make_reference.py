#!/usr/bin/env python3
"""Write bench/reference.json: the stored values the workload checks
compare against.

    python3 bench/make_reference.py

For each size it stores
- analog: the box state the thermal draws select, its final P_e from a
  run at dt/4, and the tolerance on the final P_e of the benchmark's
  run at dt. The tolerance is twice the measured relative gap between
  the dt and dt/4 runs, rounded up to two significant figures: the
  midpoint rule is second order, so the dt/4 run sits 16 times closer to
  the converged value and the gap is the error of the dt run itself. A
  change that doubles that error fails; one that shrinks it passes;
- survey: the bound-level energies of both channels and the predicted
  momentum peaks of that box state.

Run it only when the physics or the workload inputs change on purpose;
the stored file is the reference a later change is checked against.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from coldpa import io  # noqa: E402
from coldpa.impulsive import predict_k_peaks  # noqa: E402
from coldpa.propagation import propagate  # noqa: E402
from coldpa.spectrum import solve_levels  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _round_up(x):
    """x rounded up to two significant figures."""
    p = 10.0 ** (math.floor(math.log10(x)) - 1)
    return round(math.ceil(x / p) * p, 12)


def analog(size, work):
    wl = workloads.Analog(size, 0, {}, work)
    st = wl.setup(spans.NullTracer())
    plan = st["plan"]
    fine = dataclasses.replace(plan, dt_ramp=plan.dt_ramp / 4,
                               dt_flat=plan.dt_flat / 4)
    pe = float(propagate(st["system"], st["grid"], plan,
                         st["state"]).pop_e[-1])
    pe4 = float(propagate(st["system"], st["grid"], fine,
                          st["state"]).pop_e[-1])
    gap = abs(pe - pe4) / abs(pe4)
    return {"e_above": st["info"]["e_above"], "pop_e_ref": pe4,
            "pop_e_dt": pe, "dt_gap_rel": gap,
            "pop_e_rtol": _round_up(2.0 * gap)}


def survey(size, work):
    wl = workloads.Survey(size, 0, {}, work)
    st = wl.setup(spans.NullTracer())
    ref = st["refs"][0]
    out = {"e_above": ref.e_above}
    for ch in ("ground", "excited"):
        curve = getattr(st["system"], ch)
        out[f"levels_{ch}"] = [
            float(e) for e in solve_levels(curve, st["grid"]).bound().energies]
    peaks = predict_k_peaks(st["system"], st["grid"], ref.state)
    out["peaks"] = [{"r0": p["r0"], "k": p["k"]}
                    for p in io.peaks_to_json(peaks)]
    return out


def main():
    refs = {}
    out_root = BENCH_DIR.parent / ".bench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as work:
        for size in ("tiny", "full"):
            refs[size] = {"analog": analog(size, work),
                          "survey": survey(size, work)}
            print(size, json.dumps(refs[size]["analog"]))
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
