#!/usr/bin/env python3
"""coldpa benchmark: one workload, timed from outside, outputs checked.

    python3 bench/run.py --workload analog --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout; coldpa is imported from its
``src/`` directory. The run repeats the workload (one client, closed
loop, one BLAS thread) until ``--seconds`` is used up and reports medians
over its iterations. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` it alternates untraced and traced iterations and
reports the per-layer metrics, whose spans are written to
``.bench_out/spans-<workload>-seed<seed>.json``. Detail lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread. This must happen before numpy loads BLAS:
# setting the variables afterwards has no effect.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# name -> unit; BENCHMARK.json lists the same
END_TO_END = {"setup_s": "s", "solve_s": "s", "total_s": "s",
              "peak_rss_mb": "MB"}
# An untraced run spends this share of its time repeating the set-up
# alone: one set-up per iteration is too few for a steady value where
# set-up takes milliseconds.
SETUP_SHARE = 0.1
# glibc mallopt parameters and the values the benchmark fixes; see
# fix_malloc_thresholds
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 1 << 20
TRIM_THRESHOLD = 1 << 30


def _import_program():
    """Import coldpa from this checkout's src/, or exit 2 without a
    result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coldpa
    except ImportError as exc:
        print(f"benchmark: cannot import coldpa from {src}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if Path(coldpa.__file__).resolve().parent != src / "coldpa":
        print(f"benchmark: coldpa came from {coldpa.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        # threads of this process, read after BLAS has been used
        "threads": len(os.listdir("/proc/self/task")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; False where libc is not glibc.

    By default glibc raises its mmap threshold each time a large block is
    freed, so whether a later eigensolver matrix comes from the heap or
    from a fresh mapping, and so the peak resident size, differs from
    process to process: on `analog` it lands on 196 or 210 MB. Fixed,
    every block of MMAP_THRESHOLD or more is mapped and unmapped on its
    own and the heap, which then holds only smaller blocks, is never
    trimmed, so the peak repeats to within 1%. No array in a propagation
    step comes near 1 MiB.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


class QuietCpu:
    """Moves the process to the least contended CPU before a timed phase.

    On a shared host the speed of each CPU switches between a fast and a
    slow state every few seconds, each CPU on its own. Before each timed
    phase a 2 ms probe runs on every CPU the process may use, and the
    process stays on the one that ran it fastest. The probe is outside
    every timed region.
    """

    # probing costs 4 ms per CPU and phase; a few CPUs are choice enough
    MAX_CPUS = 8

    def __init__(self):
        import numpy
        from scipy.fft import dst

        self.cpus = sorted(os.sched_getaffinity(0))[:self.MAX_CPUS]
        self._dst = dst
        self._x = numpy.ones((1400, 2))

    def _probe(self) -> float:
        """A 2 ms mix of interpreter and FFT work, timed."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(5):
            self._dst(self._x, type=1, axis=0)
        return time.perf_counter() - t0

    def settle(self):
        if len(self.cpus) < 2:
            return
        fastest = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            t = min(self._probe(), self._probe())
            if fastest is None or t < fastest[0]:
                fastest = (t, cpu)
        os.sched_setaffinity(0, {fastest[1]})


def iteration(wl, tr, run_id, out, modules, quiet, layer_values=None):
    """One pass config text -> checked solution. Returns its record.

    ``layer_values`` is given for a traced iteration: it turns the
    iteration's spans and outputs into per-layer values.
    """
    os.makedirs(out)
    traced = layer_values is not None
    rec = {"run": run_id, "traced": traced, "failures": []}
    if traced:
        tr.run_id = run_id
    t0 = time.perf_counter()
    try:
        with tr.wrapping(modules):
            quiet.settle()
            t1 = time.perf_counter()
            with tr.span("phase.setup"):
                st = wl.setup(tr)
            t2 = time.perf_counter()
            set_up = dict(st)
            quiet.settle()
            t3 = time.perf_counter()
            with tr.span("phase.solve"):
                wl.solve(tr, st, out)
            t4 = time.perf_counter()
            quiet.settle()
            t5 = time.perf_counter()
            with tr.span("phase.analyze"):
                wl.analyze(tr, st, out)
            t6 = time.perf_counter()
        rec.update(setup_s=t2 - t1, solve_s=t4 - t3, analyze_s=t6 - t5,
                   total_s=(t2 - t1) + (t4 - t3) + (t6 - t5))
        rec["failures"] += wl.check(st)
        rec["bytes"] = wl.bytes_written(out)
        if not traced:
            rec["solve_extra_s"] = []
            for k in range(wl.extra_solves):
                again = dict(set_up)
                quiet.settle()
                t7 = time.perf_counter()
                wl.solve(tr, again, os.path.join(out, f"again{k}"))
                rec["solve_extra_s"].append(time.perf_counter() - t7)
                rec["failures"] += wl.check(again)
        if traced:
            rec["layers"] = layer_values(wl, st, tr.totals(run_id))
            rec["keep"] = {"cfg": st["cfg"], "system": st["system"],
                           "grid": st["grid"],
                           "meta": st["series"].meta if "series" in st
                           else None}
    except Exception as exc:  # a raising phase fails this iteration only
        rec["failures"].append(f"{type(exc).__name__}: {exc}")
    rec["wall"] = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the benchmark's "
                         "own tests")
    args = ap.parse_args(argv)

    malloc_fixed = fix_malloc_thresholds()
    _import_program()
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"have {sorted(workloads.WORKLOADS)}")
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    import coldpa.cli
    import coldpa.config
    import coldpa.io
    modules = {m.__name__: m for m in (coldpa.cli, coldpa.config, coldpa.io)}

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    tracer = spans.Tracer() if args.trace else None
    null = spans.NullTracer()
    records = []
    try:
        wl = workloads.WORKLOADS[args.workload](args.size, args.seed, refs,
                                                work)
        quiet = QuietCpu()
        start = time.perf_counter()
        deadline = start + args.seconds
        # A traced run starts with an untraced warm-up, then alternates
        # traced and untraced iterations; the overhead compares the two
        # kinds after the warm-up, so it needs at least three iterations.
        min_iters = 3 if args.trace else 1
        setups, setup_spent = [], 0.0
        while True:
            i = len(records)
            traced = bool(args.trace) and i % 2 == 1
            records.append(iteration(
                wl, tracer if traced else null,
                f"{args.workload}-seed{args.seed}-it{i}",
                os.path.join(work, f"it{i}"), modules, quiet,
                layers.from_iteration if traced else None))
            if not args.trace and not records[-1]["failures"]:
                setups.append(records[-1]["setup_s"])
                # set-up alone, between iterations, for SETUP_SHARE of
                # the time so far: many set-up samples spread over the run
                t0 = time.perf_counter()
                quiet.settle()
                while (setup_spent + time.perf_counter() - t0
                       < SETUP_SHARE * (time.perf_counter() - start)
                       and time.perf_counter() + min(setups) < deadline):
                    t1 = time.perf_counter()
                    try:
                        wl.setup(null)
                    except Exception as exc:  # fails this iteration
                        records[-1]["failures"].append(
                            f"set-up: {type(exc).__name__}: {exc}")
                        break
                    setups.append(time.perf_counter() - t1)
                setup_spent += time.perf_counter() - t0
            next_s = statistics.median(r["wall"] for r in records)
            if (len(records) >= min_iters
                    and time.perf_counter() + next_s > deadline):
                break
        env = environment()
        env.update(cpus=quiet.cpus, malloc_thresholds_fixed=malloc_fixed)
        if env["threads"] != 1:
            records[-1]["failures"].append(
                f"process runs {env['threads']} threads, not 1")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in records if not r["failures"]]
    failed = len(records) - len(ok)
    for r in records:
        print(json.dumps({k: v for k, v in r.items()
                          if k not in ("keep", "layers")}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "size": args.size, "trace": args.trace, "env": env}))
    if len(setups) > 1:
        q1, med, q3 = statistics.quantiles(setups, n=4)
        print(json.dumps({"setup_samples": len(setups), "setup_s_q1": q1,
                          "setup_s_median": med, "setup_s_q3": q3}))

    if args.trace:
        traced = [r for r in ok if r["traced"]]
        untraced = [r for r in ok if not r["traced"] and r is not records[0]]
        if traced and untraced:
            values = layers.assemble(wl, traced, untraced, traced[-1]["keep"])
        else:
            values = dict.fromkeys(layers.PER_LAYER, 0.0)
        units = layers.PER_LAYER
        tracer.dump(out_root / f"spans-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "size": args.size, "env": env})
    else:
        solves = [t for r in ok for t in [r["solve_s"], *r["solve_extra_s"]]]
        values = {
            "solve_s": statistics.median(solves) if ok else 0.0,
            "total_s": statistics.median(r["total_s"] for r in ok)
            if ok else 0.0}
        values["setup_s"] = statistics.median(setups) if setups else 0.0
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
