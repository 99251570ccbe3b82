"""Deterministic file outputs: CSV with fixed float formatting, JSON with
canonical key order, and append-never run directories with a manifest.

Identical inputs must produce byte-identical files, so floats go through
'%.17g' (17 significant digits: always a round-trip form, though not
always the shortest, which is ``repr``) and JSON keys are always sorted.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np
import scipy.fft

from . import __version__
from .errors import ConfigError, DomainError
from .grids import RadialGrid, TwoChannelState
from .propagation import WALL_CLOCK_KEYS


def write_csv(path, header, rows):
    """rows: iterable of tuples; strings as they are, every other cell
    through '%.17g'. Each row is written by one %-format built from its
    cell types. A row keeps the previous row's format while it has the
    same length and strings in the same columns; a string in a number
    column makes '%.17g' raise TypeError, and the format is rebuilt."""
    fmt, width, text = "", -1, []
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            if len(row) == width and (
                    not text or all(isinstance(row[j], str) for j in text)):
                try:
                    fh.write(fmt % row)
                    continue
                except TypeError:
                    pass
            width = len(row)
            text = [j for j, c in enumerate(row) if isinstance(c, str)]
            fmt = ",".join("%s" if isinstance(c, str) else "%.17g"
                           for c in row) + "\n"
            fh.write(fmt % row)


def read_csv(path):
    """(header, columns); inverse of write_csv.

    Columns parse to float arrays where every cell is numeric and to
    object arrays of strings otherwise (the writer never quotes, so cells
    cannot contain commas).
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [ln.rstrip("\n").split(",") for ln in fh if ln.strip()]
    if not rows:
        return header, [np.empty(0) for _ in header]
    cols = []
    for j in range(len(header)):
        raw = [row[j] for row in rows]
        try:
            cols.append(np.array([float(x) for x in raw]))
        except ValueError:
            cols.append(np.array(raw, dtype=object))
    return header, cols


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def make_run_dir(out_dir: str) -> str:
    """Create out_dir; refuse to reuse a non-empty one (runs never append)."""
    if os.path.exists(out_dir):
        if os.listdir(out_dir):
            raise ConfigError(
                f"output directory {out_dir!r} is not empty; runs never "
                "overwrite or append"
            )
    else:
        os.makedirs(out_dir)
    return out_dir


# BLAS and OpenMP read their thread variables once, when they load, so a
# manifest records them as they were when the package was imported
_THREAD_ENV = {var: os.environ.get(var) for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
_TASK_DIR = "/proc/self/task"      # one entry per thread, where it exists


def _thread_count():
    try:
        return len(os.listdir(_TASK_DIR))
    except OSError:
        return None


def write_manifest(out_dir: str, command: str, config_text: str,
                   extra: dict = None):
    """manifest.json in out_dir: the command, its config text, the files
    beside it, the package version and an ``environment`` block (numpy
    and scipy versions, ``scipy.fft`` workers, the process's thread
    count, null where the system does not list threads, and the BLAS and
    OpenMP thread variables at import, null where unset); ``extra`` adds
    top-level keys."""
    manifest = {
        "command": command,
        "config": config_text,
        "environment": {"numpy": np.__version__, "scipy": scipy.__version__,
                        "fft_workers": scipy.fft.get_workers(),
                        "threads": _thread_count(),
                        "thread_env": _THREAD_ENV},
        "files": sorted(f for f in os.listdir(out_dir)
                        if f != "manifest.json"),
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


# --- grid and state round-trips --------------------------------------------

def save_grid(path, grid: RadialGrid):
    rows = zip(grid.r, grid.w)
    write_csv(path, ["r_bohr", "weight"], rows)


def save_state(path, state: TwoChannelState):
    g, e = state.g, state.e
    rows = zip(state.grid.r, g.real, g.imag, e.real, e.imag)
    write_csv(path, ["r_bohr", "re_g", "im_g", "re_e", "im_e"], rows)


def load_state(path, grid: RadialGrid, t: float = 0.0) -> TwoChannelState:
    header, cols = read_csv(path)
    if header != ["r_bohr", "re_g", "im_g", "re_e", "im_e"]:
        raise DomainError(f"{path!r} is not a saved two-channel state")
    r, re_g, im_g, re_e, im_e = cols
    if len(r) != grid.n or not np.allclose(r, grid.r, rtol=0, atol=1e-9):
        raise DomainError(
            f"state in {path!r} was saved on a different grid"
        )
    return TwoChannelState(grid, re_g + 1j * im_g, re_e + 1j * im_e, t)


def meta_to_json(meta: dict) -> dict:
    """A :class:`~coldpa.propagation.TimeSeries` meta as JSON values: ints
    and strings as they are, a dict (the order histogram) with string
    keys, every other value as a float."""
    def value(v):
        if isinstance(v, dict):
            return {str(k): value(x) for k, x in v.items()}
        return v if isinstance(v, (int, str)) else float(v)

    return {k: value(v) for k, v in meta.items()}


def save_timeseries(out_dir: str, series) -> None:
    """populations.csv + one state CSV per snapshot inside out_dir.

    The series meta goes into snapshots.json without its wall-clock
    timings, so identical runs write identical files.
    """
    write_csv(
        os.path.join(out_dir, "populations.csv"),
        ["t_ps", "pop_g", "pop_e", "norm"],
        zip(series.t_ps, series.pop_g, series.pop_e, series.norm),
    )
    index = []
    for i, snap in enumerate(series.snapshots):
        name = f"state_{i:04d}.csv"
        save_state(os.path.join(out_dir, name), snap)
        index.append({"file": name, "t_ps": snap.t_ps})
    write_json(os.path.join(out_dir, "snapshots.json"), {
        "snapshots": index,
        "meta": meta_to_json({k: v for k, v in series.meta.items()
                              if k not in WALL_CLOCK_KEYS}),
    })


def peaks_to_json(peaks) -> list[dict]:
    out = []
    for p in peaks:
        d = {}
        for k, v in asdict(p).items():
            if isinstance(v, bool):
                d[k] = v
            elif isinstance(v, (int, float)):
                # JSON has no Infinity; an unmatched drift time becomes null
                d[k] = float(v) if np.isfinite(v) else None
            else:
                d[k] = v
        out.append(d)
    return out
