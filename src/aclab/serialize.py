"""Machine-readable output: JSON and CSV with lossless float formatting.

All floats are emitted with 17 significant digits so a written value parses
back to the identical double; identical inputs therefore produce
byte-identical files.
"""

import math
from dataclasses import asdict, is_dataclass

import numpy as np


def fmt(x) -> str:
    """17-significant-digit decimal form of a float."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def _jsonify(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(f'"{k}": ')
            _jsonify(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _jsonify(v, out)
        out.append("]")
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt(obj))
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        out.append(f'"{escaped}"')
    elif is_dataclass(obj):
        _jsonify(asdict(obj), out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    out = []
    _jsonify(obj, out)
    return "".join(out) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def write_csv(path, header, rows):
    """Write rows of floats/ints/strings under a header line."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                cell if isinstance(cell, str) else str(cell) if isinstance(cell, (int, np.integer)) else fmt(cell)
                for cell in row
            ]
            fh.write(",".join(cells) + "\n")


def ground_state_record(gs) -> dict:
    """The profile and its health: the max-norm PDE residual and the peak solve's residual."""
    return {
        "kappa": gs.kappa,
        "N": gs.peak.N,
        "energy": gs.energy,
        "residual": gs.residual,
        "peak_residual": gs.peak.residual,
        "n_points": gs.field.grid.n_points,
        "values": gs.field.values,
    }


def catalog_record(cat) -> dict:
    return {
        "kappa": cat.kappa,
        "m": cat.m,
        "replicas": [
            {
                "j": r.j,
                "energy": r.energy,
                "period": r.period,
                "values": r.field.values,
            }
            for r in cat.replicas
        ],
    }


def trajectory_rows(traj):
    d = traj.diagnostics
    return np.column_stack((d.times, d.mass, d.energy, d.c1, d.hi_mass, d.linf))


TRAJECTORY_HEADER = ("t", "mass", "energy", "c1", "hi_mass", "linf")


def rate_fit_rows(fit):
    """Rows (t, y, y_fit, y_fit / y - 1) of a fit's samples; its residual is the max |y_fit / y - 1|."""
    return np.column_stack((fit.t, fit.y, fit.y_fit, fit.y_fit / fit.y - 1.0))


RATE_FIT_HEADER = ("t", "y", "y_fit", "relative_residual")


def check_record(result) -> dict:
    return {
        "check_name": result.name,
        "pass": result.passed,
        "observed": result.observed,
        "expected": result.expected,
        "tolerance": result.tolerance,
        "window": result.window,
        "detail": result.detail,
    }
