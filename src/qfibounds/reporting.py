"""Machine-readable report documents.

JSON is the default output; tables can also serialize to CSV.  Documents are
deterministic (sorted keys, fixed layout) and every numeric field is checked
finite before emission.  Floats serialize via Python's shortest round-trip
representation, which is lossless on parse.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from . import __version__
from .bounds import BoundReport, ConditionReport
from .errors import NumericError
from .multiparam import InfoMatrix, LoewnerReport

TOOL = {"name": "qfibounds", "version": __version__}


def native(obj):
    """Recursively convert numpy scalars and arrays to plain Python values."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [native(x) for x in obj]
    if isinstance(obj, dict):
        return {key: native(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [native(x) for x in obj]
    return obj


def ensure_finite(obj, path: str = "$") -> None:
    """Reject documents containing non-finite numbers."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NumericError(f"non-finite value at {path}: {obj!r}")
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            ensure_finite(value, f"{path}.{key}")
        return
    if isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            ensure_finite(value, f"{path}[{i}]")
        return
    raise NumericError(f"unserializable value at {path}: {type(obj).__name__}")


def to_json(doc: dict) -> str:
    doc = native(doc)
    ensure_finite(doc)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def complex_value(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def matrix_values(m: np.ndarray) -> list:
    arr = np.asarray(m)
    if np.iscomplexobj(arr):
        return [[complex_value(z) for z in row] for row in arr]
    return [[float(x) for x in row] for row in arr.reshape(arr.shape[0], -1)]


def bound_report_dict(report: BoundReport) -> dict:
    return {
        "theta": report.theta,
        "fisher_information": report.fisher_information,
        "sld_information": report.sld_information,
        "channel_bound": report.channel_bound,
        "representation_bound": report.representation_bound,
        "gap": report.gap,
        "attainability": {
            "attainable": report.attainable,
            "residual": report.attainability_residual,
            "tol": report.attainability_tol,
        },
        "method_cross_check": report.method_cross_check,
        "gauge_source": report.gauge_source,
        "warnings": list(report.warnings),
    }


def condition_report_dict(report: ConditionReport) -> dict:
    return {
        "satisfied": report.satisfied,
        "tol": report.tol,
        "note": report.note,
        "elements": [
            {"index": e.index, "xi": e.xi, "residual": e.residual, "vacuous": e.vacuous}
            for e in report.elements
        ],
    }


def info_matrix_dict(matrix: InfoMatrix | None) -> dict | None:
    if matrix is None:
        return None
    return {"kind": matrix.kind, "entries": matrix_values(matrix.entries)}


def loewner_report_dict(report: LoewnerReport) -> dict:
    out = {"tol": report.tol, "all_hold": report.all_hold}
    for name in ("fisher_le_sld", "sld_le_sm", "fisher_le_sm"):
        verdict = getattr(report, name)
        out[name] = {"holds": verdict.holds, "min_eigenvalue": verdict.min_eigenvalue}
    return out


def sweep_csv(rows: list[dict]) -> str:
    columns = [
        "theta",
        "fisher_information",
        "sld_information",
        "channel_bound",
        "representation_bound",
        "gap",
        "attainability_residual",
        "attainable",
        "warnings",
    ]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        flat = dict(row)
        att = flat.pop("attainability", None)
        if att:
            flat["attainability_residual"] = att["residual"]
            flat["attainable"] = att["attainable"]
        flat["warnings"] = ";".join(flat.get("warnings") or [])
        flat.pop("method_cross_check", None)
        flat.pop("gauge_source", None)
        writer.writerow({k: flat.get(k, "") for k in columns})
    return buffer.getvalue()
