"""Machine-readable report documents.

JSON is the default output; tables can also serialize to CSV.  Documents are
deterministic (sorted keys, fixed layout) and every numeric field is checked
finite before emission.  Floats serialize via Python's shortest round-trip
representation, which is lossless on parse.

A document may hold the package's records themselves: a dataclass record
encodes as an object of its fields, a complex number as `{"re", "im"}`, and
a numpy array or scalar as its `tolist()`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np

from . import __version__
from .bounds import BoundReport
from .errors import NumericError

TOOL = {"name": "qfibounds", "version": __version__}


def _plain(obj):
    """What json writes for obj: a record's fields, a complex's parts, a numpy value's list."""
    if dataclasses.is_dataclass(obj):
        return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()  # a numpy scalar's tolist() is its item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def ensure_finite(obj, path: str = "$") -> None:
    """Reject documents containing non-finite numbers, naming the first one's path."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            ensure_finite(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            ensure_finite(value, f"{path}[{i}]")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise NumericError(f"non-finite value at {path}: {obj!r}")
    elif not (obj is None or isinstance(obj, (str, int))):
        try:
            plain = _plain(obj)
        except TypeError:
            raise NumericError(f"unserializable value at {path}: {type(obj).__name__}") from None
        ensure_finite(plain, path)


def to_json(doc: dict) -> str:
    """The document in one pass; a value json refuses is then found and named."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_plain) + "\n"
    except (TypeError, ValueError):
        ensure_finite(doc)
        raise


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


def sweep_csv(rows: list[dict]) -> str:
    ensure_finite(rows, "$.points")
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
        writer.writerow({k: flat.get(k, "") for k in columns})
    return buffer.getvalue()
