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
from .bounds import UNATTAINABLE, BoundReport
from .errors import NumericError
from .linalg import loewner_leq, max_abs

TOOL = {"name": "qfibounds", "version": __version__}
GAUGE_NOTE = ("eigenvector gauge fixed by parallel transport of the Gram eigenvectors; "
              "diagonal overlaps <w'|w> are gauge-dependent")
PINV_RCOND = 1e-12


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


def report_dict(report: BoundReport, povm_id: str | None = None):
    """The JSON view of a bound report, any parameter count m.

    m = 1: the scalar layout, the (0, 0) entries of the record's matrices; a
    stacked report gives one such row per point, as a sweep prints it, and a
    point's adds the gauge note, the unitary condition and, with a POVM, its
    id and the two optimality conditions.  m > 1, a point: the matrix layout,
    each matrix as {"entries", "kind"}, with method_cross_check the largest
    entry of |C - C_kraus|, and with the covariance floor (the pseudo-inverse
    of H and its rank) and the Loewner verdicts F <= H <= C computed here.
    """
    m = report.theta.shape[-1]
    if m == 1:
        rows = _scalar_rows(report)
        if report.theta.ndim == 2:
            return rows
        doc = rows[0]
        if report.gauge_source == "canonical-kraus":
            doc["warnings"].append(GAUGE_NOTE)
        if report.unitary_condition is not None:
            (value,), attainable = report.unitary_condition
            doc["unitary_condition"] = {"value": value, "attainable": attainable}
        if povm_id is not None:
            doc |= {"povm": povm_id, "sld_condition": report.sld_condition}
            if report.sm_condition is not None:
                doc["sm_condition"] = report.sm_condition
        return doc
    h, c, c_e = report.sld_information, report.channel_bound, report.representation_bound
    matrix = lambda a, kind: {"entries": a, "kind": kind}
    doc = {
        "theta": report.theta,
        "sld_information": matrix(h, "sld"),
        "channel_bound": matrix(c, "sm"),
        "gap": matrix(report.gap, "gap"),
        "representation_bound": None if c_e is None else matrix(c_e, "representation"),
        "method_cross_check": report.method_cross_check,
        "attainability": {
            "attainable": report.attainable,
            "residual": report.attainability_residual,
            "tol": report.attainability_tol,
            "quasi_classical": report.quasi_classical,
        },
        "gauge_source": report.gauge_source,
    }
    if report.unitary_condition is not None:
        doc["unitary_condition"] = report.unitary_condition[0]
    rank = int(np.linalg.matrix_rank(h, tol=PINV_RCOND * max(1.0, max_abs(h))))
    doc["covariance_floor"] = {"matrix": np.linalg.pinv(h, rcond=PINV_RCOND), "rank": rank}
    warnings = [w for w in report.warnings if w != UNATTAINABLE]  # the verdict is its own key
    if rank < m:
        warnings.append(f"SLD information matrix is rank {rank} of {m}; covariance floor "
                        "uses the pseudo-inverse")
    if povm_id is not None:
        doc["povm"] = povm_id
    if (f := report.fisher_information) is not None:
        doc["fisher_information"] = matrix(f, "fisher")
        tol = 1e-8 * (1.0 + max_abs(c))
        pairs = {"fisher_le_sld": (f, h), "sld_le_sm": (h, c), "fisher_le_sm": (f, c)}
        verdicts = {name: dict(zip(("holds", "min_eigenvalue"), loewner_leq(a, b, tol)))
                    for name, (a, b) in pairs.items()}
        doc["loewner"] = {**verdicts, "tol": tol,
                          "all_hold": all(v["holds"] for v in verdicts.values())}
    doc["warnings"] = warnings
    return doc


def _scalar_rows(report: BoundReport) -> list[dict]:
    """The scalar layout of each point of a one-parameter report: one row for a point."""
    n = report.theta.size
    column = lambda a: [None] * n if a is None else np.reshape(a, n).tolist()
    warnings = report.warnings if report.theta.ndim == 2 else [report.warnings]
    columns = zip(*map(column, (
        report.theta, report.fisher_information, report.sld_information, report.channel_bound,
        report.representation_bound, report.gap, report.attainable,
        report.attainability_residual, report.method_cross_check)), warnings)
    return [
        {
            "theta": theta,
            "fisher_information": f,
            "sld_information": h,
            "channel_bound": c,
            "representation_bound": c_e,
            "gap": gap,
            "attainability": {"attainable": ok, "residual": residual,
                              "tol": report.attainability_tol},
            "method_cross_check": cross,
            "gauge_source": report.gauge_source,
            "warnings": list(notes),
        }
        for theta, f, h, c, c_e, gap, ok, residual, cross, notes in columns
    ]


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
