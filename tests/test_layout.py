"""The JSON layout of each command's document: every key path and the type of every value.

A document's shape replaces each scalar by its type name and each list by
the distinct shapes of its elements, so two documents have one shape when
they hold the same keys at the same paths with values of the same types.
"""

import json

import pytest

from qfibounds.cli import main

ESTIMATE = ["--theta-true", "0.3", "--shots", "2000", "--reps", "4", "--seed", "3"]
SPECS = {
    "rotation": "family = rotation\naxis = x\n",
    "random-kraus": "family = random-kraus\ndim = 3\nenv = 2\nseed = 11\n",
    "rotation-2p": "family = rotation-2p\n",
    "dephasing": "family = dephasing\n",
    "damping": "family = amplitude-damping\n",
}

TOOL = {"name": "str", "version": "str"}
CHANNEL = {"name": "str", "family": "str", "dim": "int", "param_count": "int",
           "domain": [["float"]], "spec": "str"}
COMPLEX = {"re": "float", "im": "float"}
CONDITION = {
    "elements": [{"index": "int", "xi": "float", "residual": "float", "vacuous": "bool"}],
    "note": "str",
    "satisfied": "bool",
    "tol": "float",
}
POINT = {
    "theta": "float",
    "fisher_information": "float",
    "sld_information": "float",
    "channel_bound": "float",
    "representation_bound": "float",
    "gap": "float",
    "attainability": {"attainable": "bool", "residual": "float", "tol": "float"},
    "method_cross_check": "float",
    "gauge_source": "str",
    "povm": "str",
    "sld_condition": CONDITION,
    "sm_condition": CONDITION,
    "warnings": ["str"],
}
MATRIX = {"entries": [["float"]], "kind": "str"}
VERDICT = {"holds": "bool", "min_eigenvalue": "float"}
FLOORS = {"fisher": "float", "sld": "float", "channel_bound": "float"}
RUN = {
    "channel_id": "str",
    "theta_true": "float",
    "povm_id": "str",
    "shots": "int",
    "seed": "int",
    "counts": ["int"],
    "theta_hat": "float",
    "predicted_bounds": FLOORS,
    "empirical_variance": "float",
    "variance_ratios": FLOORS,
    "replications": "int",
    "theta_hats": ["float"],
    "bias": "float",
    "stages": [],
    "boundary": "bool",
    "rng": "str",
}
STAGE = {"povm_id": "str", "shots": "int", "counts": ["int"], "theta_hat": "float",
         "boundary": "bool"}
OPTIMUM = {"tool": TOOL, "channel": CHANNEL, "objective": "str", "theta": ["float"],
           "optimal_input": [COMPLEX], "value": "float"}

CASES = {
    "report-rotation": (
        ["report", "rotation", "--theta", "0.4", "--povm", "optimal"],
        {"tool": TOOL, "channel": CHANNEL, "config": {"tol": "float"},
         "result": {**POINT, "unitary_condition": {"value": COMPLEX, "attainable": "bool"}}},
    ),
    "report-random-kraus": (
        ["report", "random-kraus", "--theta", "0.3", "--povm", "optimal"],
        {"tool": TOOL, "channel": CHANNEL, "config": {"tol": "float"}, "result": POINT},
    ),
    "report-rotation-2p": (
        ["report", "rotation-2p", "--theta", "0.2", "0.3", "--povm", "computational"],
        {"tool": TOOL, "channel": CHANNEL, "config": {"tol": "float"}, "result": {
            "theta": ["float"],
            "sld_information": MATRIX,
            "channel_bound": MATRIX,
            "gap": MATRIX,
            "representation_bound": MATRIX,
            "method_cross_check": "float",
            "fisher_information": MATRIX,
            "attainability": {"attainable": "bool", "residual": "float", "tol": "float",
                              "quasi_classical": "bool"},
            "gauge_source": "str",
            "unitary_condition": [COMPLEX],
            "covariance_floor": {"matrix": [["float"]], "rank": "int"},
            "povm": "str",
            "loewner": {"tol": "float", "all_hold": "bool", "fisher_le_sld": VERDICT,
                        "sld_le_sm": VERDICT, "fisher_le_sm": VERDICT},
            "warnings": [],
        }},
    ),
    "estimate-fixed": (
        ["estimate", "dephasing", *ESTIMATE],
        {"tool": TOOL, "channel": CHANNEL, "experiment": RUN},
    ),
    "estimate-adaptive": (
        ["estimate", "dephasing", *ESTIMATE, "--adaptive"],
        {"tool": TOOL, "channel": CHANNEL, "experiment": {**RUN, "stages": [STAGE]}},
    ),
    "optimize-input-sld": (
        ["optimize-input", "damping", "--theta", "0.3", "--restarts", "1"],
        {**OPTIMUM, "ancilla_bound": "float", "certified": "bool"},
    ),
    "optimize-input-channel-bound": (
        ["optimize-input", "damping", "--theta", "0.3", "--restarts", "1",
         "--objective", "channel-bound"],
        OPTIMUM,
    ),
}


def shape(value):
    """The value with each scalar replaced by its type name and each list by its elements' shapes."""
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    if isinstance(value, list):
        shapes = []
        for item in map(shape, value):
            if item not in shapes:
                shapes.append(item)
        return shapes
    return type(value).__name__


@pytest.mark.parametrize("case", CASES)
def test_document_layout(case, tmp_path, capsys):
    (command, family, *args), expected = CASES[case]
    path = tmp_path / f"{family}.qchan"
    path.write_text(SPECS[family])
    assert main([command, str(path), *args]) == 0
    assert shape(json.loads(capsys.readouterr().out)) == expected
