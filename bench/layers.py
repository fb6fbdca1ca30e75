"""Per-layer metrics, computed from the traced run.

Layers are qfibounds' modules.  Counts are per unit of work: a "point" is a
sweep point on `bounds` and one objective evaluation on `optimize-input`.
Self times are seconds per round of the workload, summed over the span
names of the layer; a metric a workload does not exercise reads 0.
"""

from __future__ import annotations

from tracing import add

# (metric, unit); BENCHMARK.json lists the same names in the same order.
PER_LAYER = [
    ("linalg.eigendecompositions_per_point", "count/point"),
    ("linalg.eigh_self_s", "s/round"),
    ("channels.kraus_evals_per_point", "count/point"),
    ("channels.kraus_grad_evals_per_point", "count/point"),
    ("channels.kraus_self_s", "s/round"),
    ("channels.output_matrix_self_s", "s/round"),
    ("bounds.canonical_kraus_per_point", "count/point"),
    ("bounds.spectral_curves_per_point", "count/point"),
    ("bounds.canonical_kraus_per_report", "count/report"),
    ("bounds.spectral_curves_per_report", "count/report"),
    ("bounds.canonical_kraus_self_s", "s/round"),
    ("bounds.spectral_curve_self_s", "s/round"),
    ("bounds.functionals_self_s", "s/round"),
    ("bounds.fisher_self_s", "s/round"),
    ("bounds.condition_checks_self_s", "s/round"),
    ("multiparam.canonical_kraus_multi_self_s", "s/round"),
    ("multiparam.multi_spectral_curve_self_s", "s/round"),
    ("multiparam.matrices_self_s", "s/round"),
    ("multiparam.directional_check_self_s", "s/round"),
    ("estimation.likelihood_evals_per_replication", "count/rep"),
    ("estimation.mle_self_s", "s/round"),
    ("estimation.sampling_self_s", "s/round"),
    ("estimation.predicted_bounds_per_experiment", "count/exp"),
    ("estimation.objective_evals_per_optimization", "count/opt"),
    ("estimation.rejected_evals_per_optimization", "count/opt"),
    ("estimation.optimize_self_s", "s/round"),
    ("verify.battery_builds", "count/run"),
    ("verify.battery_build_s", "s/round"),
    ("verify.suite_self_s", "s/round"),
    ("reporting.to_json_self_s", "s/round"),
    ("reporting.json_bytes_per_point", "B/point"),
    ("specfile.parse_s", "s/round"),
    ("cli.self_s", "s/round"),
    ("cli.import_s", "s"),
    ("trace.overhead_pct", "%"),
]

KRAUS = [
    "channels.kraus_fn",
    "channels.kraus_grad_fn",
    "channels.kraus_derivative",
    "channels.ParametricChannel.kraus_matrices",
    "channels.ParametricChannel.kraus_at",
]
OUTPUT = [
    "channels.ParametricChannel.output_matrix",
    "channels.ParametricChannel.output_state",
    "channels.ParametricChannel.output_matrix_partial",
]
FUNCTIONALS = [
    f"bounds.{name}"
    for name in (
        "sld_information", "sld_score", "sm_bound_spectral", "sm_bound_kraus", "bound_gap",
        "attainability_check", "bound_report", "unitary_attainability",
        "optimal_povm_from_sld", "remixing_penalty",
    )
]
CONDITIONS = ["bounds.povm_sld_condition_check", "bounds.povm_sm_condition_check"]
MATRICES = [
    f"multiparam.{name}"
    for name in (
        "sld_matrix", "sm_matrix", "fisher_matrix", "loewner_report", "pinv_with_rank",
        "multi_attainability_check",
    )
]
SAMPLING = ["estimation.sample_outcomes", "estimation.rng_from_seed", "estimation.replication_seed"]
BATTERIES = ["verify.one_param_battery", "verify.two_param_battery"]
PARSING = ["specfile.ChannelSpec.from_text", "specfile.ChannelSpec.build"]

# (child, ancestors...) counts the tracer keeps while it runs.
LIKELIHOOD = ("channels.ParametricChannel.output_matrix", "estimation.mle_estimate",
              "estimation.cr_experiment")
PREDICTED = ("estimation.predicted_bounds", "estimation.adaptive_experiment")
OBJECTIVE = ("bounds.spectral_curve", "estimation.optimize_input_state")
WATCHES = [LIKELIHOOD, PREDICTED, OBJECTIVE]


def _calls(delta: dict, *names: str) -> int:
    return sum(delta.get("calls", {}).get(n, 0) for n in names)


def _self_s(delta: dict, names) -> float:
    return sum(delta.get("self_ns", {}).get(n, 0) for n in names) / 1e9


def _total_s(delta: dict, names) -> float:
    return sum(delta.get("total_ns", {}).get(n, 0) for n in names) / 1e9


def _watch(delta: dict, key) -> list[int]:
    return delta.get("watch", {}).get((key[0], tuple(key[1:])), [0, 0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, kinds: dict, units: dict, out_bytes: dict, rounds: int,
                  import_s: float, overhead_pct: float) -> dict:
    """kinds: op kind -> tracer difference; units: op kind -> work units."""
    total: dict = {}
    for delta in kinds.values():
        add(total, delta)
    prefix_names = set(total.get("self_ns", {}))

    def self_of(prefix: str, exclude=()) -> float:
        return _self_s(total, [n for n in prefix_names if n.startswith(prefix) and n not in exclude])

    if workload == "bounds":
        point_delta, points = kinds.get("sweep", {}), units.get("sweep", 0)
    elif workload == "optimize-input":
        point_delta, points = total, _watch(total, OBJECTIVE)[0]
    else:
        point_delta, points = {}, 0
    report = kinds.get("report", {})
    reports = units.get("report", 0)
    optimizations = units.get("sld", 0) + units.get("channel-bound", 0)
    per_round = 1.0 / rounds

    values = {
        "linalg.eigendecompositions_per_point":
            _ratio(_calls(point_delta, "linalg.hermitian_eigendecompose"), points),
        "linalg.eigh_self_s": self_of("linalg.") * per_round,
        "channels.kraus_evals_per_point": _ratio(_calls(point_delta, "channels.kraus_fn"), points),
        "channels.kraus_grad_evals_per_point":
            _ratio(_calls(point_delta, "channels.kraus_grad_fn"), points),
        "channels.kraus_self_s": _self_s(total, KRAUS) * per_round,
        "channels.output_matrix_self_s": _self_s(total, OUTPUT) * per_round,
        "bounds.canonical_kraus_per_point": _ratio(_calls(point_delta, "bounds.canonical_kraus"), points),
        "bounds.spectral_curves_per_point": _ratio(_calls(point_delta, "bounds.spectral_curve"), points),
        "bounds.canonical_kraus_per_report": _ratio(_calls(report, "bounds.canonical_kraus"), reports),
        "bounds.spectral_curves_per_report": _ratio(_calls(report, "bounds.spectral_curve"), reports),
        "bounds.canonical_kraus_self_s": _self_s(total, ["bounds.canonical_kraus"]) * per_round,
        "bounds.spectral_curve_self_s": _self_s(total, ["bounds.spectral_curve"]) * per_round,
        "bounds.functionals_self_s": _self_s(total, FUNCTIONALS) * per_round,
        "bounds.fisher_self_s": _self_s(total, ["bounds.fisher_information"]) * per_round,
        "bounds.condition_checks_self_s": _self_s(total, CONDITIONS) * per_round,
        "multiparam.canonical_kraus_multi_self_s":
            _self_s(total, ["multiparam.canonical_kraus_multi"]) * per_round,
        "multiparam.multi_spectral_curve_self_s":
            _self_s(total, ["multiparam.multi_spectral_curve"]) * per_round,
        "multiparam.matrices_self_s": _self_s(total, MATRICES) * per_round,
        "multiparam.directional_check_self_s":
            _self_s(total, ["multiparam.directional_reduction_check"]) * per_round,
        "estimation.likelihood_evals_per_replication":
            _ratio(_watch(total, LIKELIHOOD)[0], units.get("fixed", 0)),
        "estimation.mle_self_s": _self_s(total, ["estimation.mle_estimate"]) * per_round,
        "estimation.sampling_self_s": _self_s(total, SAMPLING) * per_round,
        "estimation.predicted_bounds_per_experiment":
            _ratio(_watch(total, PREDICTED)[0], _calls(total, "estimation.adaptive_experiment")),
        "estimation.objective_evals_per_optimization":
            _ratio(_watch(total, OBJECTIVE)[0], optimizations),
        "estimation.rejected_evals_per_optimization":
            _ratio(_watch(total, OBJECTIVE)[1], optimizations),
        "estimation.optimize_self_s": _self_s(total, ["estimation.optimize_input_state"]) * per_round,
        "verify.battery_builds": _ratio(_calls(kinds.get("all", {}), "verify.one_param_battery"),
                                        units.get("all", 0)),
        "verify.battery_build_s": _total_s(total, BATTERIES) * per_round,
        "verify.suite_self_s": self_of("verify.", exclude=BATTERIES) * per_round,
        "reporting.to_json_self_s": _self_s(total, ["reporting.to_json"]) * per_round,
        "reporting.json_bytes_per_point": _ratio(out_bytes.get("sweep", 0), units.get("sweep", 0))
        if workload == "bounds" else 0.0,
        "specfile.parse_s": _total_s(total, PARSING) * per_round,
        "cli.self_s": self_of("cli.") * per_round,
        "cli.import_s": import_s,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
