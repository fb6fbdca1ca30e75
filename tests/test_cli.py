import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfibounds
from qfibounds.channels import builtin
from qfibounds.cli import main

DEPHASING = """\
family = dephasing
name = dephasing-plus
input_state = [0.7071067811865476+0i, 0.7071067811865476+0i]
"""

EXAMPLE1 = "family = example1\n"
EXAMPLE2 = "family = example2\nf_coeffs = [0, 1, 0]\ng_coeffs = [0, 0, 1]\n"
DAMPING = "family = amplitude-damping\n"
DEPHASING2P = "family = dephasing-2p\n"
# E_k(0) = delta_k0 I, so the Gram rank jumps from 1 at theta = 0 to 2 nearby.
RANK_CHANGE = "family = random-kraus\ndim = 3\nenv = 2\nseed = 3022\n"
# p_2 = theta leaves the support at theta = 0 with slope one: a spectral-form rank change.
SPECTRAL_RANK_CHANGE = """\
family = custom-spectral
theta_domain = [0.0, 0.95]
eigenvector_1 = [0.7071067811865476+0i, 0.7071067811865476+0i]
eigenvector_2 = [0.7071067811865476+0i, -0.7071067811865476+0i]
eigenvalue_1 = [1.0, -1.0]
eigenvalue_2 = [0.0, 1.0]
"""


@pytest.fixture
def spec_file(tmp_path):
    def write(text, name="channel.qchan"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_dephasing_with_povm(spec_file, capsys):
    code, out, _ = run_cli(
        capsys, "report", spec_file(DEPHASING), "--theta", "0.2", "--povm", "x-basis"
    )
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["fisher_information"] == pytest.approx(6.25, rel=1e-6)
    assert result["sld_information"] == pytest.approx(6.25, rel=1e-6)
    assert result["channel_bound"] == pytest.approx(6.25, rel=1e-6)
    assert result["attainability"]["attainable"] is True
    assert result["sld_condition"]["satisfied"] is True
    assert result["sm_condition"]["satisfied"] is True
    assert doc["channel"]["spec"] == DEPHASING


def test_report_example1(spec_file, capsys):
    code, out, _ = run_cli(capsys, "report", spec_file(EXAMPLE1), "--theta", "0.6")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["sld_information"] == pytest.approx(8.5, rel=1e-9)
    assert result["channel_bound"] == pytest.approx(8.5, rel=1e-9)
    assert result["gap"] < 1e-12


def test_report_not_attainable_notes_condition(spec_file, capsys):
    code, out, _ = run_cli(capsys, "report", spec_file(DAMPING), "--theta", "0.5")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["attainability"]["attainable"] is False
    assert result["gap"] > 0
    assert any("unsatisfiable" in w for w in result["warnings"])


def test_report_multiparameter(spec_file, capsys):
    code, out, _ = run_cli(
        capsys, "report", spec_file(EXAMPLE2), "--theta", "0.6", "0.3", "--povm", "computational"
    )
    assert code == 0
    result = json.loads(out)["result"]
    h = np.array(result["sld_information"]["entries"])
    c = np.array(result["channel_bound"]["entries"])
    assert np.allclose(h, c, atol=1e-9)
    assert result["attainability"]["attainable"] is True
    assert result["loewner"]["all_hold"] is True
    assert result["covariance_floor"]["rank"] == 2


def test_report_unitary_condition(spec_file, capsys):
    code, out, _ = run_cli(
        capsys, "report", spec_file("family = rotation\naxis = z\n"), "--theta", "0.4"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["unitary_condition"]["value"]["im"] == pytest.approx(0.5, abs=1e-9)
    assert result["unitary_condition"]["attainable"] is False


def test_report_validation_exit_codes(spec_file, capsys):
    code, _, err = run_cli(capsys, "report", spec_file(DEPHASING), "--theta", "1.5")
    assert code == 2 and "outside domain" in err
    code, _, err = run_cli(
        capsys, "report", spec_file("family = warp\n", "bad.qchan"), "--theta", "0.2"
    )
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(capsys, "report", str(spec_file("x")) + ".missing", "--theta", "0.2")
    assert code == 2


@pytest.mark.parametrize("text, key", [
    ("family = dephasing\ntheta_domain = [x, 0.9]\n", "theta_domain"),
    ("family = random-kraus\nscale = abc\n", "scale"),
    ("family = random-kraus\nscale = nan\n", "scale"),
    ("family = random-kraus\nscale = 1e308\n", "scale"),  # its phases carry no digit
    ("family = random-kraus\nparam_count = 0\n", "param_count"),
    ("family = random-kraus\nseed = -1\n", "seed"),
    ("family = example2\ntheta_domain = [0.1, 0.9]\n", "domain"),
])
def test_malformed_spec_value_exits_2_naming_its_key(spec_file, capsys, text, key):
    code, out, err = run_cli(capsys, "report", spec_file(text), "--theta", "0.3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and key in err


def test_random_kraus_scale_of_one_is_unchanged(spec_file, capsys):
    # The build-time bound on scale refuses nothing at scale 1: the report's
    # bytes are those from before the bound existed.
    text = "family = random-kraus\nscale = 1\n"
    code, out, _ = run_cli(capsys, "report", spec_file(text), "--theta", "0.3")
    assert code == 0
    digest = "824878b1a5c2e58882a39c5a0a0b9da18f23e68ab2dac387b15c914463e4af06"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("text, message", [
    ("family = dephasing\ninput_state = [1+0i, nan]\n",
     "state is not normalized: norm defect nan"),
    (SPECTRAL_RANK_CHANGE.replace("[0.7071067811865476+0i, 0.7071067811865476+0i]", "[nan, 0i]"),
     "eigenvectors not orthonormal: defect nan"),
    (SPECTRAL_RANK_CHANGE.replace("[1.0, -1.0]", "[nan, -1.0]"),
     "eigenvalue coefficients do not keep the values summing to one"),
    (SPECTRAL_RANK_CHANGE.replace("[1.0, -1.0]", "[1.0, nan]"),
     "eigenvalue coefficients do not keep the values summing to one"),
])
def test_non_finite_amplitude_or_coefficient_exits_2(spec_file, capsys, text, message):
    code, out, err = run_cli(capsys, "report", spec_file(text), "--theta", "0.3")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_report_numeric_failure_exit_code(spec_file, capsys):
    # dephasing-2p at t1 t2 = 0.5 crosses the output-eigenvalue degeneracy
    code, _, err = run_cli(
        capsys, "report", spec_file(DEPHASING2P), "--theta", "0.625", "0.8"
    )
    assert code == 3 and "degenerate" in err.lower()


def test_sweep_json_and_csv(spec_file, capsys):
    path = spec_file(DEPHASING)
    code, out, _ = run_cli(capsys, "sweep", path, "--theta-grid", "0.1:0.9:9")
    assert code == 0
    doc = json.loads(out)
    thetas = [p["theta"] for p in doc["points"]]
    assert thetas == pytest.approx(list(np.linspace(0.1, 0.9, 9)))
    for p in doc["points"]:
        assert p["sld_information"] == pytest.approx(
            1 / (p["theta"] * (1 - p["theta"])), rel=1e-6
        )
    code, out, _ = run_cli(capsys, "sweep", path, "--theta-grid", "0.2,0.4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("theta,")
    assert len(lines) == 3


def test_sweep_example1_gap_column_zero(spec_file, capsys):
    code, out, _ = run_cli(
        capsys, "sweep", spec_file(EXAMPLE1), "--theta-grid", "0.2:0.8:4"
    )
    assert code == 0
    for p in json.loads(out)["points"]:
        assert abs(p["gap"]) < 1e-12


def test_sweep_outside_domain_exits_2(spec_file, capsys):
    code, _, err = run_cli(capsys, "sweep", spec_file(DEPHASING), "--theta-grid", "0.5:1.5:3")
    assert code == 2 and "outside domain" in err


def test_estimate_deterministic_output(spec_file, capsys):
    path = spec_file(DEPHASING)
    args = (
        "estimate", path, "--theta-true", "0.2", "--shots", "2000",
        "--reps", "20", "--seed", "5", "--povm", "x-basis",
    )
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["experiment"]["replications"] == 20
    assert sum(doc["experiment"]["counts"]) == 2000
    # document round-trips through JSON
    assert json.loads(json.dumps(doc)) == doc


def test_estimate_seed_env_fallback(spec_file, capsys, monkeypatch):
    path = spec_file(DEPHASING)
    args = (
        "estimate", path, "--theta-true", "0.2", "--shots", "1000",
        "--reps", "5", "--povm", "optimal",
    )
    monkeypatch.setenv("QFI_SEED", "77")
    _, out_env, _ = run_cli(capsys, *args)
    monkeypatch.delenv("QFI_SEED")
    _, out_default, _ = run_cli(capsys, *args)
    _, out_explicit, _ = run_cli(capsys, *args, "--seed", "77")
    assert out_env == out_explicit
    assert out_env != out_default


def test_estimate_adaptive(spec_file, capsys):
    code, out, _ = run_cli(
        capsys, "estimate", spec_file(DEPHASING), "--theta-true", "0.2",
        "--shots", "2000", "--reps", "10", "--seed", "3", "--adaptive", "--n-pilot", "400",
    )
    assert code == 0
    exp = json.loads(out)["experiment"]
    assert len(exp["stages"]) == 2
    assert exp["stages"][0]["povm_id"] == "pilot"
    assert exp["stages"][1]["shots"] == 1600


def test_fixed_estimate_records_replication_zeros_boundary_flag(spec_file, capsys):
    # the x-basis likelihood of 50 "+" outcomes peaks at the domain edge theta = 0
    code, out, _ = run_cli(
        capsys, "estimate", spec_file("family = dephasing\n"), "--theta-true", "0.001",
        "--shots", "50", "--reps", "4", "--seed", "3", "--povm", "x-basis",
    )
    assert code == 0
    exp = json.loads(out)["experiment"]
    assert exp["theta_hat"] == pytest.approx(7.45e-09, rel=1e-2)
    assert exp["boundary"] is True


@pytest.mark.parametrize("povm", ["optimal", "computational", "x-basis", "y-basis"])
def test_estimate_refuses_a_povm_for_an_adaptive_run(spec_file, capsys, povm):
    # the second stage measures the SLD-optimal POVM at the pilot estimate
    with pytest.raises(SystemExit) as exc:
        main(["estimate", spec_file(DEPHASING), "--theta-true", "0.3", "--shots", "2000",
              "--reps", "5", "--adaptive", "--povm", povm])
    assert exc.value.code == 2
    assert "argument --povm: not allowed with argument --adaptive" in capsys.readouterr().err


@pytest.mark.parametrize("povm", [(), ("--povm", "computational")])
def test_estimate_refuses_a_pilot_size_for_a_fixed_run(spec_file, capsys, povm):
    code, out, err = run_cli(
        capsys, "estimate", spec_file(DEPHASING), "--theta-true", "0.3", "--shots", "2000",
        "--reps", "5", "--n-pilot", "300", *povm,
    )
    assert (code, out, err) == (2, "", "error: --n-pilot applies only to an --adaptive run\n")


ESTIMATE_SPECS = {
    "damping": DAMPING,
    "dephasing-plus": DEPHASING,
    "random-4-2": "family = random-kraus\ndim = 4\nenv = 2\nseed = 7\n",
    # a pure output in d = 4: its SLD has a doubly degenerate zero, so the POVM has 3 elements
    "random-4-1": "family = random-kraus\ndim = 4\nenv = 1\nseed = 5\n",
}
ESTIMATE_MODES = {"optimal": (), "computational": ("--povm", "computational"),
                  "adaptive": ("--adaptive",)}
ESTIMATE_JSON_DIGESTS = {
    ("damping", "optimal"): "d2781931880ba89165bf734d284f9ed416f6efb528c6dba13c6920cb9cc2a23d",
    ("damping", "computational"): "3babd91abb0a80baae184718765c3f532a9daedf12458fceb19a05d3df8bc46d",
    ("damping", "adaptive"): "d2f6419c2b8cd44fcc79852bcaaadcd999ca78ebb86de5b2df7f4bf1c109b76f",
    ("dephasing-plus", "optimal"):
        "79cef4ef462ac6910ba7c6bf38784487ca09be8cfe84bfd5c718f3fce6cb05bb",
    ("dephasing-plus", "computational"):
        "4fa2ac7e05963da21bcd651c30b11e4d9357c051c21f4fa2dd8582ea5ba8e360",
    ("dephasing-plus", "adaptive"):
        "edb75074b3e13edc42256473c77629a9a8c7ae62fde4999758211f08c1827375",
    ("random-4-2", "optimal"): "177de12dc8c3037cc32782302dca09f9871b3af75f9233ad4abb1de711395d41",
    ("random-4-2", "computational"):
        "85d6b5d0772f6a37c62c8539dfd9c7dacad1de6a441f19b8b4abfb32cee41435",
    ("random-4-2", "adaptive"): "54aac3d2ff058dfd6ec761798a1d465f6824249c205933cac3b3dea646182523",
    ("random-4-1", "optimal"): "3700b170d0fa6b9135b9027b73334cd13f7336eaba476c00e75560d994263c04",
    ("random-4-1", "computational"):
        "8ee068c474f8d2f74e33d7bd3c6f9091d06590df495f9abe855497f74d22a870",
    ("random-4-1", "adaptive"): "88ceaf71c9b547b6e8680a6338a782a1dc12222bd16c66f9adbd91f332775c4c",
}


@pytest.mark.parametrize("name, mode", sorted(ESTIMATE_JSON_DIGESTS))
def test_estimate_json_is_pinned(name, mode, spec_file, capsys):
    # Both runs' JSON, at a small and a wide seed: a change to how the counts
    # are drawn, the POVMs built or the Fisher floors summed must keep each
    # value's bits.
    for seed in (3, 6180588700756636604):
        assert main(["estimate", spec_file(ESTIMATE_SPECS[name]), "--theta-true", "0.3",
                     "--shots", "4000", "--reps", "12", "--seed", str(seed),
                     *ESTIMATE_MODES[mode]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ESTIMATE_JSON_DIGESTS[(name, mode)]


def test_optimize_input_command(spec_file, capsys):
    code, out, _ = run_cli(
        capsys, "optimize-input", spec_file(DEPHASING), "--theta", "0.3",
        "--objective", "sld", "--restarts", "4", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1 / (0.3 * 0.7), rel=1e-6)
    assert len(doc["optimal_input"]) == 2


def test_optimize_input_sld_adds_the_dual_keys(spec_file, capsys):
    path = spec_file(DAMPING)
    docs = {}
    for objective in ("sld", "channel-bound"):
        code, out, _ = run_cli(
            capsys, "optimize-input", path, "--theta", "0.3", "--objective", objective,
            "--restarts", "1",
        )
        assert code == 0
        docs[objective] = json.loads(out)
    sld, bound = docs["sld"], docs["channel-bound"]
    assert set(sld) - set(bound) == {"ancilla_bound", "certified"}
    assert set(bound) <= set(sld)
    assert sld["certified"] is True
    assert sld["ancilla_bound"] == pytest.approx(1 / (0.3 * 0.7), abs=1e-12)


@pytest.mark.parametrize("objective", ["sld", "channel-bound"])
def test_optimize_input_keeps_the_domain_margin(spec_file, capsys, objective):
    # The margin is kept where the stencil runs: depolarizing's weights cross at
    # its edge t = 1 for every input, so no candidate there can be evaluated.
    depolarizing = spec_file("family = depolarizing\n", name="depolarizing.qchan")
    code, out, err = run_cli(
        capsys, "optimize-input", depolarizing, "--theta=1.0", "--objective", objective,
        "--restarts", "1",
    )
    assert code == 3 and out == ""
    assert "every optimization start failed to evaluate the objective" in err
    # Without a crossing, 1e-5 from the edge, both objectives reach the closed-form
    # optimum 1 / (t (1 - t)).  One seeded channel-bound start lands where every
    # candidate sits at the support boundary; two find the optimum.
    path = spec_file(DAMPING)
    command = ("optimize-input", path, "--theta=1e-5", "--objective", objective)
    if objective == "channel-bound":
        code, out, err = run_cli(capsys, *command, "--restarts", "1")
        assert code == 3 and out == ""
        assert "every optimization start failed to evaluate the objective" in err
    code, out, _ = run_cli(capsys, *command, "--restarts", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1 / (1e-5 * (1 - 1e-5)), rel=1e-12)
    assert doc.get("certified") is (True if objective == "sld" else None)


@pytest.mark.parametrize(
    "spec, theta, objective",
    [
        ("family = dephasing\ninput_state = [1+0i, 0+0i]\n", 1e-7, "sld"),
        (DAMPING, 1e-5, "channel-bound"),
    ],
    ids=["dephasing-sld", "amplitude-damping-channel-bound"],
)
def test_optimize_input_near_an_edge_stops_short(spec_file, capsys, monkeypatch, spec, theta,
                                                  objective):
    # Near the edge many candidates sit at the support boundary and are refused.
    # Each of the 8 default starts must stop within 50 curves, not wander on
    # that plateau.  The dual's top eigenvector on dephasing is |1>, where H = 0,
    # so the sld search runs there too.
    from qfibounds import estimation

    calls = []
    curve = estimation.spectral_curve
    monkeypatch.setattr(estimation, "spectral_curve", lambda *a: calls.append(a) or curve(*a))
    code, out, _ = run_cli(
        capsys, "optimize-input", spec_file(spec), f"--theta={theta!r}", "--objective", objective,
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1 / (theta * (1 - theta)), rel=1e-12)
    assert len(calls) <= 8 * 50


@pytest.mark.parametrize(
    "command, args",
    [
        ("sweep", ("--theta-grid", "0.2,0.4")),
        ("estimate", ("--theta-true", "0.3")),
        ("optimize-input", ("--theta", "0.3", "0.4")),
    ],
    ids=["sweep", "estimate", "optimize-input"],
)
def test_one_parameter_commands_refuse_two_parameters(spec_file, capsys, command, args):
    text = "family = random-kraus\ndim = 3\nenv = 2\nseed = 11\nparam_count = 2\n"
    code, out, err = run_cli(capsys, command, spec_file(text), *args)
    assert code == 2 and out == ""
    assert "one-parameter channels" in err


def test_verify_gap_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "gap")
    assert code == 0
    assert out.startswith("PASS")
    assert "all checks passed" in out


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "routes", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"][0]["suite"] == "routes"


def test_verify_failure_exit_code(capsys, monkeypatch):
    from qfibounds import cli as cli_module
    from qfibounds.verify import CheckResult

    monkeypatch.setattr(
        cli_module,
        "run_suites",
        lambda names, seed: [CheckResult("gap", "forced failure", False, "injected")],
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "gap")
    assert code == 4
    assert out.startswith("FAIL")


def test_report_refuses_rank_change(spec_file, capsys):
    code, out, err = run_cli(capsys, "report", spec_file(RANK_CHANGE), "--theta", "0")
    assert code == 3
    assert out == ""
    assert "rank change" in err


def test_rank_change_figure_is_the_unsupported_modes_root_sum_square(spec_file, capsys):
    # At theta = 0 only E_0 = I is supported, with output psi, so the figure is
    # the norm of the parts of dE_1 psi, ..., dE_7 psi orthogonal to psi, whatever
    # basis round-off picks for the seven unsupported modes.
    channel = builtin("random-kraus", dim=8, env=8, seed=11)
    psi = channel.input_state.amplitudes
    dvs = (channel.kraus_partials(np.zeros(1))[0] @ psi)[1:]
    figure = np.sqrt(np.sum(np.abs(dvs - (dvs @ psi.conj())[:, np.newaxis] * psi) ** 2))
    spec = spec_file("family = random-kraus\ndim = 8\nenv = 8\nseed = 11\n")
    code, _, err = run_cli(capsys, "report", spec, "--theta", "0")
    assert code == 3 and f"(|dY_k psi| = {figure:.3e});" in err


def test_report_validates_a_named_basis_before_decomposing(spec_file, capsys):
    argv = ("report", spec_file(RANK_CHANGE), "--theta", "0", "--povm", "x-basis")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "only defined for qubit channels" in err


def test_sweep_rank_change_row_is_warnings_only(spec_file, capsys):
    code, out, _ = run_cli(capsys, "sweep", spec_file(RANK_CHANGE), "--theta-grid=-0.2,0,0.2")
    assert code == 0
    points = json.loads(out)["points"]
    assert set(points[1]) == {"theta", "warnings"}
    assert "rank change" in points[1]["warnings"][0]
    assert all("channel_bound" in points[i] for i in (0, 2))


def test_spectral_rank_change_is_refused_as_a_rank_change(spec_file, capsys):
    moving = ("an unsupported eigenvalue moves (|p_k'| = 1.000e+00); "
              "theta is at a rank change, perturb it")
    spec = spec_file(SPECTRAL_RANK_CHANGE)
    code, out, err = run_cli(capsys, "report", spec, "--theta", "0")
    assert (code, out, err) == (3, "", f"numeric failure: {moving}\n")
    code, out, _ = run_cli(capsys, "sweep", spec, "--theta-grid=0,0.5")
    assert code == 0
    points = json.loads(out)["points"]
    assert points[0] == {"theta": 0.0, "warnings": [moving]}
    assert "channel_bound" in points[1]


@pytest.mark.parametrize(
    "command, argv, env, named",
    [
        ("verify", ["--seed", "-1"], None, "--seed -1"),
        ("verify", ["--seed", str(2**64)], None, f"--seed {2**64}"),
        ("verify", [], "-1", "QFI_SEED '-1'"),
        ("estimate", [], "abc", "QFI_SEED 'abc'"),
        ("estimate", ["--seed", str(2**64)], None, f"--seed {2**64}"),
        ("estimate", ["--seed", "-1"], "5", "--seed -1"),
        ("optimize-input", [], "1.5", "QFI_SEED '1.5'"),
        ("optimize-input", ["--seed", str(2**65)], None, f"--seed {2**65}"),
    ],
)
def test_seed_outside_range_or_not_an_integer_exits_2(
    spec_file, capsys, monkeypatch, command, argv, env, named
):
    if env is None:
        monkeypatch.delenv("QFI_SEED", raising=False)
    else:
        monkeypatch.setenv("QFI_SEED", env)
    point = {
        "verify": ["--suite", "gap"],
        "estimate": [spec_file(DEPHASING), "--theta-true", "0.2", "--shots", "100", "--reps", "2"],
        "optimize-input": [spec_file(DEPHASING), "--theta", "0.3", "--restarts", "1"],
    }[command]
    code, out, err = run_cli(capsys, command, *point, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named} is not an integer in [0, 2**64)\n"


def test_largest_seed_is_accepted(capsys, monkeypatch):
    from qfibounds import cli as cli_module

    seen = []
    monkeypatch.setattr(cli_module, "run_suites", lambda names, seed: seen.append(seed) or [])
    code, _, _ = run_cli(capsys, "verify", "--suite", "gap", "--seed", str(2**64 - 1))
    assert code == 0 and seen == [2**64 - 1]


@pytest.mark.parametrize(
    "argv, env, expected",
    [(["--seed", "0"], None, 0), (["--seed", "0"], "5", 0), ([], "5", 5), ([], None, None)],
)
def test_verify_seed_precedence(capsys, monkeypatch, argv, env, expected):
    from qfibounds import cli as cli_module
    from qfibounds.verify import DEFAULT_SEED

    seen = []
    monkeypatch.setattr(cli_module, "run_suites", lambda names, seed: seen.append(seed) or [])
    if env is None:
        monkeypatch.delenv("QFI_SEED", raising=False)
    else:
        monkeypatch.setenv("QFI_SEED", env)
    code, _, _ = run_cli(capsys, "verify", "--suite", "gap", *argv)
    assert code == 0
    assert seen == [DEFAULT_SEED if expected is None else expected]


def test_tool_version_is_the_package_version(monkeypatch):
    import importlib

    import qfibounds
    from qfibounds import reporting

    monkeypatch.setattr(qfibounds, "__version__", "9.9.9")
    try:
        assert importlib.reload(reporting).TOOL["version"] == "9.9.9"
    finally:
        monkeypatch.undo()
        importlib.reload(reporting)
    assert reporting.TOOL["version"] == qfibounds.__version__


COMMAND_ARGS = {
    "report": ("--theta", "0.3"),
    "sweep": ("--theta-grid", "0.2,0.4"),
    "estimate": ("--theta-true", "0.3"),
    "optimize-input": ("--theta", "0.3"),
}
RETIRED_FLAGS = {
    "fd-step": ("--fd-step", "1e-3"),
    "fd-scheme": ("--fd-scheme", "central-2"),
    "richardson": ("--richardson",),
    "format": ("--format", "csv"),
    "tol": ("--tol", "0.5"),
}
# the finite-difference flags on every spec command; --format and --tol where the command
# ignored them
RETIRED_CASES = [
    (flag, command) for flag in ("fd-step", "fd-scheme", "richardson") for command in COMMAND_ARGS
] + [("format", "report"), ("format", "estimate"), ("tol", "estimate"),
     ("format", "optimize-input"), ("tol", "optimize-input")]


@pytest.mark.parametrize("flag, command", RETIRED_CASES, ids=[f"{f}-{c}" for f, c in RETIRED_CASES])
def test_retired_finite_difference_flags_are_usage_errors(spec_file, capsys, flag, command):
    with pytest.raises(SystemExit) as exc:
        main([command, spec_file(DEPHASING), *COMMAND_ARGS[command], *RETIRED_FLAGS[flag]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "sweep"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    # refused before the spec is read: this spec file does not exist
    spec = str(tmp_path / "missing.qchan")
    code, out, err = run_cli(capsys, command, spec, *COMMAND_ARGS[command], f"--tol={tol}")
    assert code == 2 and out == ""
    assert err == f"error: --tol {float(tol)!r} is not a finite positive number\n"


@pytest.mark.parametrize("restarts", ["0", "-2"])
def test_optimize_input_needs_a_restart(spec_file, capsys, restarts):
    code, out, err = run_cli(
        capsys, "optimize-input", spec_file(DAMPING), "--theta", "0.3", "--objective",
        "channel-bound", "--restarts", restarts,
    )
    assert code == 2 and out == ""
    assert err == f"error: restarts must be at least 1, got {restarts}\n"


def test_config_block_holds_only_the_verdict_tolerance(spec_file, capsys):
    path = spec_file(DEPHASING)
    for argv in (("report", path, "--theta", "0.3"), ("sweep", path, "--theta-grid", "0.2,0.4")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["config"] == {"tol": 1e-06}


def test_report_keeps_the_domain_margin(spec_file, capsys):
    # Only a crossing keeps the central-4 stencil's reach, 2e-4, from an edge:
    # depolarizing's weights 1 - t/2 and t/2 cross at its edge t = 1.
    code, out, err = run_cli(capsys, "report", spec_file("family = depolarizing\n"), "--theta=1")
    assert code == 3 and out == ""
    assert "cross at theta [1.0], within 0.0002 of a domain edge" in err
    # Dephasing has no crossing near its edges.
    path = spec_file(DEPHASING)
    for theta in (1e-4, 2e-4):
        code, out, _ = run_cli(capsys, "report", path, "--theta", repr(theta))
        assert code == 0
        h = json.loads(out)["result"]["sld_information"]
        assert h == pytest.approx(1 / (theta * (1 - theta)), rel=1e-12)
    # At the edge a weight vanishes and the family's partial 0.5 / sqrt(t) diverges.
    code, out, err = run_cli(capsys, "report", path, "--theta", "0")
    assert code == 2 and out == ""
    assert "Kraus derivative at theta [0.0] produced non-finite entries" in err


def test_sweep_to_a_crossing_at_the_edge_reports_every_row(spec_file, capsys):
    # Depolarizing's weights cross at t = 1: rows too close to it carry a warning.
    grid = "--theta-grid=0.9998,0.99995,0.999999,1.0"
    code, out, _ = run_cli(capsys, "sweep", spec_file("family = depolarizing\n"), grid)
    assert code == 0
    rows = json.loads(out)["points"]
    assert [row["theta"] for row in rows] == [0.9998, 0.99995, 0.999999, 1.0]
    for row in rows[:2]:
        assert row["sld_information"] == pytest.approx(1 / (row["theta"] * (2 - row["theta"])))
    assert "too close for an accurate derivative" in rows[2]["warnings"][0]
    assert "cross at theta [1.0], within 0.0002 of a domain edge" in rows[3]["warnings"][0]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_sweep_value_is_a_numeric_failure(spec_file, capsys, monkeypatch, fmt):
    from qfibounds import reporting

    plain = reporting.report_dict

    def broken(report, *povm_id):
        return [{**row, "gap": float("nan")} for row in plain(report, *povm_id)]

    monkeypatch.setattr(reporting, "report_dict", broken)
    path = spec_file(DEPHASING)
    code, out, err = run_cli(capsys, "sweep", path, "--theta-grid=0.2,0.4", f"--format={fmt}")
    assert code == 3 and out == ""
    assert "non-finite value at $.points[0].gap: nan" in err


def test_non_finite_record_field_is_named_by_its_path(spec_file, capsys, monkeypatch):
    import dataclasses

    from qfibounds import bounds

    check = bounds.povm_sld_condition_check

    def broken(*args):
        report = check(*args)
        element = dataclasses.replace(report.elements[0], xi=float("nan"))
        return dataclasses.replace(report, elements=(element, *report.elements[1:]))

    monkeypatch.setattr(bounds, "povm_sld_condition_check", broken)
    code, out, err = run_cli(
        capsys, "report", spec_file(DEPHASING), "--theta", "0.2", "--povm", "x-basis"
    )
    assert (code, out) == (3, "")
    path = "$.result.sld_condition.elements[0].xi"
    assert err == f"numeric failure: non-finite value at {path}: nan\n"


def test_records_complex_numbers_and_numpy_values_encode_through_one_default():
    from qfibounds import reporting
    from qfibounds.bounds import ConditionElement, ConditionReport

    element = ConditionElement(np.int64(0), 0.5, 0.0, np.bool_(False))
    report = ConditionReport((element,), True, 1e-6)
    doc = {"report": report, "z": np.complex128(1 - 2j), "m": np.eye(2), "zs": np.array([1j])}
    assert json.loads(reporting.to_json(doc)) == {
        "report": {
            "elements": [{"index": 0, "xi": 0.5, "residual": 0.0, "vacuous": False}],
            "satisfied": True,
            "tol": 1e-6,
            "note": "",
        },
        "z": {"re": 1.0, "im": -2.0},
        "m": [[1.0, 0.0], [0.0, 1.0]],
        "zs": [{"re": 0.0, "im": 1.0}],
    }


def _count_calls(monkeypatch, *names) -> dict:
    """Count calls of bounds functions, from every module that imports them."""
    from qfibounds import bounds
    from qfibounds import cli as cli_module

    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _original=getattr(bounds, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (bounds, cli_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def _count_curve_work(monkeypatch) -> dict:
    """Count SpectralCurve constructions and builds of its cached overlaps and SLD score."""
    from functools import cached_property

    from qfibounds.bounds import SpectralCurve

    calls = {"curves": 0, "overlaps": 0, "sld_score": 0}
    post_init = SpectralCurve.__post_init__

    def counted_post_init(self):
        calls["curves"] += 1
        post_init(self)

    monkeypatch.setattr(SpectralCurve, "__post_init__", counted_post_init)
    for name in ("overlaps", "sld_score"):
        def counted(self, _build=SpectralCurve.__dict__[name].func, _name=name):
            calls[_name] += 1
            return _build(self)

        prop = cached_property(counted)
        prop.__set_name__(SpectralCurve, name)
        monkeypatch.setattr(SpectralCurve, name, prop)
    return calls


def test_report_optimal_povm_builds_the_sld_score_once(spec_file, capsys, monkeypatch):
    # One curve, carrying its canonical decomposition, feeds the SLD score,
    # the bound report and the SM condition; a spectral-form family has no
    # decomposition.  The curve builds its overlaps and its score once.
    rotation = "family = rotation\naxis = x\n"
    kraus = {"spectral_curve": 1, "canonical_kraus": 1}
    for text, expected in (
        (DEPHASING, kraus),
        (rotation, kraus),
        ("family = random-kraus\ndim = 3\nenv = 2\nseed = 11\n", kraus),
        (EXAMPLE1, {"spectral_curve": 1, "canonical_kraus": 0}),
    ):
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, "spectral_curve", "canonical_kraus")
            work = _count_curve_work(patch)
            argv = ("report", spec_file(text), "--theta", "0.3", "--povm", "optimal")
            code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == expected
        assert work == {"curves": 1, "overlaps": 1, "sld_score": 1}


def test_parser_survives_an_argparse_error(spec_file, capsys):
    from qfibounds.cli import _build_parser

    with pytest.raises(SystemExit):
        main(["report", spec_file(DEPHASING), "--theta", "0.2", "--povm", "bogus"])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "report", spec_file(DEPHASING), "--theta", "0.2")
    assert code == 0
    assert json.loads(out)["result"]["sld_information"] == pytest.approx(6.25, rel=1e-6)
    assert _build_parser() is _build_parser()


STACK_CASES = {
    "dephasing": (DEPHASING, "0.05:0.95:7"),
    "dephasing-crossing": (DEPHASING, "0.3,0.5,0.7"),  # 0.5 is resolved inside the stack
    "example1": (EXAMPLE1, "0.05:0.95:7"),
    "rotation": ("family = rotation\naxis = x\n", "-3:3:7"),
    "random-kraus-3x2": ("family = random-kraus\ndim = 3\nenv = 2\nseed = 11\n", "-0.9:0.9:7"),
    "random-kraus-8x8": ("family = random-kraus\ndim = 8\nenv = 8\nseed = 11\n", "-0.9:0.9:4"),
    "dephasing-band": (DEPHASING, "0.4999999:0.5000001:41"),  # all but two rows refused
}


def _point_row(channel, theta):
    from qfibounds.bounds import bound_report, spectral_curve

    return bound_report(channel, spectral_curve(channel, theta))


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_sweep_rows_equal_single_point_curves(spec_file, capsys, case):
    # The stacked sweep kernel and the N = 1 curve give the same numbers.
    from qfibounds.errors import NumericError
    from qfibounds.specfile import ChannelSpec

    text, grid = STACK_CASES[case]
    channel = ChannelSpec.from_text(text).build()
    code, out, _ = run_cli(capsys, "sweep", spec_file(text), f"--theta-grid={grid}")
    assert code == 0
    rows = json.loads(out)["points"]
    assert len(rows) > 1
    for row in rows:
        if "sld_information" not in row:  # theta = 0 of random-kraus is a rank change
            with pytest.raises(NumericError) as refusal:
                _point_row(channel, row["theta"])
            assert row["warnings"] == [str(refusal.value)]
            continue
        point = _point_row(channel, row["theta"])
        scale = max(1.0, abs(point.channel_bound))
        for key, value, rel in (
            ("sld_information", point.sld_information, True),
            ("channel_bound", point.channel_bound, True),
            ("representation_bound", point.representation_bound, True),
            ("gap", point.gap, False),
        ):
            if value is None:
                assert row[key] is None
            else:
                bound = 1e-13 * (abs(value) if rel else scale)
                assert abs(row[key] - value) <= bound, (case, row["theta"], key)
        residual = row["attainability"]["residual"]
        assert abs(residual - point.attainability_residual) <= 1e-13 * scale
        assert row["attainability"]["attainable"] is point.attainable


def test_sweep_keeps_point_failures_to_their_rows(spec_file, capsys):
    # 0.5 is a crossing the one-parameter resolution handles; 0.500001 is
    # too close to it for an accurate derivative and is refused alone.
    code, out, _ = run_cli(
        capsys, "sweep", spec_file(DEPHASING), "--theta-grid", "0.3,0.5,0.500001,0.7"
    )
    assert code == 0
    rows = json.loads(out)["points"]
    assert [r["theta"] for r in rows] == [0.3, 0.5, 0.500001, 0.7]
    assert rows[1]["sld_information"] == 4.0 and rows[1]["channel_bound"] == 4.0
    assert rows[2] == {
        "theta": 0.500001,
        "warnings": [
            "Gram eigenvalues 0.499999 and 0.500001 are 2.000e-06 apart, too close for an "
            "accurate derivative; perturb theta away from the crossing"
        ],
    }
    for row, expected in ((rows[0], 4.761904761904764), (rows[3], 4.761904761904763)):
        assert row["sld_information"] == expected and row["channel_bound"] == expected


RANDOM_3_2 = "family = random-kraus\ndim = 3\nenv = 2\nseed = 11\n"


@pytest.mark.parametrize(
    "text, grid, refused",
    [
        (RANDOM_3_2, "-0.9:0.9:401", [200]),  # theta = 0 is a rank change
        (RANDOM_3_2, "-0.9:0.9:41", [20]),
        (DEPHASING, "0.4999999:0.5000001:41", [i for i in range(41) if i not in (20, 21)]),
        (DAMPING, "0.99999999:0.9999999999:401", list(range(401))),  # every row refused
        ("family = dephasing\n", "0:1e-6:41", [0]),  # the partial diverges at theta = 0
        (DAMPING, "0:1e-9:21", list(range(21))),  # so does amplitude damping's
    ],
    ids=["random-401", "random-41", "dephasing-band", "damping-all-refused", "dephasing-edge",
         "damping-edge"],
)
def test_sweep_makes_one_curve_call_however_many_rows_refuse(
    spec_file, capsys, monkeypatch, text, grid, refused
):
    # A refused row is a warning row of the one stacked curve call; no stack is called again.
    calls = _count_calls(monkeypatch, "spectral_curve")
    code, out, err = run_cli(capsys, "sweep", spec_file(text), f"--theta-grid={grid}")
    assert code == 0 and err == ""
    rows = json.loads(out)["points"]
    assert [i for i, row in enumerate(rows) if "sld_information" not in row] == refused
    assert all(list(rows[i]) == ["theta", "warnings"] for i in refused)
    assert calls["spectral_curve"] == 1


def test_a_non_finite_sweep_row_is_the_error_of_its_point_call(spec_file, capsys):
    # The row's warning is the message with which its point call exits 2.
    spec = spec_file("family = dephasing\n")
    code, out, err = run_cli(capsys, "sweep", spec, "--theta-grid=0:1e-6:41")
    message = "Kraus derivative at theta [0.0] produced non-finite entries"
    rows = json.loads(out)["points"]
    assert (code, err, rows[0]) == (0, "", {"theta": 0.0, "warnings": [message]})
    assert all("sld_information" in row for row in rows[1:]) and len(rows) == 41
    assert run_cli(capsys, "report", spec, "--theta", "0") == (2, "", f"error: {message}\n")


def test_report_optimal_povm_takes_the_element_roots_once(spec_file, capsys, monkeypatch):
    # Both condition checks read the POVM's cached roots: one psd_sqrt of the element stack.
    from qfibounds import bounds, linalg, quantum

    stacks = []
    for module in (bounds, quantum):
        monkeypatch.setattr(module, "psd_sqrt", lambda a: stacks.append(np.ndim(a)) or (
            linalg.psd_sqrt(a)))
    code, out, _ = run_cli(capsys, "report", spec_file(RANDOM_3_2), "--theta", "0.3", "--povm",
                           "optimal")
    assert code == 0 and {"sld_condition", "sm_condition"} <= set(json.loads(out)["result"])
    assert stacks.count(3) == 1


def test_report_builds_the_input_density_once(spec_file, capsys, monkeypatch):
    # C_E, C_kraus, the unitary condition and the SM condition share one input DensityMatrix.
    from qfibounds.quantum import DensityMatrix

    built = []
    post_init = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    for text, theta, povm in (("family = rotation\naxis = z\n", ["0.4"], "optimal"),
                              (RANDOM_3_2, ["0.3"], "optimal"),
                              ("family = rotation-2p\n", ["0.2", "0.3"], "computational")):
        built.clear()
        code, _, _ = run_cli(capsys, "report", spec_file(text), "--theta", *theta, "--povm", povm)
        assert code == 0 and len(built) == 1, text


@pytest.mark.parametrize(
    "grid, token",
    [("abc", "abc"), ("0.1,abc", "abc"), ("a:b:3", "a"), ("0:1:2.5", "2.5"), (",", ","), ("", "")],
)
def test_malformed_grid_is_a_validation_error(spec_file, capsys, grid, token):
    code, out, err = run_cli(capsys, "sweep", spec_file(DEPHASING), f"--theta-grid={grid}")
    assert code == 2 and out == ""
    assert f"grid token {token!r} is not a valid" in err


@pytest.mark.parametrize(
    "text",
    [DEPHASING, DAMPING, "family = random-kraus\ndim = 3\nenv = 2\n"],
    ids=["dephasing", "amplitude-damping", "random-kraus"],
)
def test_sweep_decomposes_each_point_once(spec_file, capsys, monkeypatch, text):
    # One stacked canonical_kraus serves the whole grid; it asks the family
    # for the grid's Kraus stacks and their partials in one call each.
    import dataclasses

    from qfibounds import cli as cli_module
    from qfibounds.channels import ParametricChannel

    calls = _count_calls(monkeypatch, "canonical_kraus")
    calls.update(kraus_matrices=0, kraus_grad_fn=0)
    original = ParametricChannel.kraus_matrices
    load = cli_module._load_spec

    def kraus_matrices(self, theta, *refusals):
        calls["kraus_matrices"] += 1
        return original(self, theta, *refusals)

    def loaded(path):
        # loading validates the Kraus stack over the domain; count the points only
        spec, channel = load(path)
        calls.update(dict.fromkeys(calls, 0))
        grad = channel.kraus_grad_fn

        def counted_grad(theta, index):
            calls["kraus_grad_fn"] += 1
            return grad(theta, index)

        return spec, dataclasses.replace(channel, kraus_grad_fn=counted_grad)

    monkeypatch.setattr(ParametricChannel, "kraus_matrices", kraus_matrices)
    monkeypatch.setattr(cli_module, "_load_spec", loaded)
    code, _, _ = run_cli(capsys, "sweep", spec_file(text), "--theta-grid", "0.2:0.6:3")
    assert code == 0
    # The raw Kraus stack and its derivative feed the curve, C_kraus and C_E.
    assert calls == {"canonical_kraus": 1, "kraus_matrices": 1, "kraus_grad_fn": 1}


def test_multiparameter_report_builds_one_core(spec_file, capsys, monkeypatch):
    # One curve's score and overlap stacks serve the SLD matrix and the
    # attainability check.
    text = "family = random-kraus\ndim = 3\nenv = 2\nseed = 11\nparam_count = 2\n"
    for povm in ((), ("--povm", "computational")):
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, "canonical_kraus")
            work = _count_curve_work(patch)
            argv = ("report", spec_file(text), "--theta", "0.3", "0.4", *povm)
            code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == {"canonical_kraus": 1}
        assert work == {"curves": 1, "overlaps": 1, "sld_score": 1}


def test_report_evaluates_the_family_once_per_point(spec_file, capsys, monkeypatch):
    # The curve's state and partials feed F, the SLD condition and the
    # bounds: one Kraus stack, and one partial per parameter.
    import dataclasses

    from qfibounds import cli as cli_module

    load = cli_module._load_spec
    calls = {}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def loaded(path):
        spec, channel = load(path)  # the spec's own domain validation is not counted
        calls.update(kraus_fn=0, kraus_grad_fn=0)
        return spec, dataclasses.replace(
            channel,
            kraus_fn=counting("kraus_fn", channel.kraus_fn),
            kraus_grad_fn=counting("kraus_grad_fn", channel.kraus_grad_fn),
        )

    monkeypatch.setattr(cli_module, "_load_spec", loaded)
    text = "family = random-kraus\ndim = 3\nenv = 2\nseed = 11\n"
    for extra, theta, povm, expected in (
        ("", ("0.3",), "optimal", {"kraus_fn": 1, "kraus_grad_fn": 1}),
        ("param_count = 2\n", ("0.3", "0.4"), "computational",
         {"kraus_fn": 1, "kraus_grad_fn": 2}),
    ):
        argv = ("report", spec_file(text + extra), "--theta", *theta, "--povm", povm)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == expected


def test_multiparameter_report_builds_one_spectral_curve(spec_file, capsys, monkeypatch):
    # H and C both come from the point's curve: no directional slice curves.
    from qfibounds.bounds import SpectralCurve

    built = []
    post_init = SpectralCurve.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SpectralCurve, "__post_init__", counting)
    for text, theta in ((EXAMPLE2, ("0.6", "0.3")), (DEPHASING2P, ("0.4", "0.3"))):
        built.clear()
        argv = ("report", spec_file(text), "--theta", *theta, "--povm", "computational")
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(built) == 1, text


def test_estimate_decomposes_theta_true_once(spec_file, capsys, monkeypatch):
    # The curve behind the SLD-optimal POVM also gives the variance floors;
    # the adaptive run adds one stacked decomposition of every replication's pivot.
    path = spec_file(DAMPING)
    common = ("estimate", path, "--theta-true", "0.3", "--shots", "100", "--reps", "3")
    for extra, expected in (((), 1), (("--adaptive", "--n-pilot", "50"), 2)):
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, "canonical_kraus")
            code, _, _ = run_cli(capsys, *common, *extra)
        assert code == 0
        assert calls == {"canonical_kraus": expected}


def test_verify_builds_one_battery_per_run(monkeypatch):
    from qfibounds import verify

    built = []
    original = verify._battery_curves

    def small_battery(seed, count, param_count):
        built.append(seed)
        return original(seed, 6, param_count)

    monkeypatch.setattr(verify, "_battery_curves", small_battery)
    names = ["ordering", "gap", "routes"]
    shared = verify.run_suites(names, seed=11)
    assert built == [11]
    separate = [r for name in names for r in verify.run_suites([name], seed=11)]
    assert shared == separate


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only optimize-input needs scipy.optimize, and importing it is slow
    package_root = str(Path(qfibounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = "import sys, qfibounds.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_unloaded():
    # the exponential families use numpy's eigh, so only optimize-input loads scipy
    package_root = str(Path(qfibounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = "import sys, qfibounds.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy_at_module_level():
    import ast

    def module_level(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from module_level(child)

    package = Path(qfibounds.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in module_level(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def test_consumers_import_no_private_bounds_or_multiparam_names():
    import ast

    package = Path(qfibounds.__file__).resolve().parent
    for consumer in ("cli", "verify", "estimation", "reporting"):
        tree = ast.parse((package / f"{consumer}.py").read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        for node in imports:
            source = (node.module or "").removeprefix("qfibounds.")
            if source == "bounds":
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (consumer, source, private)


def test_only_the_crossing_gram_derivative_uses_finite_differences():
    # Every Kraus partial is analytic; the one stencil left is the second Gram
    # derivative at a one-parameter crossing, inside canonical_kraus.
    import ast

    package = Path(qfibounds.__file__).resolve().parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name == "differentiate_curve":
                        callers.add(inner)
                visit(child, inner)

        visit(tree, path.stem)
    assert callers == {"bounds.canonical_kraus"}
