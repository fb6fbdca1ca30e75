"""Tests of the benchmark itself: the oracle, the tracer and smoke-sized runs.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm_frechet

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

I2 = np.eye(2, dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET1 = np.array([0.0, 1.0], dtype=complex)
THETAS = [0.2, 0.4, 0.6, 0.8]


def dephasing(t):
    kraus = np.array([np.sqrt(1 - t) * I2, np.sqrt(t) * Z])
    dkraus = np.array([-0.5 / np.sqrt(1 - t) * I2, 0.5 / np.sqrt(t) * Z])
    return kraus, dkraus


def damping(t):
    kraus = np.array([[[1, 0], [0, np.sqrt(1 - t)]], [[0, np.sqrt(t)], [0, 0]]], dtype=complex)
    dkraus = np.array([[[0, 0], [0, -0.5 / np.sqrt(1 - t)]], [[0, 0.5 / np.sqrt(t)], [0, 0]]],
                      dtype=complex)
    return kraus, dkraus


def rotation_z(t):
    u = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    return u[None], (-0.5j * Z @ u)[None]


def example1(t):
    s = np.sqrt(1 - t * t)
    values = np.array([t * t, 1 - t * t])
    vectors = np.array([[t, 0], [s, 0], [0, 1]], dtype=complex)
    dvectors = np.array([[1, 0], [-t / s, 0], [0, 0]], dtype=complex)
    return values, vectors, np.array([2 * t, -2 * t]), dvectors


def stinespring(dim, env, seed, t):
    """E_k(t) = (I x <k|) exp(-i t G) (I x |0>) for a seeded random G, and its derivative."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim * env,) * 2) + 1j * rng.normal(size=(dim * env,) * 2)
    g = (a + a.conj().T) / 2
    v, dv = expm_frechet(-1j * t * g, -1j * g)

    def extract(m):
        return np.transpose(m.reshape(dim, env, dim, env)[:, :, :, 0], (1, 0, 2))

    return extract(v), extract(dv)


@pytest.mark.parametrize("t", THETAS)
def test_oracle_dephasing_on_plus(t):
    kraus, dkraus = dephasing(t)
    rho, drho = oracle.kraus_state(kraus, dkraus, PLUS)
    x_basis = np.array([np.outer(v, v.conj()) for v in (PLUS, np.array([1, -1]) / np.sqrt(2))])
    exact = oracle.dephasing_plus(t)
    assert oracle.sld_information(rho, drho) == pytest.approx(exact, rel=1e-10)
    assert oracle.channel_bound_kraus(kraus, dkraus, PLUS) == pytest.approx(exact, rel=1e-10)
    assert oracle.fisher_information(rho, drho, x_basis) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("t", THETAS)
def test_oracle_example1(t):
    args = example1(t)
    rho, drho = oracle.spectral_state(*args)
    exact = oracle.example1(t)
    assert exact != pytest.approx(4 / (1 - t * t))
    assert oracle.sld_information(rho, drho) == pytest.approx(exact, rel=1e-10)
    assert oracle.channel_bound_spectral(*args) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("t", [-2.5, 0.3, 1.7])
def test_oracle_rotation_on_plus(t):
    kraus, dkraus = rotation_z(t)
    rho, drho = oracle.kraus_state(kraus, dkraus, PLUS)
    assert oracle.sld_information(rho, drho) == pytest.approx(1.0, rel=1e-10)
    assert oracle.channel_bound_kraus(kraus, dkraus, PLUS) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("t", [0.1, 0.3, 0.7])
def test_oracle_damping_on_one(t):
    kraus, dkraus = damping(t)
    rho, drho = oracle.kraus_state(kraus, dkraus, KET1)
    assert oracle.sld_information(rho, drho) == pytest.approx(oracle.amplitude_damping_one(t), rel=1e-10)


@pytest.mark.parametrize("dim,env", [(2, 2), (3, 2), (3, 5), (4, 4)])
def test_oracle_bound_is_representation_free_and_ordered(dim, env):
    rng = np.random.default_rng(dim * 10 + env)
    psi = oracle.random_pure_states(dim, 1, rng)[0]
    kraus, dkraus = stinespring(dim, env, dim * 100 + env, 0.37)
    rho, drho = oracle.kraus_state(kraus, dkraus, psi)
    h = oracle.sld_information(rho, drho)
    c = oracle.channel_bound_kraus(kraus, dkraus, psi)
    assert h <= c * (1 + 1e-12)
    assert h <= oracle.representation_bound(dkraus, psi) * (1 + 1e-12)
    # A fixed unitary remixing of the Kraus operators changes neither H nor C.
    q, _ = np.linalg.qr(rng.normal(size=(env, env)) + 1j * rng.normal(size=(env, env)))
    mixed, dmixed = np.tensordot(q, kraus, axes=(1, 0)), np.tensordot(q, dkraus, axes=(1, 0))
    rho2, drho2 = oracle.kraus_state(mixed, dmixed, psi)
    assert oracle.sld_information(rho2, drho2) == pytest.approx(h, rel=1e-9)
    assert oracle.channel_bound_kraus(mixed, dmixed, psi) == pytest.approx(c, rel=1e-9)


def test_oracle_bound_matches_a_finite_difference_of_the_canonical_vectors():
    """C from first-order perturbation equals C from differencing y_k = V u_k numerically.

    The Gram eigenvectors u_k at theta +- h are re-phased to a real positive
    overlap with those at theta, the gauge the perturbation formula assumes.
    """
    dim, env, t, h = 3, 2, 0.41, 1e-5
    psi = np.array([0.6, 0.0, 0.8], dtype=complex)

    def canonical(x, reference=None):
        v = (stinespring(dim, env, 7, x)[0] @ psi).T
        _, u = np.linalg.eigh(v.conj().T @ v)
        if reference is not None:
            u = u * np.exp(-1j * np.angle(np.sum(reference.conj() * u, axis=0)))
        return v @ u, u

    _, u0 = canonical(t)
    dy = (canonical(t + h, u0)[0] - canonical(t - h, u0)[0]) / (2 * h)
    kraus, dkraus = stinespring(dim, env, 7, t)
    expected = 4.0 * float(np.sum(np.abs(dy) ** 2))
    assert oracle.channel_bound_kraus(kraus, dkraus, psi) == pytest.approx(expected, rel=1e-7)


def _wrapped_names():
    import qfibounds
    from qfibounds.channels import ParametricChannel
    from qfibounds.specfile import ChannelSpec

    found = []
    for name in list(sys.modules):
        if name == "qfibounds" or name.startswith("qfibounds."):
            found += [f"{name}.{a}" for a, v in vars(sys.modules[name]).items()
                      if hasattr(v, "__bench_original__")]
    for cls in (ParametricChannel, ChannelSpec):
        for attr, raw in vars(cls).items():
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if hasattr(fn, "__bench_original__"):
                found.append(f"{cls.__name__}.{attr}")
    assert qfibounds.bound_report.__name__ == "bound_report"
    return found


def test_tracer_counts_spans_and_removes_its_wrappers(tmp_path, capsys):
    cli = run.load_program()
    spec = tmp_path / "channel.qchan"
    spec.write_text("family = dephasing\n")
    tracer = Tracer()
    tracer.watch(*layers.OBJECTIVE)
    tracer.install()
    assert _wrapped_names()
    try:
        assert cli.main(["sweep", str(spec), "--theta-grid=0.2,0.3,0.4"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert _wrapped_names() == []
    figures = tracer.snapshot()
    assert figures["calls"]["cli.main"] == 1
    assert figures["calls"]["bounds.bound_report"] == 3
    assert figures["calls"]["bounds.canonical_kraus"] == 6
    for name, self_ns in figures["self_ns"].items():
        assert 0 <= self_ns <= figures["total_ns"][name]
    spans = tracer.spans
    assert len(spans) == sum(figures["calls"].values())
    by_index = {s[0]: s for s in spans}
    for index, _, start, end, parent in spans:
        if parent >= 0:
            assert by_index[parent][2] <= start <= end <= by_index[parent][3]
    # Calls after uninstall are not recorded.
    assert cli.main(["sweep", str(spec), "--theta-grid=0.2"]) == 0
    assert tracer.snapshot()["calls"]["cli.main"] == 1


@pytest.mark.parametrize("workload", ["bounds", "estimate", "optimize-input", "verify"])
def test_smoke_run(workload, capsys):
    result = run.run_workload(workload, seed=3, seconds=0.0, trace=False, smoke=True)
    assert result["correct"], capsys.readouterr().err
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(m["value"] > 0 for k, m in result["metrics"].items() if k != "setup_s")


def test_smoke_traced_run(capsys):
    result = run.run_workload("bounds", seed=3, seconds=0.0, trace=True, smoke=True)
    assert result["correct"], capsys.readouterr().err
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == layers.PER_LAYER
    assert result["metrics"]["bounds.canonical_kraus_per_point"]["value"] == 2.0
    assert _wrapped_names() == []


def _benchmark() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_the_command_prints():
    doc = _benchmark()
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == ["bounds", "estimate", "optimize-input", "verify"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
