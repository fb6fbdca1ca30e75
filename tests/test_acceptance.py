"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 1 concerns the rank-two rotating three-level family ``example1``:
output eigenvalues p = (t^2, 1 - t^2) on w_1 = (t, sqrt(1 - t^2), 0) and
w_2 = (0, 0, 1).  The SLD information of a rank-deficient state is
H = sum_{p_j + p_k > 0} 2 |<w_j|rho'|w_k>|^2 / (p_j + p_k) (Safranek,
PRA 97, 042322, 2018), and here it has two parts:

- the eigenvalue term sum_supp p_k'^2 / p_k = 4 t^2 / t^2 + 4 t^2 / (1 - t^2)
  = 4 / (1 - t^2);
- the rotation of the support: w_1' = (1, -t / sqrt(1 - t^2), 0) is
  orthogonal to both supported vectors and has |w_1'|^2 = 1 / (1 - t^2), so
  it adds 4 p_1 |w_1'|^2 = 4 t^2 / (1 - t^2).

Hence H = 4 (1 + t^2) / (1 - t^2).  The same rotation enters the channel
bound with the same weight and no supported overlap <w_j'|w_k> survives, so
C = H and the gap vanishes.  The value 4 / (1 - t^2) is the eigenvalue term
alone; criterion 1 asserts it as such, from the SpectralCurve fields.  The
closed form is cross-checked by the from-the-state oracle in
test_criterion_1_reference_values and in test_bounds.py, and by the CLI
report pinned in test_cli.py (8.5 at t = 0.6).
"""

import dataclasses
import json
import time

import numpy as np

from qfibounds.bounds import (
    attainability_check,
    bound_gap,
    bound_report,
    canonical_kraus,
    fisher_information,
    povm_sm_condition_check,
    sld_information,
    sm_bound_kraus,
    sm_bound_spectral,
    spectral_curve,
    unitary_condition,
)
from qfibounds.channels import builtin, random_hermitian
from qfibounds.estimation import adaptive_experiment, cr_experiment
from qfibounds.linalg import max_abs
from qfibounds.quantum import PureState, pauli_basis_povm
from qfibounds.verify import directional_suite, run_suites

from oracles import remix_channel, remixing_penalty

PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))


def _announce(num: int, label: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {label}")


def _run(num: int, label: str, body) -> None:
    try:
        body()
    except AssertionError:
        _announce(num, label, False)
        raise
    _announce(num, label, True)


def test_criterion_1_example1_equality_as_stated():
    label = (
        "rank-two rotating family: H = C = 4(1+t^2)/(1-t^2) = 4/(1-t^2) + 4t^2/(1-t^2)"
        " at 1e-7, gap/residual < 1e-9, < 1 s"
    )

    def body():
        start = time.time()
        ch = builtin("example1")
        for t in (0.2, 0.4, 0.6, 0.8):
            curve = spectral_curve(ch, t)
            h = sld_information(curve)
            c = sm_bound_spectral(curve)
            stated = 4.0 * (1.0 + t * t) / (1.0 - t * t)
            assert abs(h - stated) / stated < 1e-7, f"H({t}) = {h}, stated {stated}"
            assert abs(c - stated) / stated < 1e-7, f"C({t}) = {c}, stated {stated}"
            supp = curve.support
            eigen_term = float(np.sum(curve.value_derivs[0][supp] ** 2 / curve.values[supp]))
            eigen_stated = 4.0 / (1.0 - t * t)
            assert abs(eigen_term - eigen_stated) / eigen_stated < 1e-7, (
                f"eigenvalue term({t}) = {eigen_term}, stated {eigen_stated}"
            )
            rotation_stated = 4.0 * t * t / (1.0 - t * t)
            assert abs((h - eigen_term) - rotation_stated) / rotation_stated < 1e-7, (
                f"rotation term({t}) = {h - eigen_term}, stated {rotation_stated}"
            )
            assert bound_gap(curve) < 1e-9
            assert attainability_check(curve)[1] < 1e-9
        assert time.time() - start < 1.0

    _run(1, label, body)


def test_criterion_1_reference_values():
    """Criterion 1 against an independent from-the-state oracle:
    H = C = 4 (1 + t^2) / (1 - t^2)."""
    label = "rank-two rotating family: H = C with gap and residual < 1e-9 (oracle value)"

    def body():
        start = time.time()
        ch = builtin("example1")
        for t in (0.2, 0.4, 0.6, 0.8):
            curve = spectral_curve(ch, t)
            h = sld_information(curve)
            c = sm_bound_spectral(curve)

            def rho_fn(x):
                return ch.output_matrix(np.array([x]))

            step = 1e-5
            drho = (
                8 * (rho_fn(t + step) - rho_fn(t - step))
                - (rho_fn(t + 2 * step) - rho_fn(t - 2 * step))
            ) / (12 * step)
            vals, vecs = np.linalg.eigh(rho_fn(t))
            oracle = 0.0
            for j in range(3):
                for k in range(3):
                    s = vals[j] + vals[k]
                    if s > 1e-12:
                        oracle += 2 * abs(vecs[:, j].conj() @ drho @ vecs[:, k]) ** 2 / s
            assert abs(h - oracle) / oracle < 1e-7
            assert abs(h - 4 * (1 + t * t) / (1 - t * t)) / h < 1e-9
            assert abs(c - h) / h < 1e-9
            assert bound_gap(curve) < 1e-9
            assert attainability_check(curve)[1] < 1e-9
        assert time.time() - start < 1.0

    _run(1, label, body)


def test_criterion_2_quasi_classical_chain():
    label = "dephasing on |+>: F = H = C = 1/(t(1-t)) at 1e-6 and the canonical condition holds"

    def body():
        start = time.time()
        ch = builtin("dephasing")
        povm = pauli_basis_povm("x")
        for theta in np.arange(0.1, 0.95, 0.1):
            want = 1.0 / (theta * (1.0 - theta))
            curve = spectral_curve(ch, theta)
            for value in (
                fisher_information(curve, povm),
                sld_information(curve),
                sm_bound_spectral(curve),
            ):
                assert abs(value - want) / want < 1e-6, f"theta={theta}: {value} vs {want}"
            ck = canonical_kraus(ch, theta)
            report = povm_sm_condition_check(
                povm, ck.operators, ck.derivatives[0], ch.input_state.density()
            )
            assert report.satisfied, f"condition check failed at theta={theta}"
        assert time.time() - start < 1.0

    _run(2, label, body)


def test_criterion_3_unitary_condition():
    label = "z rotation: condition i/2 on |0> with H=0, C=1, gap=1; zero condition on |+> and x/|0>"

    def body():
        theta = 0.4
        ch = builtin("rotation", axis="z")
        curve = spectral_curve(ch, theta)
        (value,), flat = unitary_condition(ch, curve)
        assert abs(value - 0.5j) < 1e-8 and not flat
        assert abs(sld_information(curve)) < 1e-8
        assert abs(sm_bound_spectral(curve) - 1.0) < 1e-8
        assert abs(bound_gap(curve) - 1.0) < 1e-8

        for variant in (
            builtin("rotation", axis="z", input_state=PLUS),
            builtin("rotation", axis="x"),
        ):
            curve = spectral_curve(variant, theta)
            (value,), flat = unitary_condition(variant, curve)
            assert abs(value) < 1e-8 and flat
            h, c = sld_information(curve), sm_bound_spectral(curve)
            assert abs(h - c) < 1e-8

    _run(3, label, body)


def test_criterion_4_gap_identity_battery():
    label = "gap identity within 1e-8 over 200 random channels in < 60 s"

    def body():
        start = time.time()
        results = run_suites(["gap"])
        assert all(r.passed for r in results), results
        assert time.time() - start < 60.0

    _run(4, label, body)


def test_criterion_5_ordering_battery():
    label = "F <= H <= C, H <= C_E under remixing, SLD basis attains H (200 channels)"

    def body():
        results = run_suites(["ordering"])
        assert all(r.passed for r in results), results

    _run(5, label, body)


def test_criterion_6_route_cross_check():
    label = "canonical-derivative and spectral routes agree within 1e-6 relative"

    def body():
        results = run_suites(["routes"])
        assert all(r.passed for r in results), results

    _run(6, label, body)


def test_criterion_7_remixing_penalty():
    label = "dephasing remixed by exp(-i t K): C_E - C matches 4 sum p |du|^2 at 1e-6"

    def body():
        from scipy.linalg import expm

        ch = builtin("dephasing")
        rho0 = ch.input_state.density()
        rng = np.random.default_rng(17)
        for theta in (0.2, 0.45, 0.7):
            gen = random_hermitian(2, rng)
            mix = lambda t, g=gen: expm(-1j * t[0] * g)
            dmix = lambda t, i, g=gen: -1j * g @ expm(-1j * t[0] * g)
            rem = remix_channel(ch, mix, dmix)
            ck = canonical_kraus(ch, theta)
            c_ups = sm_bound_kraus(ck.operators, ck.derivatives[0], rho0)
            c_e = sm_bound_kraus(
                rem.kraus_matrices(theta), rem.kraus_partials(theta)[0], rho0
            )
            du = dmix(np.array([theta]), 0) @ ck.mixing.conj().T
            penalty = remixing_penalty(du, ck.weights)
            assert abs((c_e - c_ups) - penalty) / penalty < 1e-6

    _run(7, label, body)


def test_criterion_8_multi_parameter_suite():
    label = "two-parameter: equality family exact, Loewner chain and slice checks, < 120 s"

    def body():
        start = time.time()
        ch = builtin("example2")
        theta = np.array([0.6, 0.3])
        report = bound_report(ch, spectral_curve(ch, theta), None, 1e-9)
        assert max_abs(report.sld_information - report.channel_bound) < 1e-8
        assert report.attainable and report.attainability_residual < 1e-9
        results = directional_suite(count=50, directions=20)
        assert all(r.passed for r in results), results
        assert time.time() - start < 120.0

    _run(8, label, body)


def test_criterion_9_estimation():
    label = "dephasing at 0.2: variance in [0.85, 1.15] of 1/(N H); adaptive within 15%; reproducible"

    def body():
        start = time.time()
        ch = builtin("dephasing")
        povm = pauli_basis_povm("x")  # the SLD-optimal basis at every theta
        n, reps, seed = 10_000, 200, 7
        run = cr_experiment(ch, 0.2, povm, n, reps, seed, povm_id="x-basis")
        ratio = run.variance_ratios["sld"]
        assert 0.85 <= ratio <= 1.15, f"variance ratio {ratio}"
        again = cr_experiment(ch, 0.2, povm, n, reps, seed, povm_id="x-basis")
        assert run == again
        assert json.dumps(dataclasses.asdict(run), sort_keys=True) == json.dumps(
            dataclasses.asdict(again), sort_keys=True
        )

        n_pilot = 500
        arun = adaptive_experiment(ch, 0.2, n, n_pilot, reps, seed)
        h = sld_information(spectral_curve(ch, 0.2))
        floor = 1.0 / ((n - n_pilot) * h)
        assert abs(arun.empirical_variance / floor - 1.0) < 0.15
        assert time.time() - start < 120.0

    _run(9, label, body)


def test_criterion_10_finite_difference_fidelity():
    label = "analytic vs numeric Kraus derivatives below 1e-6 for every built-in"

    def body():
        from qfibounds.channels import BUILTIN_FAMILIES
        from qfibounds.linalg import differentiate_curve

        for family in sorted(BUILTIN_FAMILIES):
            ch = builtin(family)
            if not ch.is_kraus_form:
                continue
            mid = np.array([(lo + hi) / 2 for lo, hi in ch.domain])
            for index in range(ch.param_count):
                analytic = ch.kraus_partials(mid)[index]

                def curve(t, index=index):
                    point = mid.copy()
                    point[index] = t
                    return ch.kraus_matrices(point)

                numeric = differentiate_curve(curve, mid[index])
                err = max_abs(numeric - analytic) / max(1.0, max_abs(analytic))
                assert err < 1e-6, f"{family}[{index}]: {err:.3e}"

    _run(10, label, body)
