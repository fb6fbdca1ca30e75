"""The property suites decompose each shape group of a battery in one call.

A battery's points of one (dim, Kraus count) share one stacked spectral
curve, which carries its canonical decomposition, and every check reads
those stacks, so no check decomposes a point again.  These tests pin that
sharing through the public builders: the call counts, the battery's draw
contract against a point-by-point builder of it, its (channel, theta)
contract and its bits against one-point curves, and the naming of skipped
directions and of failing checks' worst points.
"""

import dataclasses
import gc
import hashlib
from collections import Counter

import numpy as np
import pytest

from qfibounds import bounds, channels, verify
from qfibounds.bounds import (
    bound_gap,
    fisher_information,
    sld_information,
    sm_bound_kraus,
    sm_bound_spectral,
    spectral_curve,
)
from qfibounds.cli import main
from qfibounds.channels import (
    ParametricChannel,
    directional_channel,
    exponential_family,
    random_hermitian,
)
from qfibounds.errors import ConsistencyError, DegeneracyError
from qfibounds.linalg import hermitian_eigendecompose, unitary_exponential
from qfibounds.quantum import POVM, PureState

from oracles import random_hermitians, remix_channel


def _count(monkeypatch, name: str) -> Counter:
    """Count calls of a bounds function from every module that imports it."""
    calls = Counter()
    original = getattr(bounds, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module in (bounds, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_batteries_are_lists_of_channel_theta_pairs():
    one = verify.one_param_battery(seed=9, count=4)
    two = verify.two_param_battery(seed=9, count=3)
    assert isinstance(one, list) and isinstance(two, list)
    assert one and two
    assert all(type(point) is tuple and len(point) == 2 for point in one + two)
    for channel, theta in one:
        assert isinstance(channel, ParametricChannel) and type(theta) is float
    for channel, theta in two:
        assert isinstance(channel, ParametricChannel) and theta.shape == (2,)


def test_run_suites_decomposes_each_point_once(monkeypatch):
    calls = _count(monkeypatch, "canonical_kraus")
    original = verify._battery_curves
    built = []

    def small_battery(seed, count, param_count):
        points = original(seed, 6, param_count)
        built.append(len(points.thetas))
        return points

    monkeypatch.setattr(verify, "_battery_curves", small_battery)
    results = verify.run_suites(["ordering", "gap", "routes"], seed=11)
    assert all(r.passed for r in results)
    assert built == [6]
    # The 6 points fall in 5 shape groups, and the group curves are the ones
    # the suites read: each group is decomposed once, and no refused
    # candidate is met at this seed.
    assert calls["canonical_kraus"] == 5


def test_ordering_decomposes_each_remixing_generator_once_per_point(monkeypatch):
    # The theta-dependent remixings exp(-i theta g) of a shape group and
    # their derivatives come from one stacked decomposition of theta g, and
    # the 6 points fall in 5 groups; the battery families decompose through
    # their own module and are not counted here.
    calls = Counter()
    original = verify.unitary_exponential

    def counted(h):
        calls["unitary_exponential"] += 1
        return original(h)

    monkeypatch.setattr(verify, "unitary_exponential", counted)
    results = verify._ordering(verify._battery_curves(11, 6, 1), 11)
    assert all(r.passed for r in results)
    assert calls["unitary_exponential"] == 5


def test_directional_suite_builds_one_core_per_channel(monkeypatch):
    calls = _count(monkeypatch, "canonical_kraus")
    battery = verify.two_param_battery(seed=9, count=5)
    screen = calls["canonical_kraus"]
    calls.clear()
    results = verify.directional_suite(seed=9, count=5, directions=4)
    assert all(r.passed for r in results)
    # The 5 channels fall in 3 shape groups, each screened in one call.  The
    # suite reads the screening curves and checks all directions of every
    # channel of a group on one stacked fan curve; example2, the equality
    # family, is spectral-form and builds no core.
    assert len(battery) == 5 and screen == 3
    assert calls["canonical_kraus"] == 2 * screen


def _named(battery, i: int) -> str:
    """How a failing check names point i of a seam's battery."""
    channel, theta = battery[i]
    env = channel.kraus_matrices(theta).shape[-3]
    return f"point {i} (dim {channel.dim}, env {env}) theta {np.atleast_1d(theta).tolist()}"


def _slice_check(results):
    [check] = [r for r in results if r.name.startswith("slice consistency")]
    return check


def _refuse_rows(curve, hit, error):
    """A stacked curve with its rows where hit holds refused with error, as one call refuses."""
    assert not any(curve.refusals)
    return bounds._rows(curve, ~np.asarray(hit), tuple(error if h else None for h in hit))


def _refusing_fans(monkeypatch, battery, points, error):
    """Refuse the fan of each battery point in points, found by its input, with error."""
    inputs = [battery[p][0].input_state.amplitudes for p in points]
    original = verify.spectral_curve

    def fan_curve(channel, theta, psi=None):  # fans are decomposed at t = 0, with their inputs
        if psi is None or np.any(theta):
            return original(channel, theta, psi)
        hit = [any(_equal_bits(row, target) for target in inputs) for row in psi]
        return _refuse_rows(original(channel, theta, psi), hit, error)

    monkeypatch.setattr(verify, "spectral_curve", fan_curve)


def test_directional_suite_reports_skipped_directions(monkeypatch):
    clean = _slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert clean.passed and "skipped" not in clean.detail
    battery = verify.two_param_battery(seed=9, count=5)
    tried = len(battery) * 4
    first = _named(battery, 0)

    # A refused fan is a row of its group's one fan call; a channel's fan carries all
    # of its directions, so a skip removes them all.
    with monkeypatch.context() as patch:
        _refusing_fans(patch, battery, range(0, len(battery), 2), DegeneracyError("forced"))
        half = _slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert half.passed
    skipped = ((len(battery) + 1) // 2) * 4
    assert half.detail.endswith(f", {skipped} of {tried} directions skipped, first at {first}")

    _refusing_fans(monkeypatch, battery, range(len(battery)), DegeneracyError("forced"))
    none = _slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert not none.passed
    assert none.detail.endswith(f", {tried} of {tried} directions skipped, first at {first}")


def test_a_fan_refused_by_a_consistency_error_fails_the_slice_check(monkeypatch):
    # Only a DegeneracyError skips a fan: a ConsistencyError fails the check at its point.
    battery = verify.two_param_battery(seed=9, count=5)
    _refusing_fans(monkeypatch, battery, [2], ConsistencyError("forced"))
    failed = _slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert not failed.passed and "skipped" not in failed.detail
    assert failed.detail == f"worst relative mismatch inf; worst at {_named(battery, 2)}"


def test_failing_directional_check_names_its_worst_point(monkeypatch):
    battery = verify.two_param_battery(seed=9, count=5)
    channel, theta = battery[2]
    original = verify.directional_reduction_check

    def third_is_off(family, curve, v):
        # the third point's row of its group's check, whichever group holds it
        check = original(family, curve, v)
        off = (curve.theta == theta).all(axis=-1).astype(float)
        return dataclasses.replace(check, kraus_deriv_mismatch=check.kraus_deriv_mismatch + off)

    monkeypatch.setattr(verify, "directional_reduction_check", third_is_off)
    results = verify.directional_suite(seed=9, count=5, directions=4)
    failed = _slice_check(results)
    assert not failed.passed
    assert failed.detail.endswith(f"; worst at {_named(battery, 2)}")
    # Passing checks keep their details.
    assert all(" at " not in r.detail for r in results if r.passed)


def test_matrix_diagonal_check_catches_a_perturbed_kernel(monkeypatch):
    # H is checked against a pseudo-inverse SLD solve from the raw Kraus
    # stack, which does not read the curve's kernel: scaling the kernel's H
    # must fail the check (comparing with slice curves would not notice).
    original = bounds.SpectralCurve.information.func

    def perturbed(self):
        h, c = original(self)
        return h * (1 + 1e-7), c

    monkeypatch.setattr(bounds.SpectralCurve, "information", property(perturbed))
    results = verify.directional_suite(seed=9, count=5, directions=4)
    [diagonals] = [r for r in results if r.name.startswith("matrix diagonals")]
    assert not diagonals.passed
    assert "; worst at point " in diagonals.detail


def test_failing_one_parameter_checks_name_their_worst_point(monkeypatch):
    # Lowering C below H at one point fails H <= C and the route agreement
    # there (C_kraus does not read the kernel); both name that point, which
    # the seam rebuilds at the same index.
    battery = verify.one_param_battery(seed=9)
    channel, theta = battery[4]
    assert channel.name == "battery-4"
    original = bounds.SpectralCurve.information.func

    def perturbed(self):
        h, c = original(self)
        at = (self.theta[..., 0] == theta)[..., np.newaxis, np.newaxis]
        return h, np.where(at, h - 1e-3, c)

    monkeypatch.setattr(bounds.SpectralCurve, "information", property(perturbed))
    results = verify.run_suites(["ordering", "routes"], seed=9)
    failed = {r.name: r for r in results if not r.passed}
    assert set(failed) == {"H <= C on the same battery", "bound route agreement over 200 channels"}
    named = f"; worst at {_named(battery, 4)}"
    assert all(r.detail.endswith(named) for r in failed.values())
    assert all(" at " not in r.detail for r in results if r.passed)


# param_count -> (Philox key salt, largest dimension, theta half-width): the draw contract
DRAWS = {1: (0, 4, 0.6), 2: (0xA5A5A5A5, 3, 0.5)}


def _reference_battery(seed: int, count: int, m: int) -> tuple[list, int]:
    """(env, theta, generators, input) of each kept point, point by point, and the refusals.

    One Philox keyed by (seed, salt) draws the dimensions, the environment
    sizes, 8 candidate thetas per point and (count, 2, max_dim) input normals,
    then each shape group's generators in sorted (dim, env) order, matrix by
    matrix.  Each point then tries its candidates on its own channel in turn
    and keeps the first one not refused; a point refused 8 times is dropped.
    """
    salt, max_dim, width = DRAWS[m]
    rng = np.random.Generator(np.random.Philox(key=np.uint64([seed, salt])))
    dims = rng.integers(2, max_dim + 1, size=count)
    envs = rng.integers(1, dims + 1)
    candidates = rng.uniform(-width, width, size=(count, 8, m))
    normals = rng.normal(size=(count, 2, max_dim))
    gens = {}
    for dim, env in sorted(set(zip(dims.tolist(), envs.tolist()))):
        rows = [p for p in range(count) if (dims[p], envs[p]) == (dim, env)]
        drawn = random_hermitians(dim * env, rng, len(rows) * m)
        gens.update(zip(rows, drawn.reshape(len(rows), m, *drawn.shape[1:])))
    points, refusals = [], 0
    for p in range(count):
        dim, env = int(dims[p]), int(envs[p])
        amps = normals[p, 0, :dim] + 1j * normals[p, 1, :dim]
        psi = amps / np.linalg.norm(amps, axis=-1)
        channel = exponential_family(gens[p], env, "reference", ((-1.0, 1.0),) * m, PureState(psi))
        for theta in candidates[p]:
            try:
                spectral_curve(channel, theta)
            except DegeneracyError:
                refusals += 1
                continue
            points.append((env, theta, gens[p], psi))
            break
    return points, refusals


# refusals and sha256 of repr([(env, theta hex), ...]) of the reference battery
REFERENCE_DIGESTS = {
    (1, 1): (1, "48a053246cfb76f27fa8a597ebe09353b28e560cce76b4a5bb3c23fd6f490acc"),
    (34, 1): (1, "d4aa8a677a837d4d84bc7f5a6f6fa4373f8b08c627698d10407908cc37e30152"),
    (36, 1): (1, "5e8b191c6ddfa7ae47d2a60bac5671017f791388e1ef56e6219c3704b899696f"),
    (20260809, 1): (0, "9fdecd01bf67b823b638f92b9271dce6db137719c3109882a4c6a80fd1068cfd"),
    (9, 2): (0, "a9c5eeff4802ad584fe4884adce14826b720d4547cd5adb9a3dcf45a33ae3386"),
}


@pytest.mark.parametrize("seed, m", sorted(REFERENCE_DIGESTS))
def test_battery_is_the_point_by_point_reference(seed, m):
    # At seeds 1, 34 and 36 one candidate is refused ("Gram eigenvalue ... sits at
    # the support boundary") and its point takes its next one; no other draw moves.
    count = 200 if m == 1 else 50
    expected, refusals = _reference_battery(seed, count, m)
    text = repr([(env, [t.hex() for t in theta]) for env, theta, *_ in expected])
    assert (refusals, hashlib.sha256(text.encode()).hexdigest()) == REFERENCE_DIGESTS[seed, m]
    battery = verify._battery_curves(seed, count, m)
    assert len(battery.thetas) == len(expected)
    for p, (env, theta, gens, psi) in enumerate(expected):
        assert battery.envs[p] == env
        assert _equal_bits(battery.thetas[p], theta)
        assert _equal_bits(battery.generators[p], gens)
        assert _equal_bits(battery.inputs[p], psi)


# sha256 of `qfi verify --suite all --format json` stdout, one BLAS thread
VERIFY_JSON_DIGESTS = {
    1: "cab7a74b29292abec36262b6fa6bcd95cb6396cb150973f2734e956430bc7dee",
    3: "e4ae22c58533b7b287ad2445111c76e7b54298a75363c7c4213e70c00944e82d",
    7: "8e8095c91637fedb1905fffebb4bce65b263fb8f924a3599076b7a829cdd592d",
    11: "22e2e65bcb88331394bd73d6f938cebb10bb4f5d22f98113ac96be3b513f3028",
    20260809: "65f5622bb0cf8099baf35db566c42bfdfb5c2318b954dd173a43576f21deb878",
    6180588700756636604: "bbc5a9c53ed4ce16c20ac295249e3017a65153142fe8be170976336aff2c5067",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_JSON_DIGESTS))
def test_verify_json_is_pinned(seed, capsys):
    # Every detail number of every suite, at the default seed, at a seed that
    # refuses a candidate theta (1), at a wide one and at the seeds CI runs: a
    # change to how the batteries or the suites' inputs are drawn must keep
    # each value's bits.
    assert main(["verify", "--suite", "all", "--seed", str(seed), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_DIGESTS[seed]


def test_a_refused_candidate_moves_only_its_own_point(monkeypatch):
    # Refusing point 5's first candidate gives it its second one, and refusing
    # all 8 drops it; every other point keeps its env, theta, generators and
    # input bit for bit, and the seams name point i battery-i with its own data.
    for m, count in ((1, 12), (2, 6)):
        clean = verify._battery_curves(404, count, m)
        points = clean.points()
        for p, (channel, theta) in enumerate(points):
            assert channel.name == f"battery-{p}" and channel.param_count == m
            assert _equal_bits(theta, clean.thetas[p])
            assert _equal_bits(channel.input_state.amplitudes, clean.inputs[p])
        salt, max_dim, width = DRAWS[m]
        rng = np.random.Generator(np.random.Philox(key=np.uint64([404, salt])))
        rng.integers(1, rng.integers(2, max_dim + 1, size=count) + 1)  # dims, then envs
        candidates = rng.uniform(-width, width, size=(count, 8, m))[5]
        original = verify.spectral_curve
        for refused, moved in ((1, candidates[1]), (8, None)):
            def refusing(channel, theta, inputs=None):
                hit = (theta[:, np.newaxis] == candidates[:refused]).all(axis=-1).any(axis=-1)
                return _refuse_rows(original(channel, theta, inputs), hit, DegeneracyError("forced"))

            monkeypatch.setattr(verify, "spectral_curve", refusing)
            battery = verify._battery_curves(404, count, m)
            monkeypatch.setattr(verify, "spectral_curve", original)
            kept = [p for p in range(count) if p != 5 or moved is not None]
            assert len(battery.thetas) == len(kept)
            for q, p in enumerate(kept):
                assert battery.envs[q] == clean.envs[p]
                assert _equal_bits(battery.thetas[q], moved if p == 5 else clean.thetas[p])
                assert _equal_bits(battery.generators[q], clean.generators[p])
                assert _equal_bits(battery.inputs[q], clean.inputs[p])


def test_battery_normals_are_the_point_by_point_draws():
    # One draw cut into each group's pieces holds every point's pieces as a
    # point-by-point draw in draw order gives them, and leaves the stream
    # where that draw does.
    battery = verify._battery_curves(404, 30, 1)
    pieces = lambda d, n: [(d, 2, d, d), (2, n, n), (3,)]
    rng, ref = (np.random.Generator(np.random.Philox(key=np.uint64(5))) for _ in range(2))
    stacks = battery.normals(rng, pieces)
    assert len({curve.kraus.operators.shape[1] for _, curve, _ in battery.groups}) > 1
    group_of = {p: (g, i) for g, (rows, *_) in enumerate(battery.groups) for i, p in enumerate(rows)}
    for p, psi in enumerate(battery.inputs):
        g, i = group_of[p]
        n = battery.groups[g][1].kraus.operators.shape[1]
        for shape, stack in zip(pieces(len(psi), n), stacks[g]):
            assert _equal_bits(stack[i], ref.normal(size=shape))
    assert rng.normal() == ref.normal()


def test_a_verify_run_leaves_no_reference_cycles():
    # A battery holds every group's curves; a cycle through it would keep
    # them until the collector runs, which raises the peak memory of runs.
    gc.collect()
    gc.disable()
    try:
        verify.run_suites(["all"], seed=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_group_kernel_call_evaluates_its_family_once(monkeypatch):
    # A shape group's channels are one family with generators per row: each
    # kernel call, a battery's redrawn round and the fans included, decomposes
    # the generators of all its rows in one batched call, and no battery channel
    # is evaluated on its own.  Seed 1 refuses a candidate and redraws it.
    kernel, generators = [], []  # the rows of each call
    canonical_kraus, unitary_exponential = bounds.canonical_kraus, channels.unitary_exponential

    def counted_kernel(channel, theta, inputs=None):
        kernel.append(len(theta))
        return canonical_kraus(channel, theta, inputs)

    def counted_generators(h):
        generators.append(len(h))
        return unitary_exponential(h)

    monkeypatch.setattr(bounds, "canonical_kraus", counted_kernel)
    monkeypatch.setattr(channels, "unitary_exponential", counted_generators)
    for build in (lambda: verify.one_param_battery(1),
                  lambda: verify.directional_suite(seed=9, count=5, directions=4)):
        kernel.clear(), generators.clear()
        build()
        assert len(kernel) > 2 and generators == kernel


def test_a_battery_round_is_one_curve_call_per_group(monkeypatch):
    # Seed 1 refuses one candidate: each of the 9 shape groups takes one curve call,
    # and only the group holding the refused row a second, for its redrawn row alone.
    rows, original = [], verify.spectral_curve
    monkeypatch.setattr(verify, "spectral_curve",
                        lambda channel, theta, inputs: rows.append(len(inputs)) or original(
                            channel, theta, inputs))
    for seed, expected in ((1, [26, 45, 22, 28, 24, 1, 12, 23, 11, 9]),
                           (verify.DEFAULT_SEED, [39, 42, 17, 25, 15, 12, 9, 21, 20])):
        rows.clear()
        verify.one_param_battery(seed)
        assert rows == expected, seed
    monkeypatch.setattr(verify, "spectral_curve", original)
    calls = _count(monkeypatch, "spectral_curve")
    # every suite: the batteries' rounds, one fan call per group, and the equality family
    for seed, expected in ((1, 21), (verify.DEFAULT_SEED, 20)):
        calls.clear()
        verify.run_suites(["all"], seed)
        assert calls["spectral_curve"] == expected, seed


def test_a_battery_row_refused_by_a_consistency_error_fails_the_build(monkeypatch):
    # A refused candidate is redrawn only for a DegeneracyError; any other refusal is a fault.
    original = verify.spectral_curve
    monkeypatch.setattr(verify, "spectral_curve", lambda *args: _refuse_rows(
        original(*args), np.arange(len(args[1])) == 0, ConsistencyError("forced")))
    with pytest.raises(ConsistencyError, match="forced"):
        verify.one_param_battery(404, 12)


def _equal_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def test_stacked_groups_match_point_curves_bit_for_bit():
    rng = np.random.default_rng(404)
    for count, m in ((40, 1), (12, 2)):
        battery = verify._battery_curves(404, count, m)
        points = battery.points()  # as the seams build each point's channel
        assert len(battery.groups) >= 5
        for rows, curve, rho0 in battery.groups:
            dim = curve.vectors.shape[-1]
            parts = verify._povm_parts(rng.normal(size=(len(rows), dim, 2, dim, dim)))
            f = curve.fisher(verify._normalized(parts))
            h, c = curve.information
            if m == 1:
                n = curve.kraus.operators.shape[1]
                gen = np.array([random_hermitian(n, rng) for _ in rows])
                remixed = verify._remixed_bound(curve, rho0, gen)
                gap = bound_gap(curve)
            else:
                by_pinv = verify._sld_matrix_by_pinv(curve)
                # the group's fans, from one evaluation of its family, as the suite builds them
                v = rng.normal(size=(len(rows), 3, 2))
                fans = directional_channel(battery.family(rows), curve.theta, v)
                fan = spectral_curve(fans, np.zeros((len(rows), 3)), curve.kraus.psi)
            for i, (channel, theta) in enumerate(points[p] for p in rows):
                point, povm = spectral_curve(channel, theta), POVM(verify._normalized(parts[i]))
                assert _equal_bits(f[i], point.fisher(povm))
                if m == 2:
                    assert _equal_bits(h[i], point.information[0])
                    assert _equal_bits(c[i], point.information[1])
                    one = spectral_curve(channel, theta[np.newaxis])
                    assert _equal_bits(by_pinv[i], verify._sld_matrix_by_pinv(one)[0])
                    alone = spectral_curve(directional_channel(channel, theta, v[i]), np.zeros(3))
                    for name in ("values", "vectors", "value_derivs", "vector_derivs"):
                        assert _equal_bits(getattr(fan, name)[i], getattr(alone, name)), name
                    for name, value in vars(alone.kraus).items():
                        assert _equal_bits(getattr(fan.kraus, name)[i], value), name
                    for a, b in zip(fan.information, alone.information):
                        assert _equal_bits(a[i], b)
                    continue
                assert _equal_bits(h[i, 0, 0], sld_information(point))
                assert _equal_bits(c[i, 0, 0], sm_bound_spectral(point))
                assert _equal_bits(gap[i], bound_gap(point))
                assert _equal_bits(f[i, 0, 0], fisher_information(point, povm))
                # C_E of the theta-dependent remixing through a remixed channel, alone
                g = gen[i]
                moving = lambda t: unitary_exponential(t[..., :1, np.newaxis] * g).unitary()
                channel_e = remix_channel(channel, moving, lambda t, l: -1j * g @ moving(t))
                c_e = sm_bound_kraus(
                    channel_e.kraus_matrices(theta),
                    channel_e.kraus_partials(theta)[0],
                    channel.input_state.density(),
                )
                assert _equal_bits(remixed[i], c_e)


def test_random_povm_draws_its_parts_in_one_call():
    # One normal draw of shape (dim, 2, dim, dim) gives the POVM of a
    # part-by-part loop, bit for bit, and leaves the generator where it does.
    for dim in (2, 3, 4):
        rng, ref = (np.random.Generator(np.random.Philox(key=np.uint64(dim))) for _ in range(2))
        povm = verify.random_povm(dim, rng)
        parts = []
        for _ in range(dim):
            x = ref.normal(size=(dim, dim)) + 1j * ref.normal(size=(dim, dim))
            parts.append(x @ x.conj().T)
        sys = hermitian_eigendecompose(sum(parts))
        inv_root = (sys.eigenvectors / np.sqrt(sys.eigenvalues)) @ sys.eigenvectors.conj().T
        assert _equal_bits(povm.elements, [inv_root @ p @ inv_root for p in parts])
        assert rng.normal() == ref.normal()
