"""The property suites decompose each shape group of a battery in one call.

A battery's points of one (dim, Kraus count) share one stacked spectral
curve, which carries its canonical decomposition, and every check reads
those stacks, so no check decomposes a point again.  These tests pin that
sharing through the public builders: the call counts, the battery's
(channel, theta) contract and its bits against one-point curves, and the
naming of skipped directions and of failing checks' worst points.
"""

import dataclasses
import gc
import hashlib
from collections import Counter

import numpy as np
import pytest

from qfibounds import bounds, channels, multiparam, verify
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
    haar_unitary,
    random_hermitian,
    random_kraus_channel,
    random_pure_state,
)
from qfibounds.errors import DegeneracyError
from qfibounds.linalg import hermitian_eigendecompose, unitary_exponential
from qfibounds.quantum import POVM

from oracles import random_hermitians, random_unitary, remix_channel


def _count(monkeypatch, name: str) -> Counter:
    """Count calls of a bounds function from every module that imports it."""
    calls = Counter()
    original = getattr(bounds, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module in (bounds, multiparam, verify):
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
        built.append(len(points.seeds))
        return points

    monkeypatch.setattr(verify, "_battery_curves", small_battery)
    results = verify.run_suites(["ordering", "gap", "routes"], seed=11)
    assert all(r.passed for r in results)
    assert built == [6]
    # The 6 points fall in 3 shape groups, and the group curves are the ones
    # the suites read: each group is decomposed once, and no screened-out
    # theta is decomposed at this seed.
    assert calls["canonical_kraus"] == 3


def test_ordering_decomposes_each_remixing_generator_once_per_point(monkeypatch):
    # The theta-dependent remixings exp(-i theta g) of a shape group and
    # their derivatives come from one stacked decomposition of theta g, and
    # the 6 points fall in 3 groups; the battery families decompose through
    # their own module and are not counted here.
    calls = Counter()
    original = verify.unitary_exponential

    def counted(h):
        calls["unitary_exponential"] += 1
        return original(h)

    monkeypatch.setattr(verify, "unitary_exponential", counted)
    results = verify._ordering(verify._battery_curves(11, 6, 1), 11)
    assert all(r.passed for r in results)
    assert calls["unitary_exponential"] == 3


def test_directional_suite_builds_one_core_per_channel(monkeypatch):
    calls = _count(monkeypatch, "canonical_kraus")
    battery = verify.two_param_battery(seed=9, count=5)
    screen = calls["canonical_kraus"]
    calls.clear()
    results = verify.directional_suite(seed=9, count=5, directions=4)
    assert all(r.passed for r in results)
    # The 5 channels fall in 4 shape groups, each screened in one call.  The
    # suite reads the screening curves and checks all directions of every
    # channel of a group on one stacked fan curve; example2, the equality
    # family, is spectral-form and builds no core.
    assert len(battery) == 5 and screen == 4
    assert calls["canonical_kraus"] == 2 * screen


def _slice_check(results):
    [check] = [r for r in results if r.name.startswith("slice consistency")]
    return check


def test_directional_suite_reports_skipped_directions(monkeypatch):
    clean = _slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert clean.passed and "skipped" not in clean.detail
    battery = verify.two_param_battery(seed=9, count=5)
    tried = len(battery) * 4
    first = f"{battery[0][0].name} theta {battery[0][1].tolist()}"

    original = verify.directional_reduction_check
    refused = np.array([theta for _, theta in battery[::2]])

    def every_other(family, curve, v):
        # A stack holding a refused point fails as one call; it is then
        # split in halves down to the refused points.
        if (curve.theta[:, np.newaxis] == refused).all(axis=-1).any():
            raise DegeneracyError("forced skip")
        return original(family, curve, v)

    # A channel's fan carries all of its directions, so a skip removes them all.
    monkeypatch.setattr(verify, "directional_reduction_check", every_other)
    half = _slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert half.passed
    skipped = ((len(battery) + 1) // 2) * 4
    assert half.detail.endswith(f", {skipped} of {tried} directions skipped, first at {first}")

    def always(*args):
        raise DegeneracyError("forced skip")

    monkeypatch.setattr(verify, "directional_reduction_check", always)
    none = _slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert not none.passed
    assert none.detail.endswith(f", {tried} of {tried} directions skipped, first at {first}")


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
    assert failed.detail.endswith(f"; worst at {channel.name} theta {theta.tolist()}")
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
    assert "; worst at random-kraus-" in diagonals.detail


def test_failing_one_parameter_checks_name_their_worst_point(monkeypatch):
    # Lowering C below H at one point fails H <= C and the route agreement
    # there (C_kraus does not read the kernel); both name that point.
    channel, theta = verify.one_param_battery(seed=9, count=6)[4]
    original = bounds.SpectralCurve.information.func

    def perturbed(self):
        h, c = original(self)
        at = (self.theta[..., 0] == theta)[..., np.newaxis, np.newaxis]
        return h, np.where(at, h - 1e-3, c)

    monkeypatch.setattr(bounds.SpectralCurve, "information", property(perturbed))
    results = verify.run_suites(["ordering", "routes"], seed=9)
    failed = {r.name: r for r in results if not r.passed}
    assert set(failed) == {"H <= C on the same battery", "bound route agreement over 200 channels"}
    # run_suites builds the default 200-point battery; the point is its fifth
    named = f"; worst at {channel.name} theta {[theta]}"
    assert all(r.detail.endswith(named) for r in failed.values())
    assert all(" at " not in r.detail for r in results if r.passed)


def _sequential_battery(seed: int, count: int) -> tuple[list, int]:
    """The one-parameter battery as a point-by-point builder draws it, and its retries."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    points, retries = [], 0
    for _ in range(count):
        dim = int(rng.integers(2, 5))
        env = int(rng.integers(1, dim + 1))
        channel = random_kraus_channel(
            dim=dim,
            env=env,
            param_count=1,
            seed=int(rng.integers(0, 2**63)),
            input_state=random_pure_state(dim, rng),
        )
        for _ in range(8):
            theta = rng.uniform(-0.6, 0.6, size=1)
            try:
                spectral_curve(channel, theta)
            except DegeneracyError:
                retries += 1
                continue
            points.append((channel.name, float(theta[0])))
            break
    return points, retries


# retries and sha256 of repr([(channel.name, theta.hex()), ...]) of the sequential builder
SEQUENTIAL_DIGESTS = {
    3: (1, "e7bb72d15027c2846c32f23e430a58117bfa9b988e66773d9a566784caa19adf"),
    7: (1, "4092570a2c98b429764be8eaceb1f1df1ef435a18d41e5db6015be9d28ba0d57"),
    15: (1, "64e2960048ef23539ca0fe1fbc0031c75f5a68df4c0d5bb5537dfed43d90c961"),
    21: (1, "0819dc150a463f8e7aa2c4cb3b8519de259eaf865d45e22777878ebe883bb088"),
    208: (2, "8a8fad372b8723aa0e954609972e3242ec04885129f46afce96c24f391717f07"),
}


@pytest.mark.parametrize("seed", sorted(SEQUENTIAL_DIGESTS))
def test_battery_retries_a_refused_theta_as_the_sequential_builder_does(seed):
    # At these seeds one theta or two are refused ("Gram eigenvalue ... sits
    # at the support boundary") and redrawn, which moves every later draw.
    expected, retries = _sequential_battery(seed, 200)
    assert retries == SEQUENTIAL_DIGESTS[seed][0]
    text = repr([(name, theta.hex()) for name, theta in expected])
    assert hashlib.sha256(text.encode()).hexdigest() == SEQUENTIAL_DIGESTS[seed][1]
    assert [(channel.name, theta) for channel, theta in verify.one_param_battery(seed)] == expected


# sha256 of `qfi verify --suite all --format json` stdout, one BLAS thread
VERIFY_JSON_DIGESTS = {
    3: "cabec3412cc8dc7393c5c1c0b2bff2e908ea5dc1f411ce183314eba6fda42b36",
    7: "49ebdcc3302a431c1bbf5b68ed28988e900695d6a15307744fea397a49f2d4ac",
    20260809: "55f56439e6d70e9b34e1c26f74ccc72345de5af6e3390d22b19c0a80c590c49e",
    6180588700756636604: "2f96ea5039861c9c09e3fdcd092956a895b12a90f2b356d4de8d8cb6e21c0f24",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_JSON_DIGESTS))
def test_verify_json_is_pinned(seed, capsys):
    # Every detail number of every suite, at the default seed, at two seeds
    # that redraw a refused theta and at a wide one: a change to how the
    # batteries or the suites' inputs are drawn must keep each value's bits.
    assert main(["verify", "--suite", "all", "--seed", str(seed), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_DIGESTS[seed]


def test_battery_generators_are_random_kraus_channel_draws():
    # The battery re-keys one Philox per point; its generators and inputs are
    # those of the point's own random_kraus_channel, and a new Philox keyed by
    # the family seed draws the same generators.
    for m, count in ((1, 12), (2, 6)):
        battery = verify._battery_curves(404, count, m)
        for p, (seed, (channel, _)) in enumerate(zip(battery.seeds, battery.points())):
            n = battery.generators[p].shape[-1]
            ref = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            assert _equal_bits(battery.generators[p], random_hermitians(n, ref, m))
            assert channel.name == f"random-kraus-{seed}" and channel.param_count == m
            assert _equal_bits(channel.input_state.amplitudes, battery.inputs[p])


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
    # kernel call, the battery's halves and the fans included, decomposes the
    # generators of all its rows in one batched call, and no battery channel
    # is evaluated on its own.  Seed 3 redraws a theta and halves a group.
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
    for build in (lambda: verify.one_param_battery(3),
                  lambda: verify.directional_suite(seed=9, count=5, directions=4)):
        kernel.clear(), generators.clear()
        build()
        assert len(kernel) > 2 and generators == kernel


def test_a_redrawn_battery_splits_only_the_refusing_groups(monkeypatch):
    # Seed 3 redraws one theta: each of two rounds decomposes the 9 shape
    # groups, and only the group holding the refused row is split in halves
    # (28 calls; redrawing the battery point by point took 219).
    calls = _count(monkeypatch, "spectral_curve")
    verify.one_param_battery(3)
    assert calls["spectral_curve"] <= 40


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
                fixed = np.array([random_unitary(n, rng) for _ in rows])
                gen = np.array([random_hermitian(n, rng) for _ in rows])
                remixed = verify._remixed_bounds(curve, rho0, fixed, gen)
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
                # C_E of the two remixings through remixed channels, one point at a time
                g = gen[i]
                moving = lambda t: unitary_exponential(t[..., :1, np.newaxis] * g).unitary()
                for value, mix, dmix in (
                    (remixed[0][i], lambda t: fixed[i], lambda t, l: np.zeros_like(fixed[i])),
                    (remixed[1][i], moving, lambda t, l: -1j * g @ moving(t)),
                ):
                    channel_e = remix_channel(channel, mix, dmix)
                    c_e = sm_bound_kraus(
                        channel_e.kraus_matrices(theta),
                        channel_e.kraus_partials(theta)[0],
                        channel.input_state.density(),
                    )
                    assert _equal_bits(value, c_e)


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


def test_ordering_unitaries_of_a_group_equal_random_unitary_row_by_row():
    # The ordering suite draws each point's normals as random_unitary does
    # and makes a shape group's unitaries in one batched QR, bit for bit.
    for dim in (2, 3, 5):
        rng, ref = (np.random.Generator(np.random.Philox(key=np.uint64(dim))) for _ in range(2))
        normals = np.array([rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                            for _ in range(40)])
        for row in haar_unitary(normals):
            assert _equal_bits(row, random_unitary(dim, ref))
        assert rng.normal() == ref.normal()
