"""The property suites build each canonical decomposition once per point.

Every check of a point reads the spectral curve the suite built there, and
that curve carries its canonical decomposition, so no check decomposes the
point again.  These tests pin that sharing through the public builders: the
call counts, the battery's (channel, theta) contract, and the reporting of
skipped directions.
"""

import dataclasses
from collections import Counter

from qfibounds import bounds, multiparam, verify
from qfibounds.channels import ParametricChannel
from qfibounds.errors import DegeneracyError


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
        built.append(len(points))
        return points

    monkeypatch.setattr(verify, "_battery_curves", small_battery)
    results = verify.run_suites(["ordering", "gap", "routes"], seed=11)
    assert all(r.passed for r in results)
    assert built == [6]
    # The screening curve is the one the suites read: no point is decomposed
    # twice, and no screened-out theta is decomposed at this seed.
    assert calls["canonical_kraus"] == 6


def test_ordering_decomposes_each_remixing_generator_once_per_point(monkeypatch):
    # The theta-dependent remixing exp(-i theta g) and its derivative come
    # from one decomposition of theta g; the battery families decompose
    # through their own module and are not counted here.
    calls = Counter()
    original = verify.unitary_exponential

    def counted(h):
        calls["unitary_exponential"] += 1
        return original(h)

    monkeypatch.setattr(verify, "unitary_exponential", counted)
    results = verify.ordering_suite(seed=11, count=6)
    assert all(r.passed for r in results)
    assert calls["unitary_exponential"] == 6


def test_directional_suite_builds_one_core_per_channel(monkeypatch):
    calls = _count(monkeypatch, "canonical_kraus")
    battery = verify.two_param_battery(seed=9, count=5)
    screen = calls["canonical_kraus"]
    calls.clear()
    results = verify.directional_suite(seed=9, count=5, directions=4)
    assert all(r.passed for r in results)
    # The suite reads the screening curves and checks all directions of a
    # channel on one fan curve; example2, the equality family, is
    # spectral-form and builds no core.
    assert calls["canonical_kraus"] == screen + len(battery)


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
    seen = Counter()

    def every_other(*args):
        seen["calls"] += 1
        if seen["calls"] % 2:
            raise DegeneracyError("forced skip")
        return original(*args)

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
    original = verify.directional_reduction_check
    seen = Counter()

    def third_is_off(*args):
        seen["calls"] += 1
        check = original(*args)
        if seen["calls"] == 3:
            check = dataclasses.replace(check, kraus_deriv_mismatch=1.0)
        return check

    monkeypatch.setattr(verify, "directional_reduction_check", third_is_off)
    results = verify.directional_suite(seed=9, count=5, directions=4)
    failed = _slice_check(results)
    assert not failed.passed
    channel, theta = battery[2]
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
