"""The property suites build each canonical decomposition once per point.

The suites hand one decomposition to every check that reads it, through
private bodies of the public curve and matrix builders.  These tests pin
that sharing: the call counts, the bit-for-bit equality of the public
builders and their shared-core bodies, the battery's (channel, theta)
contract, and the reporting of skipped directions.
"""

import dataclasses
from collections import Counter

import numpy as np

from qfibounds import bounds, multiparam, verify
from qfibounds.bounds import _canonical_core, _kraus_curve, canonical_kraus, spectral_curve
from qfibounds.channels import ParametricChannel, builtin, random_kraus_channel
from qfibounds.errors import DegeneracyError
from qfibounds.multiparam import (
    _directional_check,
    _multi_spectral_curve,
    _sm_matrix,
    directional_reduction_check,
    multi_spectral_curve,
    sld_matrix,
    sm_matrix,
)


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


def _assert_same(a, b):
    """Every field equal under ==, arrays elementwise, with no tolerance."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, field.name
            assert bool(np.all(x == y)), field.name
        else:
            assert x == y, field.name


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
    original = verify.one_param_battery
    screens = []

    def small_battery(seed=verify.DEFAULT_SEED, count=200):
        before = calls["canonical_kraus"]
        battery = original(seed, 6)
        screens.append((calls["canonical_kraus"] - before, len(battery)))
        return battery

    monkeypatch.setattr(verify, "one_param_battery", small_battery)
    results = verify.run_suites(["ordering", "gap", "routes"], seed=11)
    assert all(r.passed for r in results)
    [(screen, points)] = screens
    assert points == 6
    assert calls["canonical_kraus"] - screen == points


def test_directional_suite_builds_one_core_per_channel_and_direction(monkeypatch):
    calls = _count(monkeypatch, "_canonical_core")
    battery = verify.two_param_battery(seed=9, count=5)
    screen = calls["_canonical_core"]
    calls.clear()
    results = verify.directional_suite(seed=9, count=5, directions=4)
    assert all(r.passed for r in results)
    # example2, the equality family, is spectral-form and builds no core.
    assert calls["_canonical_core"] - screen == len(battery) * (1 + 4)


def test_directional_suite_reports_skipped_directions(monkeypatch):
    def slice_check(results):
        [check] = [r for r in results if r.name.startswith("slice consistency")]
        return check

    clean = slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert clean.passed and "skipped" not in clean.detail
    tried = len(verify.two_param_battery(seed=9, count=5)) * 4

    original = verify._directional_check
    seen = Counter()

    def every_other(*args):
        seen["calls"] += 1
        if seen["calls"] % 2:
            raise DegeneracyError("forced skip")
        return original(*args)

    monkeypatch.setattr(verify, "_directional_check", every_other)
    half = slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert half.passed
    assert half.detail.endswith(f", {(tried + 1) // 2} of {tried} directions skipped")

    def always(*args):
        raise DegeneracyError("forced skip")

    monkeypatch.setattr(verify, "_directional_check", always)
    none = slice_check(verify.directional_suite(seed=9, count=5, directions=4))
    assert not none.passed
    assert none.detail.endswith(f", {tried} of {tried} directions skipped")


def test_public_multiparam_builders_equal_their_shared_core_bodies():
    battery = verify.two_param_battery(seed=9, count=5)
    assert battery
    rng = np.random.default_rng(9)
    for channel, theta in battery:
        vec = channel.theta_vector(theta)
        core = _canonical_core(channel, vec)
        msc = multi_spectral_curve(channel, theta)
        _assert_same(msc, _multi_spectral_curve(channel, vec, core))
        sm = sm_matrix(channel, theta)
        _assert_same(sm, _sm_matrix(channel, vec, core))
        h = sld_matrix(msc)
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        public = directional_reduction_check(channel, theta, v)
        _assert_same(public, _directional_check(channel, vec, v, core, None, None))
        _assert_same(public, _directional_check(channel, vec, v, core, h, sm))


def test_spectral_curve_is_the_kraus_curve_of_canonical_kraus():
    cases = [
        (builtin("dephasing"), 0.3),
        (builtin("amplitude-damping"), 0.6),
        (random_kraus_channel(dim=3, env=2, seed=11), -0.2),
        (random_kraus_channel(dim=4, env=3, seed=5), 0.4),
    ]
    for channel, theta in cases:
        expected = _kraus_curve(channel, canonical_kraus(channel, theta))
        _assert_same(spectral_curve(channel, theta), expected)
