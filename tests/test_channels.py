import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qfibounds.bounds import spectral_curve
from qfibounds.channels import (
    BUILTIN_FAMILIES,
    ParametricChannel,
    builtin,
    custom_spectral,
    directional_channel,
    exponential_family,
    random_hermitian,
    random_kraus_channel,
)
from qfibounds.errors import ValidationError
from qfibounds.linalg import differentiate_curve, max_abs
from qfibounds.quantum import diagnose_kraus

from oracles import random_hermitians, random_unitary, remix_channel

ALL_FAMILIES = sorted(BUILTIN_FAMILIES)
KRAUS_FAMILIES = [family for family in ALL_FAMILIES if builtin(family).is_kraus_form]
SPECTRAL_FAMILIES = [family for family in ALL_FAMILIES if not builtin(family).is_kraus_form]
SPECTRAL_FIELDS = ("values", "vectors", "value_grads", "vector_grads")


def _grid(channel: ParametricChannel, points: int = 25) -> list[np.ndarray]:
    axes = [np.linspace(lo, hi, points) for lo, hi in channel.domain]
    if channel.param_count == 1:
        return [np.array([t]) for t in axes[0]]
    # thinner grid per axis for multi-parameter boxes
    axes = [np.linspace(lo, hi, 5) for lo, hi in channel.domain]
    return [np.array(p) for p in np.array(np.meshgrid(*axes)).T.reshape(-1, channel.param_count)]


def test_dephasing_kraus_form():
    ch = builtin("dephasing")
    ops = ch.kraus_matrices(0.19)
    assert np.allclose(ops[0], np.sqrt(0.81) * np.eye(2))
    assert np.allclose(ops[1], np.sqrt(0.19) * np.diag([1, -1]))


def test_rotation_single_operator():
    ch = builtin("rotation", axis="z")
    ops = ch.kraus_matrices(0.4)
    assert ops.shape[0] == 1
    assert np.allclose(ops[0], np.diag([np.exp(-0.2j), np.exp(0.2j)]))


def test_unknown_family_and_options():
    with pytest.raises(ValidationError, match="unknown family"):
        builtin("squeezing")
    with pytest.raises(ValidationError, match="axis"):
        builtin("rotation", axis="w")
    with pytest.raises(ValidationError, match="bad options"):
        builtin("dephasing", flavor=3)


def test_example1_spectral_data():
    ch = builtin("example1")
    data = ch.spectral_at(0.6)
    assert np.allclose(data.values, [0.36, 0.64])
    assert np.allclose(data.vectors[:, 0], [0.6, 0.8, 0.0])
    assert np.allclose(data.vectors[:, 1], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_builtin_form_invariants_on_grid(family):
    ch = builtin(family)
    for theta in _grid(ch):
        if ch.is_kraus_form:
            assert diagnose_kraus(ch.kraus_matrices(theta))["completeness"] < 1e-9
        else:
            ch.spectral_at(theta)


@pytest.mark.parametrize("family", KRAUS_FAMILIES)
def test_kraus_derivative_analytic_vs_numeric(family):
    """Analytic family derivatives agree with central differences at default config."""
    ch = builtin(family)
    assert ch.kraus_grad_fn is not None
    mid = np.array([(lo + hi) / 2 for lo, hi in ch.domain])
    for index in range(ch.param_count):
        analytic = ch.kraus_partials(mid)[index]
        lo, hi = ch.domain[index]

        def curve(t, index=index):
            point = mid.copy()
            point[index] = t
            return ch.kraus_matrices(point)

        numeric = differentiate_curve(curve, mid[index])
        err = max_abs(numeric - analytic) / max(1.0, max_abs(analytic))
        assert err < 1e-6, f"{family} axis {index}: {err:.3e}"


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_output_partials_analytic_vs_numeric(family):
    """Output partials, from Kraus partials or spectral data, agree with central differences."""
    ch = builtin(family)
    mid = np.array([(2 * lo + hi) / 3 for lo, hi in ch.domain])
    analytic = ch.output_partials(mid)
    assert analytic.shape == (ch.param_count, ch.dim, ch.dim)
    for index in range(ch.param_count):

        def curve(t, index=index):
            point = mid.copy()
            point[index] = t
            return ch.output_matrix(point)

        numeric = differentiate_curve(curve, mid[index])
        assert max_abs(analytic[index] - analytic[index].conj().T) == 0.0
        err = max_abs(numeric - analytic[index]) / max(1.0, max_abs(analytic[index]))
        assert err < 1e-6, f"{family} axis {index}: {err:.3e}"


@pytest.mark.parametrize("family", SPECTRAL_FAMILIES)
def test_spectral_derivative_analytic_vs_numeric(family):
    """Analytic eigenvalue and eigenvector partials agree with central differences."""
    ch = builtin(family)
    mid = np.array([(2 * lo + hi) / 3 for lo, hi in ch.domain])
    data = ch.spectral_fn(mid)
    for index in range(ch.param_count):
        for name, analytic in (("values", data.value_grads), ("vectors", data.vector_grads)):

            def curve(t, index=index, name=name):
                point = mid.copy()
                point[index] = t
                return getattr(ch.spectral_fn(point), name)

            numeric = differentiate_curve(curve, mid[index])
            err = max_abs(numeric - analytic[index]) / max(1.0, max_abs(analytic[index]))
            assert err < 1e-6, f"{family} {name} axis {index}: {err:.3e}"


@pytest.mark.parametrize("family", SPECTRAL_FAMILIES)
def test_spectral_slopes_sum_to_zero_and_frame_stays_orthonormal(family):
    """sum_k p_k' = 0 and W^dag W' + W'^dag W = 0 on the grid: trace and frame are kept."""
    ch = builtin(family)
    for theta in _grid(ch):
        data = ch.spectral_fn(theta)
        assert max_abs(data.value_grads.sum(axis=-1)) < 1e-12
        w, dw = data.vectors, data.vector_grads
        assert max_abs(w.conj().T @ dw + dw.conj().swapaxes(-1, -2) @ w) < 1e-12


@pytest.mark.parametrize("family", KRAUS_FAMILIES)
def test_completeness_derivative_vanishes(family):
    """d/dtheta sum E^dag E = 0, via finite differences of the raw curve."""
    ch = builtin(family)
    mid = np.array([(lo + hi) / 2 for lo, hi in ch.domain])
    for index in range(ch.param_count):
        ops = ch.kraus_matrices(mid)

        def curve(t, index=index):
            point = mid.copy()
            point[index] = t
            return ch.kraus_matrices(point)

        grads = differentiate_curve(curve, mid[index])
        total = sum(g.conj().T @ e + e.conj().T @ g for e, g in zip(ops, grads))
        assert max_abs(total) < 1e-6


def test_example1_supported_overlaps_vanish_on_grid():
    ch = builtin("example1")
    for theta in np.linspace(0.05, 0.95, 25):
        data = ch.spectral_at(theta)
        overlap = data.vector_grads[0].conj().T @ data.vectors
        assert max_abs(overlap) < 1e-10


def test_kraus_form_needs_its_derivative():
    ch = builtin("dephasing")
    with pytest.raises(ValidationError, match="needs kraus_grad_fn"):
        ParametricChannel(
            name="dephasing-no-grad",
            dim=2,
            param_count=1,
            domain=ch.domain,
            input_state=ch.input_state,
            kraus_fn=ch.kraus_fn,
        )
    with pytest.raises(TypeError, match="mixing_grad_fn"):
        remix_channel(ch, lambda t: np.eye(2))


def test_random_kraus_channel_complete_and_smooth():
    ch = random_kraus_channel(dim=3, env=2, param_count=2, seed=5)
    for theta in ([0.0, 0.0], [0.3, -0.2], [-0.5, 0.5]):
        assert diagnose_kraus(ch.kraus_matrices(np.array(theta)))["completeness"] < 1e-9
    analytic = ch.kraus_partials(np.array([0.2, 0.1]))[1]
    num = differentiate_curve(lambda t: ch.kraus_matrices(np.array([0.2, t])), 0.1)
    assert max_abs(num - analytic) < 1e-8


@pytest.mark.parametrize("dim, env, param_count, seed, scale", [
    (2, 2, 1, 9, 1.0), (3, 2, 2, 5, 1.0), (4, 1, 3, 2**63 + 7, 2.5), (3, 3, 1, 0, 0.3),
])
def test_random_kraus_generators_are_the_per_parameter_draws(dim, env, param_count, seed, scale):
    # One (m, 2, T, T) normal draw gives the generators a loop of per-parameter
    # draws gives, bit for bit, and leaves the stream where the loop does: the
    # input state drawn next is the same too.
    n = dim * env
    rng, ref = (np.random.Generator(np.random.Philox(key=np.uint64(seed))) for _ in range(2))
    gens = random_hermitian(n, rng, scale, (param_count,))
    expected = random_hermitians(n, ref, param_count, scale)
    assert np.array_equal(gens, expected)
    assert rng.normal() == ref.normal()
    channel = random_kraus_channel(dim, env, param_count, seed, scale)
    ref = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    family = exponential_family(random_hermitians(n, ref, param_count, scale), env, "ref",
                                channel.domain)
    amps = ref.normal(size=dim) + 1j * ref.normal(size=dim)
    assert np.array_equal(channel.input_state.amplitudes, amps / np.linalg.norm(amps))
    theta = np.linspace(-0.5, 0.4, param_count)
    assert np.array_equal(channel.kraus_matrices(theta), family.kraus_matrices(theta))
    assert np.array_equal(channel.kraus_partials(theta), family.kraus_partials(theta))


def test_random_kraus_channel_deterministic():
    a = random_kraus_channel(dim=2, env=2, seed=9)
    b = random_kraus_channel(dim=2, env=2, seed=9)
    assert np.array_equal(a.kraus_matrices(0.25), b.kraus_matrices(0.25))


def test_remix_preserves_channel():
    ch = builtin("dephasing")
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rem = remix_channel(ch, lambda t: had, lambda t, i: np.zeros((2, 2)))
    assert diagnose_kraus(rem.kraus_matrices(0.3))["completeness"] < 1e-9
    rho_a = ch.output_matrix(0.3)
    rho_b = rem.output_matrix(0.3)
    assert max_abs(rho_a - rho_b) < 1e-12


def test_directional_channel_axis_slice():
    ch = builtin("dephasing-2p")
    theta = np.array([0.4, 0.3])
    sliced = directional_channel(ch, theta, np.array([0.0, 1.0]))
    assert np.allclose(sliced.kraus_matrices(0.05), ch.kraus_matrices([0.4, 0.35]))
    grad = sliced.kraus_grad_fn(np.array([0.0]), 0)
    assert np.allclose(grad, ch.kraus_grad_fn(theta, 1))


def test_custom_spectral_validation():
    w = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    custom_spectral(w, np.array([[0.7, -0.5], [0.3, 0.5]]), ((0.1, 0.9),))
    with pytest.raises(ValidationError, match="summing to one"):
        custom_spectral(w, np.array([[0.7, -0.5], [0.2, 0.5]]), ((0.1, 0.9),))
    with pytest.raises(ValidationError, match="negative"):
        custom_spectral(w, np.array([[0.1, -0.5], [0.9, 0.5]]), ((0.0, 1.0),))
    with pytest.raises(ValidationError, match="orthonormal"):
        custom_spectral(np.ones((2, 2), dtype=complex), np.array([[0.7, -0.5], [0.3, 0.5]]), ((0.1, 0.9),))


def test_example2_range_validation():
    with pytest.raises(ValidationError, match="leaves"):
        builtin("example2", f_coeffs=(0.0, 2.0, 0.0))


def test_domain_checks():
    ch = builtin("dephasing")
    with pytest.raises(ValidationError, match="outside domain"):
        ch.require_in_domain(1.5)
    with pytest.raises(ValidationError, match="theta must have"):
        ch.require_in_domain([0.1, 0.2])


def _count_decompositions(monkeypatch) -> list:
    from qfibounds import channels

    calls = []
    original = channels.unitary_exponential

    def counted(h):
        calls.append(h.shape)
        return original(h)

    monkeypatch.setattr(channels, "unitary_exponential", counted)
    return calls


@pytest.mark.parametrize("param_count", [1, 2])
def test_random_kraus_decomposes_once_per_canonical_kraus(monkeypatch, param_count):
    # Two parameters: one decomposition per canonical_kraus.  One parameter:
    # one per channel, of its generator at the first evaluation, none later.
    from qfibounds.bounds import canonical_kraus

    calls = _count_decompositions(monkeypatch)
    channel = random_kraus_channel(dim=3, env=2, param_count=param_count, seed=17)
    assert calls == []
    per_call = []
    for theta in (0.31, -0.27):
        before = len(calls)
        ck = canonical_kraus(channel, np.full(param_count, theta))
        assert ck.raw_derivatives.shape[0] == param_count
        per_call.append(len(calls) - before)
    assert per_call == ([1, 0] if param_count == 1 else [1, 1])
    assert param_count == 2 or calls == [(6, 6)]  # G itself, not a stack of theta G


ONE_PARAMETER_THETAS = np.array([-0.9, -1e-3, 0.0, 0.37, 0.9])[:, np.newaxis]


@pytest.mark.parametrize("seed", [0, 11, 2**63 + 7])
@pytest.mark.parametrize("dim, env", [(2, 1), (3, 2), (8, 8)])
def test_one_parameter_exponential_family_matches_expm(dim, env, seed):
    # With one parameter the Kraus stack and its partial come from one
    # decomposition of G: they must be the columns |j, 0> of exp(-i theta G)
    # and of -i G exp(-i theta G), as scipy's expm of the drawn G gives them.
    # Measured worst error: 1.4e-15 and 2.0e-15 times max(1, ||G||_2).
    channel = random_kraus_channel(dim, env, 1, seed)
    drawn = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    g = random_hermitians(dim * env, drawn, 1)[0]
    kraus = lambda u: u[:, ::env].reshape(dim, env, dim).swapaxes(0, 1)  # row i env + k: E_k[i]
    bound = 1e-14 * max(1.0, np.linalg.norm(g, 2))
    ops = channel.kraus_matrices(ONE_PARAMETER_THETAS)
    partials = channel.kraus_partials(ONE_PARAMETER_THETAS)[:, 0]
    for theta, op, partial in zip(ONE_PARAMETER_THETAS[:, 0], ops, partials):
        u = scipy.linalg.expm(-1j * theta * g)
        assert max_abs(op - kraus(u)) < bound
        assert max_abs(partial - kraus(-1j * g @ u)) < bound


@pytest.mark.parametrize("dim, env, seed", [(2, 1, 3), (3, 2, 11), (4, 4, 2), (8, 8, 11)])
def test_one_parameter_random_kraus_stacks_are_point_calls_bit_for_bit(dim, env, seed):
    # A stack of points, and the rows of one family with generators per row,
    # give each point the bits of its own call.
    channel = random_kraus_channel(dim, env, 1, seed)
    points = np.concatenate([ONE_PARAMETER_THETAS, [[-0.31]]])
    for call in (channel.kraus_matrices, channel.kraus_partials, channel.output_matrix,
                 channel.output_partials):
        stack = call(points)
        assert all(_same_bits(stack[i], call(point)) for i, point in enumerate(points))
    gens = random_hermitian(dim * env, np.random.default_rng(seed), shape=(len(points), 1))
    family = lambda rows: exponential_family(gens[rows], env, "rows", channel.domain)
    for evaluate in (lambda ch, t: ch.kraus_fn(t), lambda ch, t: ch.kraus_grad_fn(t, 0)):
        stack = evaluate(family(slice(None)), points)
        assert all(_same_bits(stack[i], evaluate(family(i), point))
                   for i, point in enumerate(points))


def test_exponential_family_memo_returns_the_same_bits():
    theta, other = np.array([0.4, -0.3]), np.array([-0.2, 0.6])

    def evaluate(channel):
        return [channel.kraus_fn(theta)] + [channel.kraus_grad_fn(theta, l) for l in range(2)]

    for build in (
        lambda: random_kraus_channel(dim=3, env=2, param_count=2, seed=5),
        lambda: builtin("rotation-2p"),
    ):
        cold = evaluate(build())
        warm_channel = build()
        for array in evaluate(warm_channel):
            array[...] = 0  # a caller may write to what it gets; the memo is not shared
        warm = evaluate(warm_channel)
        moved_channel = build()
        moved_channel.kraus_fn(other)
        moved_channel.kraus_grad_fn(other, 1)
        moved = evaluate(moved_channel)
        for a, b, c in zip(cold, warm, moved):
            assert np.array_equal(a, b) and np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Broadcast contract: a stack of points gives each point the bits of its own call
# ---------------------------------------------------------------------------

KRAUS_BUILTINS = [family for family in KRAUS_FAMILIES if family != "random-kraus"]
PROPERTY = settings(max_examples=160, deadline=None, derandomize=True, database=None)


def _exponential_mixing(n: int, seed: int):
    """A theta-dependent remixing exp(-i theta_0 g) and its partials, both broadcasting."""
    g = random_hermitian(n, np.random.default_rng(seed))
    lam, v = np.linalg.eigh(g)

    def mix(theta):
        return (v * np.exp(-1j * theta[..., :1, np.newaxis] * lam)) @ v.conj().T

    def dmix(theta, index):
        return (-1j * g @ mix(theta)) * (index == 0)

    return mix, dmix


@st.composite
def _kraus_family(draw, param_count=None):
    if draw(st.booleans()):
        return random_kraus_channel(
            dim=draw(st.integers(2, 4)),
            env=draw(st.integers(1, 3)),
            param_count=param_count or draw(st.integers(1, 2)),
            seed=draw(st.integers(0, 2**63 - 1)),
        )
    families = [f for f in KRAUS_BUILTINS if param_count in (None, builtin(f).param_count)]
    family = draw(st.sampled_from(families))
    if family == "rotation":
        return builtin(family, axis=draw(st.sampled_from("xyz")))
    return builtin(family)


@st.composite
def _affine_coeffs(draw, box=(0.05, 0.95)):
    """(c0, c1, c2) of a map c0 + c1 t1 + c2 t2 that stays in [0.05, 0.95] over box x box."""
    slopes = np.array(draw(st.lists(st.floats(-0.45, 0.45), min_size=2, max_size=2)))
    low = np.minimum(slopes * box[0], slopes * box[1]).sum()
    spread = np.abs(slopes).sum() * (box[1] - box[0])
    const = 0.05 - low + draw(st.floats(0.0, 1.0)) * (0.9 - spread)
    return [const, *slopes]


@st.composite
def _spectral_family(draw, param_count=None):
    """example1, example2 with drawn affine maps, or a custom_spectral with a random frame."""
    choices = [k for k, m in (("example1", 1), ("example2", 2), ("custom", param_count))
               if param_count in (None, m)]
    kind = draw(st.sampled_from(choices))
    if kind == "example1":
        return builtin("example1")
    if kind == "example2":
        return builtin("example2", f_coeffs=draw(_affine_coeffs()), g_coeffs=draw(_affine_coeffs()))
    m = param_count or draw(st.integers(1, 2))
    dim = draw(st.integers(2, 3))
    rank = draw(st.integers(2, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    const = 0.2 + rng.random(rank)
    slopes = rng.normal(size=(rank, m))
    slopes -= slopes.mean(axis=0)
    slopes *= 0.5 * const.min() / const.sum() / np.abs(slopes).sum(axis=1).max()
    coeffs = np.column_stack([const / const.sum(), slopes])
    return custom_spectral(random_unitary(dim, rng)[:, :rank], coeffs, ((0.0, 1.0),) * m)


@st.composite
def _stacked_channel(draw):
    """A channel (built-in, random, remixed, spectral or a fan) and an (N, m) stack in its box."""
    kind = draw(st.sampled_from(["family", "spectral", "remix", "spectral-fan", "fan"]))
    if kind.endswith("fan"):
        family = _spectral_family if kind == "spectral-fan" else _kraus_family
        parent = draw(family(param_count=2))
        lo, hi = np.array(parent.domain).T
        center = lo + (hi - lo) * np.array(draw(st.lists(st.floats(0.2, 0.8), min_size=2, max_size=2)))
        k = draw(st.integers(1, 2))
        rows = st.lists(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1), min_size=2, max_size=2)
        channel = directional_channel(parent, center, np.array(draw(st.lists(rows, min_size=k, max_size=k))))
    elif kind == "spectral":
        channel = draw(_spectral_family())
    else:
        channel = draw(_kraus_family())
        if kind == "remix":
            n = len(channel.kraus_matrices(np.mean(channel.domain, axis=1)))
            channel = remix_channel(channel, *_exponential_mixing(n, draw(st.integers(0, 2**32))))
    count = draw(st.integers(1, 5))
    fractions = draw(
        st.lists(st.floats(0.02, 0.98), min_size=count * channel.param_count,
                 max_size=count * channel.param_count)
    )
    lo, hi = np.array(channel.domain).T
    return channel, lo + (hi - lo) * np.reshape(fractions, (count, channel.param_count))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(_stacked_channel())
def test_stacked_family_calls_match_point_calls(drawn):
    channel, points = drawn
    if channel.is_kraus_form:
        calls = [(lambda t: channel.kraus_fn(t), 4)] + [
            (lambda t, l=l: channel.kraus_grad_fn(t, l), 4) for l in range(channel.param_count)
        ]
    else:
        calls = [
            (lambda t, name=name: getattr(channel.spectral_fn(t), name), ndim)
            for name, ndim in zip(SPECTRAL_FIELDS, (2, 3, 3, 4))
        ]
    for call, ndim in calls:
        stack = call(points)
        assert stack.shape[:1] == (len(points),) and stack.ndim == ndim
        assert all(_same_bits(stack[i], call(point)) for i, point in enumerate(points))
        assert _same_bits(call(points[:, np.newaxis])[:, 0], stack)  # any leading axes
    rhos = channel.output_matrix(points)
    assert all(_same_bits(rhos[i], channel.output_matrix(point)) for i, point in enumerate(points))
    partials = channel.output_partials(points)
    assert all(
        _same_bits(partials[i], channel.output_partials(point)) for i, point in enumerate(points)
    )
    if not channel.is_kraus_form:
        stacked = spectral_curve(channel, points).information
        for i, point in enumerate(points):
            alone = spectral_curve(channel, point).information
            assert all(_same_bits(a[i], b) for a, b in zip(stacked, alone))
