"""Randomized property suites.

Seeded batteries of random channels exercising the ordering chain
F <= H <= C (and H <= C_E for theta-dependent remixings), the gap identity,
the agreement of the Kraus and spectral routes to the channel bound, and the
directional reduction of the multi-parameter matrices to the fan of slices
along many directions: one curve of the fan t -> channel(theta + V^T t)
gives the fan's H and C, which must be V H V^T and V C V^T of the point's
(directional_reduction_check).  A battery is drawn from one Philox as arrays
and holds each point's env, theta, generators and input, not channels.  Its
points of one shape (dim, Kraus count) are one channel whose row i carries
point i's generators (channels.exponential_family), so a group and its fans
are each evaluated and decomposed in one stacked call, and a failing check
names its worst point by its index in the battery.  Shared by `qfi verify`
and the acceptance tests, which run a suite through `run_suites`;
`one_param_battery`, `two_param_battery` and `random_povm` are test seams,
called only by the tests and `bench/`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    SUPPORT_TOL,
    SpectralCurve,
    bound_gap,
    bound_report,
    optimal_povm_from_sld,
    sld_information,
    sld_score,
    sm_bound_kraus,
    sm_bound_spectral,
    spectral_curve,
)
from .channels import (
    ParametricChannel,
    directional_channel,
    example2,
    exponential_family,
    random_hermitian,
)
from .errors import DegeneracyError, NumericError
from .linalg import adjoint, hermitian_eigendecompose, loewner_leq, max_abs, unitary_exponential
from .quantum import POVM, PureState

DEFAULT_SEED = 20260809
SUITES = ("ordering", "gap", "routes", "directional")
# param_count -> (Philox key salt, largest dimension, theta half-width)
_BATTERY_DRAWS = {1: (0, 4, 0.6), 2: (0xA5A5A5A5, 3, 0.5)}
_box = lambda m: ((-1.0, 1.0),) * m  # random_kraus_channel's domain


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _povm_parts(x: np.ndarray) -> np.ndarray:
    """PSD parts z z^dag, z from (..., dim, 2, dim, dim) normals: real parts, then imaginary."""
    parts = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    return parts @ adjoint(parts)


def _normalized(parts: np.ndarray) -> np.ndarray:
    """POVM elements T^-1/2 P T^-1/2 of parts P with total T, for one set or a stack of sets."""
    sys = hermitian_eigendecompose(sum(np.moveaxis(parts, -3, 0)))
    w = sys.eigenvectors
    inv_root = (w / np.sqrt(sys.eigenvalues)[..., np.newaxis, :]) @ adjoint(w)
    return inv_root[..., np.newaxis, :, :] @ parts @ inv_root[..., np.newaxis, :, :]


def random_povm(dim: int, rng: np.random.Generator) -> POVM:
    """Random informationally nontrivial POVM of dim normalized random PSD parts."""
    return POVM(_normalized(_povm_parts(rng.normal(size=(dim, 2, dim, dim)))))


@dataclass(frozen=True)
class _Battery:
    """Per point in draw order its env, theta, generators and input; per group its rows,
    curve and rho0."""

    envs: tuple
    thetas: tuple
    generators: tuple
    inputs: tuple
    groups: list

    def points(self) -> list:
        """(channel, theta) in draw order, point i's channel the family battery-i."""
        return [(exponential_family(g, env, f"battery-{i}", _box(len(t)), PureState(psi)), t)
                for i, (env, t, g, psi) in enumerate(zip(self.envs, self.thetas,
                                                         self.generators, self.inputs))]

    def family(self, rows) -> ParametricChannel:
        """One channel for the points at rows, all of one shape: its row i is point rows[i]'s."""
        gens = np.array([self.generators[p] for p in rows])
        return exponential_family(gens, self.envs[rows[0]], "battery", _box(gens.shape[-3]))

    def name(self, p: int) -> str:  # point p is the seams' p-th: one_param_battery(seed)[p]
        shape = f"dim {len(self.inputs[p])}, env {self.envs[p]}"
        return f"point {p} ({shape}) theta {self.thetas[p].tolist()}"

    def values(self, per_group) -> np.ndarray:  # one value per point, in draw order
        values = np.empty(len(self.thetas))
        for (rows, *_), group_values in zip(self.groups, per_group):
            values[rows] = group_values
        return values

    def normals(self, rng: np.random.Generator, pieces) -> list:
        """Per group, (rows, *shape) stacks of the shapes pieces(dim, Kraus count): one normal
        draw, cut as drawing each point's pieces in turn, in draw order, gives them."""
        shapes = [pieces(len(self.inputs[rows[0]]), curve.kraus.operators.shape[1])
                  for rows, curve, _ in self.groups]
        sizes = [[int(np.prod(shape)) for shape in group] for group in shapes]
        ends = np.cumsum(self.values([sum(size) for size in sizes]).astype(int))
        stream, stacks = rng.normal(size=ends[-1:].sum()), []
        for (rows, *_), group, size in zip(self.groups, shapes, sizes):
            block = stream[(ends[rows] - sum(size))[:, np.newaxis] + np.arange(sum(size))]
            cut = np.split(block, np.cumsum(size)[:-1], axis=1)
            stacks.append([part.reshape(len(rows), *shape) for part, shape in zip(cut, group)])
        return stacks

    def checks(self, suite: str, specs) -> list[CheckResult]:
        """Checks of (name, values per group, low is bad, bound, detail, *more conditions) that
        fail on a value past the bound, naming its point."""
        results = []
        for name, per_group, low, bound, detail, *more in specs:
            values = self.values(per_group)
            worst = values.min(initial=np.inf) if low else values.max(initial=0.0)
            ok, text = bool(worst > bound if low else worst < bound), detail.format(worst)
            if not ok:
                text += f"; worst at {self.name(int(values.argmin() if low else values.argmax()))}"
            results.append(CheckResult(suite, name, ok and all(more), text))
        return results


def one_param_battery(
    seed: int = DEFAULT_SEED, count: int = 200
) -> list[tuple[ParametricChannel, float]]:
    """Seeded random one-parameter Kraus curves with evaluation points."""
    return [(channel, float(t[0])) for channel, t in _battery_curves(seed, count, 1).points()]


def two_param_battery(
    seed: int = DEFAULT_SEED, count: int = 50
) -> list[tuple[ParametricChannel, np.ndarray]]:
    """Seeded random two-parameter Kraus curves with evaluation points."""
    return _battery_curves(seed, count, 2).points()


def _battery_curves(seed: int, count: int, param_count: int) -> _Battery:
    """The battery, each shape group decomposed in one call whose rows carry their own inputs.

    One Philox keyed by (seed, salt) draws, as arrays and in this order, each
    point's dimension, its environment size, its 8 candidate thetas and its
    input normals (real parts, then imaginary, max_dim of each; the point takes
    its first dim), then per shape group in sorted (dim, env) order the
    group's (rows, m) generator stack.  A refused candidate (a DegeneracyError
    in the group's curve) moves only its own point, to its next candidate, and
    a point with all 8 refused is dropped; no draw moves.  A group's round is
    one curve call; its kept rows are a group of their own, and the next
    round decomposes only the refused rows, at their next candidates.  No
    suite decomposes a point again.
    """
    salt, max_dim, width = _BATTERY_DRAWS[param_count]
    rng = np.random.Generator(np.random.Philox(key=np.uint64([seed, salt])))
    dims = rng.integers(2, max_dim + 1, size=count)
    envs = rng.integers(1, dims + 1)
    candidates = rng.uniform(-width, width, size=(count, 8, param_count))
    normals = rng.normal(size=(count, 2, max_dim))
    pick, own, drawn = np.zeros(count, dtype=int), {}, []  # own: point -> (generators, input)
    for dim, env in sorted(set(zip(dims.tolist(), envs.tolist()))):
        rows = np.flatnonzero((dims == dim) & (envs == env))
        gens = random_hermitian(dim * env, rng, shape=(len(rows), param_count))
        amps = normals[rows, 0, :dim] + 1j * normals[rows, 1, :dim]
        psi = amps / np.linalg.norm(amps, axis=-1, keepdims=True)
        own.update(zip(rows.tolist(), zip(gens, psi)))
        live = np.arange(len(rows))  # the group's rows whose candidate has not been decomposed
        while live.size:
            family = exponential_family(gens[live], env, "battery", _box(param_count))
            curve = spectral_curve(family, candidates[rows[live], pick[rows[live]]], psi[live])
            if faults := [r for r in curve.refusals if r and not isinstance(r, DegeneracyError)]:
                raise faults[0]  # a fault, not a bad draw
            refused = np.array([bool(refusal) for refusal in curve.refusals])
            if not refused.all():
                drawn.append((rows[live[~refused]], curve))
            pick[rows[live[refused]]] += 1
            live = live[refused & (pick[rows[live]] < 8)]
    alive = np.flatnonzero(pick < 8)  # the points not dropped, in draw order
    position = np.cumsum(pick < 8) - 1  # an alive point's index in the battery
    generators, inputs = zip(*[own[p] for p in alive.tolist()]) if alive.size else ((), ())
    rho0 = lambda psi: psi[:, :, np.newaxis] * psi.conj()[:, np.newaxis, :]
    groups = [(position[rows], curve, rho0(curve.kraus.psi)) for rows, curve in drawn]
    return _Battery(tuple(envs[alive].tolist()), tuple(candidates[alive, pick[alive]]), generators,
                    inputs, groups)


def _gap(battery: _Battery) -> list[CheckResult]:
    defects = []
    for _, curve, _ in battery.groups:
        h, c = sld_information(curve), sm_bound_spectral(curve)
        defects.append(np.abs((c - h) - bound_gap(curve)) / np.maximum(1.0, c))
    name = f"gap identity over {len(battery.thetas)} random channels"
    return battery.checks("gap", [(name, defects, False, 1e-8, "worst relative defect {:.3e}")])


def _remixed_bound(curve: SpectralCurve, rho0, gen: np.ndarray) -> np.ndarray:
    """C_E of each point's Kraus curve remixed by u(theta) = exp(-i theta g), from du E + u E'
    (u decomposed once per stack); a fixed u would leave C_E as it is."""
    ops, dops = curve.kraus.raw_operators, curve.kraus.raw_derivatives[:, 0]
    mix = lambda u, a: (u @ a.reshape(*a.shape[:-2], -1)).reshape(a.shape)
    u = unitary_exponential(curve.theta[:, :1, np.newaxis] * gen).unitary()
    return sm_bound_kraus(mix(u, ops), mix(-1j * gen @ u, ops) + mix(u, dops), rho0)


def _ordering(battery: _Battery, seed: int) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0x0F0F0F0F)))
    # each point's random POVM parts and remixing generator normals, in draw order
    draws = battery.normals(rng, lambda d, n: [(d, 2, d, d), (2, n, n)])
    h_minus_f, c_minus_h, ce_minus_h, misfits, checked = [], [], [], [], 0
    for (rows, curve, rho0), (x, g) in zip(battery.groups, draws):
        gen = g[:, 0] + 1j * g[:, 1]
        gen = (gen + adjoint(gen)) / 2 / np.sqrt(gen.shape[-1])  # as random_hermitian makes them
        h, c = sld_information(curve), sm_bound_spectral(curve)
        povm = _normalized(_povm_parts(x))
        h_minus_f.append(h - curve.fisher(povm)[:, 0, 0])
        c_minus_h.append(c - h)
        ce_minus_h.append(_remixed_bound(curve, rho0, gen) - h)
        # the SLD eigenbasis at points where no two SLD eigenvalues are within 1e-4;
        # the other points keep their random POVM, whose F is not read
        lam = sld_score(curve)
        sharp = np.min(np.diff(np.linalg.eigvalsh(lam), axis=-1), axis=-1) > 1e-4
        if sharp.any():
            povm[sharp] = optimal_povm_from_sld(lam[sharp])
        misfit = np.abs(curve.fisher(povm)[:, 0, 0] - h) / np.maximum(1.0, h)
        misfits.append(np.where(sharp, misfit, 0.0))
        checked += int(sharp.sum())
    return battery.checks("ordering", [
        (f"F <= H for random POVMs over {len(battery.thetas)} channels", h_minus_f, True, -1e-7,
         "min H - F = {:.3e}"),
        ("H <= C on the same battery", c_minus_h, True, -1e-8, "min C - H = {:.3e}"),
        ("H <= C_E for theta-dependent remixings", ce_minus_h, True, -1e-8,
         "min C_E - H = {:.3e}"),
        (f"SLD eigenbasis achieves F = H ({checked} nondegenerate cases)", misfits, False, 1e-5,
         "worst relative misfit {:.3e}"),
    ])


def _routes(battery: _Battery) -> list[CheckResult]:
    gaps, h_gaps = [], []
    for _, curve, rho0 in battery.groups:
        c_spec, h = sm_bound_spectral(curve), sld_information(curve)
        c_kraus = sm_bound_kraus(curve.kraus.operators, curve.kraus.derivatives[:, 0], rho0)
        gaps.append(np.abs(c_spec - c_kraus) / np.maximum(1.0, np.abs(c_spec)))
        h_gaps.append(np.abs(_sld_matrix_by_pinv(curve)[:, 0, 0] - h) / np.maximum(1.0, h))
    name = f"bound route agreement over {len(battery.thetas)} channels"
    return battery.checks("routes", [
        (name, gaps, False, 1e-6, "worst relative disagreement {:.3e}"),
        ("H against a pseudo-inverse SLD solve", h_gaps, False, 1e-8,
         "worst relative mismatch {:.3e}"),
    ])


def _sld_matrix_by_pinv(curve: SpectralCurve) -> np.ndarray:
    """(N, m, m) H_jl = Re tr(rho L_j L_l) from the raw Kraus stacks, sharing no code with curves.

    L_l, the pseudo-inverse solution of rho L + L rho = 2 d_l rho, is read in rho's eigenbasis W:
    one SVD of the Kraus vectors V* (rows E_k psi) gives W and p = s^2, zero-padded to d, and H_jl =
    Re sum_ab 2 conj(D_j,ab) D_l,ab / (p_a + p_b), D_l = W^dag d_l rho W, over the pairs with p_a +
    p_b > 1e-12 of the largest (rcond 1e-12); on the batteries, within 7e-13 of a 40-digit H.
    """
    ck, psi = curve.kraus, curve.kraus.psi[:, np.newaxis, :, np.newaxis]
    vs, dvs = (ck.raw_operators @ psi)[..., 0], (ck.raw_derivatives @ psi[:, np.newaxis])[..., 0]
    _, s, wh = np.linalg.svd(vs.conj())
    p = np.pad(s**2, ((0, 0), (0, vs.shape[-1] - s.shape[-1])))[:, np.newaxis]
    half = wh[:, np.newaxis] @ dvs.swapaxes(-1, -2) @ (vs.conj() @ adjoint(wh))[:, np.newaxis]
    rotated = (half + adjoint(half)).reshape(*half.shape[:2], -1)
    pair = (p + p.swapaxes(-1, -2)).reshape(len(p), 1, -1)
    weights = np.divide(2.0, pair, out=0 * pair, where=pair > 1e-12 * pair.max(-1, keepdims=True))
    return np.real((rotated.conj() * weights) @ rotated.swapaxes(-1, -2))


@dataclass(frozen=True)
class DirectionalCheck:
    """The fan's (k, k) H and C against V H V^T and V C V^T, entry by entry, per point."""

    directions: np.ndarray
    kraus_deriv_mismatch: float | None
    sld_slice: np.ndarray
    sld_quadratic: np.ndarray
    sm_slice: np.ndarray
    sm_quadratic: np.ndarray
    refusals: tuple | None = None  # a stack's, one per fan; the arrays hold the fans not refused

    @property
    def sld_mismatch(self) -> float:
        return _entry_mismatch(self.sld_slice, self.sld_quadratic)

    @property
    def sm_mismatch(self) -> float:
        return _entry_mismatch(self.sm_slice, self.sm_quadratic)

    @property
    def mismatch(self):
        """The worst of the three mismatches, per point."""
        kraus = 0.0 if self.kraus_deriv_mismatch is None else self.kraus_deriv_mismatch
        return np.maximum(np.maximum(self.sld_mismatch, self.sm_mismatch), kraus)


def _entry_mismatch(fan: np.ndarray, quadratic: np.ndarray) -> float:
    return np.max(np.abs(fan - quadratic) / np.maximum(1.0, np.abs(quadratic)), axis=(-2, -1))


def directional_reduction_check(channel, curve: SpectralCurve, directions) -> DirectionalCheck:
    """Check the fan t -> channel(theta + V^T t) along the rows of V (or one v) at t = 0.

    One curve of the fan serves every direction: its supported canonical
    partials must equal V times the curve's partials, and its H and C must
    equal V H V^T and V C V^T entry by entry, however narrow the fan.  A
    stacked Kraus-form curve takes (N, k, m) directions; its fans, of its
    channel and with its inputs, are decomposed in one call, and a refused
    fan is one of the refusals.
    """
    stacked = curve.theta.ndim == 2
    lift = (lambda a: a) if stacked else (lambda a: a[np.newaxis])
    v = lift(np.atleast_2d(np.asarray(directions, dtype=float)))
    fan = directional_channel(channel, curve.theta, v if stacked else v[0])
    psi = None if curve.kraus is None else lift(curve.kraus.psi)
    fan_curve = spectral_curve(fan, np.zeros(v.shape[:2]), psi)
    if not stacked and fan_curve.refusals[0]:
        raise fan_curve.refusals[0]
    kept = np.array([refusal is None for refusal in fan_curve.refusals])
    v, (h, c) = v[kept], (lift(a)[kept] for a in curve.information)
    kraus_mismatch = None
    if curve.kraus is not None and kept.any():
        keep = lift(curve.kraus.weights > SUPPORT_TOL)[kept, np.newaxis, :, np.newaxis, np.newaxis]
        partials, fan_partials = lift(curve.kraus.derivatives)[kept], fan_curve.kraus.derivatives
        combo = (v @ partials.reshape(*partials.shape[:2], -1)).reshape(fan_partials.shape)
        diff = np.where(keep, np.abs(fan_partials - combo), 0.0).max(axis=(2, 3, 4))
        scale = np.maximum(1.0, np.where(keep, np.abs(combo), 0.0).max(axis=(2, 3, 4)))
        kraus_mismatch = (diff / scale).max(axis=-1)
    (fan_h, fan_c), vt = fan_curve.information, v.swapaxes(-1, -2)
    check = dict(directions=v, kraus_deriv_mismatch=kraus_mismatch, sld_slice=fan_h,
                 sld_quadratic=v @ h @ vt, sm_slice=fan_c, sm_quadratic=v @ c @ vt,
                 refusals=fan_curve.refusals)  # (None,) for a point: its refused fan raised
    return DirectionalCheck(**{k: a if stacked or a is None else a[0] for k, a in check.items()})


def directional_suite(
    seed: int = DEFAULT_SEED, count: int = 50, directions: int = 20
) -> list[CheckResult]:
    """Multi-parameter Loewner ordering and slice consistency checks.

    All directions of a channel are checked on one curve of the fan along
    them, and a shape group's fans in one call (directional_reduction_check).
    A fan refused with a DegeneracyError skips all of its directions, and one refused
    otherwise fails the slice check.  A failing check names the channel and theta of its
    worst case, and a skip those of the first one.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0x3C3C3C3C)))
    battery = _battery_curves(seed, count, 2)
    draws = battery.normals(rng, lambda d, n: [(d, 2, d, d), (directions, 2)])
    slacks, diags, mismatches, skips = [], [], [], []
    for (rows, curve, rho0), (parts, v) in zip(battery.groups, draws):
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        f = curve.fisher(_normalized(_povm_parts(parts)))
        f, h, c = ((a + a.swapaxes(-1, -2)) / 2 for a in (f, *curve.information))
        slacks.append(np.min([loewner_leq(a, b)[1] for a, b in ((f, h), (h, c), (f, c))], axis=0))
        ck = curve.kraus
        c_kraus = sm_bound_kraus(np.broadcast_to(ck.operators[:, np.newaxis], ck.derivatives.shape),
                                 ck.derivatives, rho0[:, np.newaxis])
        c_gap = np.abs(c_kraus - np.diagonal(c, axis1=-2, axis2=-1)).max(axis=-1)
        h_gap = np.abs(_sld_matrix_by_pinv(curve) - h).max(axis=(-2, -1))
        diags.append(np.maximum(h_gap, c_gap))
        check = directional_reduction_check(battery.family(rows), curve, v)
        skip = [isinstance(refusal, DegeneracyError) for refusal in check.refusals]
        mismatch = np.where(skip, -np.inf, np.inf)  # a skipped fan, and any other refused one
        mismatch[[refusal is None for refusal in check.refusals]] = check.mismatch
        mismatches.append(mismatch)
        skips += [p for p, skipped in zip(rows, skip) if skipped]
    tried, skipped = len(battery.thetas) * directions, len(skips) * directions
    skip_note = (f", {skipped} of {tried} directions skipped, first at {battery.name(min(skips))}"
                 if skips else "")
    results = battery.checks("directional", [
        (f"Loewner chain F <= H <= C over {len(battery.thetas)} two-parameter channels", slacks,
         True, -1e-8, "min eigenvalue slack {:.3e}"),
        ("matrix diagonals match one-parameter slices", diags, False, 1e-8,
         "worst mismatch {:.3e} (H entries against a pseudo-inverse SLD solve, "
         "C diagonal against the Kraus route)"),
        (f"slice consistency over {directions} random directions per channel", mismatches, False,
         1e-5, "worst relative mismatch {:.3e}" + skip_note, skipped < tried),
    ])
    # The two-parameter equality family: matrix bounds coincide and the
    # attainability residual vanishes; a check of the record that refuses it fails this one.
    channel, name = example2(), "equality family: H = C as matrices with vanishing residual"
    try:
        report = bound_report(channel, spectral_curve(channel, np.array([0.6, 0.3])), None, 1e-9)
    except NumericError as exc:
        return results + [CheckResult("directional", name, False, f"refused: {exc}")]
    entry_gap = max_abs(report.channel_bound - report.sld_information)
    detail = f"max entry difference {entry_gap:.3e}, residual {report.attainability_residual:.3e}"
    passed = entry_gap < 1e-8 and report.attainable
    return results + [CheckResult("directional", name, passed, detail)]


def run_suites(names, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the named suites; the one-parameter suites share one battery and its curves."""
    picked = list(SUITES) if "all" in names else list(names)
    one_param = {"ordering", "gap", "routes"} & set(picked)
    battery = _battery_curves(seed, 200, 1) if one_param else None
    runners = {
        "ordering": lambda: _ordering(battery, seed),
        "gap": lambda: _gap(battery),
        "routes": lambda: _routes(battery),
        "directional": lambda: directional_suite(seed),
    }
    results: list[CheckResult] = []
    for name in picked:
        if name not in runners:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(runners[name]())
    return results
