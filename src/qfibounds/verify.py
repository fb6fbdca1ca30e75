"""Randomized property suites.

Seeded batteries of random channels exercising the ordering chain
F <= H <= C (and H <= C_E for remixed representations), the gap identity,
the agreement of the Kraus and spectral routes to the channel bound, and the
directional reduction of the multi-parameter matrices to the fan of slices
along many directions.  A battery holds each point's family seed, env,
theta, generators (random_kraus_channel's for that seed) and input, not
channels.  Its points of one shape (dim, Kraus count) are one channel whose
row i carries point i's generators (channels.exponential_family), so a
group and its fans are each evaluated and decomposed in one stacked call,
and a failing check names its worst point.  Shared by `qfi verify` and the
acceptance tests, which run a suite through `run_suites`;
`one_param_battery`, `two_param_battery` and `random_povm` are test seams,
called only by the tests and `bench/`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    SpectralCurve,
    bound_gap,
    halving,
    sld_information,
    sld_score,
    sm_bound_kraus,
    sm_bound_spectral,
    spectral_curve,
)
from .channels import (
    ParametricChannel,
    example2,
    exponential_family,
    haar_unitary,
    random_hermitian,
    random_kraus_channel,
)
from .errors import DegeneracyError, NumericError
from .linalg import adjoint, hermitian_eigendecompose, loewner_leq, max_abs, unitary_exponential
from .multiparam import (
    directional_reduction_check,
    multi_attainability_check,
    sld_matrix,
    sm_matrix,
)
from .quantum import POVM, PureState

DEFAULT_SEED = 20260809
SUITES = ("ordering", "gap", "routes", "directional")
# param_count -> (Philox key salt, largest dimension, theta half-width)
_BATTERY_DRAWS = {1: (0, 4, 0.6), 2: (0xA5A5A5A5, 3, 0.5)}


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
    """Per point in draw order its family seed, env, theta, generators and input; per group
    its rows, curve and rho0."""

    seeds: tuple
    envs: tuple
    thetas: tuple
    generators: tuple
    inputs: tuple
    groups: list

    def points(self) -> list:
        """(channel, theta) in draw order, each point's channel its own random-kraus channel."""
        return [(random_kraus_channel(len(psi), env, len(t), seed, input_state=PureState(psi)), t)
                for seed, env, t, psi in zip(self.seeds, self.envs, self.thetas, self.inputs)]

    def family(self, rows) -> ParametricChannel:
        """One channel for the points at rows, all of one shape: its row i is point rows[i]'s."""
        gens = np.array([self.generators[p] for p in rows])
        box = tuple((-1.0, 1.0) for _ in range(gens.shape[-3]))  # random_kraus_channel's domain
        return exponential_family(gens, self.envs[rows[0]], "battery", box)

    def name(self, position: int) -> str:
        return f"random-kraus-{self.seeds[position]} theta {self.thetas[position].tolist()}"

    def values(self, per_group) -> np.ndarray:  # one value per point, in draw order
        values = np.empty(len(self.seeds))
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

    A point's generators are random_kraus_channel's for its family seed.  A
    point-by-point builder redraws a refused theta at once (8 draws at most,
    then drops the channel), which moves every later draw.  Each round here
    draws again, passing over the thetas known to be refused, and splits a
    refusing group in halves (bounds.halving); a round with no new refusal is
    that builder's battery.  No suite decomposes a point again.
    """
    salt, max_dim, width = _BATTERY_DRAWS[param_count]
    bits = np.random.Philox(0)  # re-keyed per point: a new Philox first reads OS entropy
    keyed, fresh = np.random.Generator(bits), bits.state
    refused: set = set()  # (family seed, theta bytes) of every refused point met
    while True:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ salt)))
        drawn, shapes = [], {}  # (seed, env, theta, generators, input); positions per (dim, env)
        for _ in range(count):
            dim = int(rng.integers(2, max_dim + 1))
            env = int(rng.integers(1, dim + 1))
            key = int(rng.integers(0, 2**63))
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)  # random_pure_state's draw
            bits.state = {**fresh, "state": {**fresh["state"], "key": np.uint64([key, 0])}}
            gens = random_hermitian(dim * env, keyed, shape=(param_count,))  # random-kraus's draw
            for _ in range(8):
                theta = rng.uniform(-width, width, size=param_count)
                if (key, theta.tobytes()) not in refused:
                    shapes.setdefault((dim, env), []).append(len(drawn))
                    drawn.append((key, env, theta, gens, amps / np.linalg.norm(amps)))
                    break
        battery = _Battery(*(list(zip(*drawn)) or [()] * 5), [])  # five columns, even if empty
        known, groups = len(refused), []
        for rows in shapes.values():
            thetas = np.array([battery.thetas[p] for p in rows])
            psi = np.array([battery.inputs[p] for p in rows])
            # each row's entry is the curve of the stack that kept it, or its own refusal
            stack = lambda index: spectral_curve(battery.family(np.array(rows)[index]),
                                                 thetas[index], psi[index])
            curves = halving(lambda index: [stack(index)] * len(index), len(rows), DegeneracyError)
            refused |= {(battery.seeds[p], battery.thetas[p].tobytes())
                        for p, curve in zip(rows, curves) if isinstance(curve, DegeneracyError)}
            groups.append((rows, curves[0]))
        if len(refused) == known:
            rho0 = lambda psi: psi[:, :, np.newaxis] * psi.conj()[:, np.newaxis, :]
            battery.groups.extend((rows, curve, rho0(curve.kraus.psi)) for rows, curve in groups)
            return battery


def _gap(battery: _Battery) -> list[CheckResult]:
    defects = []
    for _, curve, _ in battery.groups:
        h, c = sld_information(curve), sm_bound_spectral(curve)
        defects.append(np.abs((c - h) - bound_gap(curve)) / np.maximum(1.0, c))
    name = f"gap identity over {len(battery.seeds)} random channels"
    return battery.checks("gap", [(name, defects, False, 1e-8, "worst relative defect {:.3e}")])


def _remixed_bounds(curve: SpectralCurve, rho0, fixed: np.ndarray, gen: np.ndarray) -> list:
    """C_E of each point's Kraus curve remixed by its fixed u and by u(theta) = exp(-i theta g):
    the partials du E + u E' of the family's own E, with u(theta) decomposed once per stack."""
    ops, dops = curve.kraus.raw_operators, curve.kraus.raw_derivatives[:, 0]
    mix = lambda u, a: (u @ a.reshape(*a.shape[:-2], -1)).reshape(a.shape)
    moving = unitary_exponential(curve.theta[:, :1, np.newaxis] * gen).unitary()
    return [
        sm_bound_kraus(mix(u, ops), mix(du, ops) + mix(u, dops), rho0)
        for u, du in ((fixed, np.zeros_like(fixed)), (moving, -1j * gen @ moving))
    ]


def _ordering(battery: _Battery, seed: int) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0x0F0F0F0F)))
    # each point's random POVM parts, fixed-remixing normals and remixing generator, in draw
    # order; per group the POVMs are normalized and the remixings made unitary (haar_unitary)
    draws = battery.normals(rng, lambda d, n: [(d, 2, d, d), (2, n, n), (2, n, n)])
    h_minus_f, c_minus_h, ce_minus_h, misfits, checked = [], [], [], [], 0
    for (rows, curve, rho0), (x, normals, g) in zip(battery.groups, draws):
        fixed = haar_unitary(normals[:, 0] + 1j * normals[:, 1])
        gen = g[:, 0] + 1j * g[:, 1]
        gen = (gen + adjoint(gen)) / 2 / np.sqrt(gen.shape[-1])  # as random_hermitian makes them
        h, c = sld_information(curve), sm_bound_spectral(curve)
        povm = _normalized(_povm_parts(x))
        h_minus_f.append(h - curve.fisher(povm)[:, 0, 0])
        c_minus_h.append(c - h)
        ce_minus_h.append(np.minimum(*_remixed_bounds(curve, rho0, fixed, gen)) - h)
        # the SLD eigenbasis at points where no two SLD eigenvalues are within 1e-4;
        # the other points keep their random POVM, whose F is not read
        lam = sld_score(curve)
        sharp = np.min(np.diff(np.linalg.eigvalsh(lam), axis=-1), axis=-1) > 1e-4
        if sharp.any():
            columns = hermitian_eigendecompose(lam[sharp]).eigenvectors.swapaxes(-1, -2)
            povm[sharp] = columns[..., np.newaxis] @ adjoint(columns[..., np.newaxis])
        misfit = np.abs(curve.fisher(povm)[:, 0, 0] - h) / np.maximum(1.0, h)
        misfits.append(np.where(sharp, misfit, 0.0))
        checked += int(sharp.sum())
    return battery.checks("ordering", [
        (f"F <= H for random POVMs over {len(battery.seeds)} channels", h_minus_f, True, -1e-7,
         "min H - F = {:.3e}"),
        ("H <= C on the same battery", c_minus_h, True, -1e-8, "min C - H = {:.3e}"),
        ("H <= C_E for fixed and theta-dependent remixings", ce_minus_h, True, -1e-8,
         "min C_E - H = {:.3e}"),
        (f"SLD eigenbasis achieves F = H ({checked} nondegenerate cases)", misfits, False, 1e-5,
         "worst relative misfit {:.3e}"),
    ])


def _routes(battery: _Battery) -> list[CheckResult]:
    gaps = []
    for _, curve, rho0 in battery.groups:
        c_spec = sm_bound_spectral(curve)
        c_kraus = sm_bound_kraus(curve.kraus.operators, curve.kraus.derivatives[:, 0], rho0)
        gaps.append(np.abs(c_spec - c_kraus) / np.maximum(1.0, np.abs(c_spec)))
    name = f"bound route agreement over {len(battery.seeds)} channels"
    detail = "worst relative disagreement {:.3e}"
    return battery.checks("routes", [(name, gaps, False, 1e-6, detail)])


def _sld_matrix_by_pinv(curve: SpectralCurve) -> np.ndarray:
    """(N, m, m) H_jl = Re tr(rho L_j L_l) from the raw Kraus stacks, sharing no code with curves.

    rho and d_l rho come from the family's own operators and partials on each
    point's input psi, and each L_l solves rho L + L rho = 2 d_l rho by pseudo-inverse.
    """
    ck, psi = curve.kraus, curve.kraus.psi
    vs = (ck.raw_operators @ psi[:, np.newaxis, :, np.newaxis])[..., 0]
    dvs = (ck.raw_derivatives @ psi[:, np.newaxis, np.newaxis, :, np.newaxis])[..., 0]
    rho = vs.swapaxes(-1, -2) @ vs.conj()
    half = dvs.swapaxes(-1, -2) @ vs.conj()[:, np.newaxis]
    drho = half + adjoint(half)
    count, m, d = drho.shape[:3]
    lyapunov = np.kron(rho, np.eye(d)) + np.kron(np.eye(d), rho.swapaxes(-1, -2))  # row-major vec
    solve = np.linalg.pinv(lyapunov, rcond=1e-12)
    scores = (2 * drho.reshape(count, m, -1) @ solve.swapaxes(-1, -2)).reshape(drho.shape)
    return np.real(np.einsum("...ij,...ljk,...nki->...ln", rho, scores, scores))


def directional_suite(
    seed: int = DEFAULT_SEED, count: int = 50, directions: int = 20
) -> list[CheckResult]:
    """Multi-parameter Loewner ordering and slice consistency checks.

    All directions of a channel are checked on one curve of the fan along
    them, and a shape group's fans in one call, halved where it refuses
    (multiparam.directional_reduction_check, bounds.halving); a fan that
    cannot be decomposed skips all of its directions.  A failing check names
    the channel and theta of its worst case, and a skip those of the first one.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0x3C3C3C3C)))
    battery = _battery_curves(seed, count, 2)
    draws = battery.normals(rng, lambda d, n: [(d, 2, d, d), (directions, 2)])
    slacks, diags, mismatches, skips = [], [], [], []
    for (rows, curve, rho0), (parts, v) in zip(battery.groups, draws):
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        curve.sld_score  # building the score stack checks H
        f = curve.fisher(_normalized(_povm_parts(parts)))
        f, h, c = ((a + a.swapaxes(-1, -2)) / 2 for a in (f, *curve.information))
        slacks.append(np.min([loewner_leq(a, b)[1] for a, b in ((f, h), (h, c), (f, c))], axis=0))
        ck = curve.kraus
        c_kraus = sm_bound_kraus(np.broadcast_to(ck.operators[:, np.newaxis], ck.derivatives.shape),
                                 ck.derivatives, rho0[:, np.newaxis])
        c_gap = np.abs(c_kraus - np.diagonal(c, axis1=-2, axis2=-1)).max(axis=-1)
        h_gap = np.abs(_sld_matrix_by_pinv(curve) - h).max(axis=(-2, -1))
        diags.append(np.maximum(h_gap, c_gap))

        def check(index):  # the whole group reads its battery curve
            family = battery.family(np.array(rows)[index])
            stack = curve if len(index) == len(rows) else spectral_curve(
                family, curve.theta[index], curve.kraus.psi[index])
            return directional_reduction_check(family, stack, v[index]).mismatch
        entries = halving(check, len(rows))
        skips += [p for p, entry in zip(rows, entries) if isinstance(entry, NumericError)]
        mismatches.append(np.array([-np.inf if p in skips else e for p, e in zip(rows, entries)]))
    tried, skipped = len(battery.seeds) * directions, len(skips) * directions
    skip_note = (f", {skipped} of {tried} directions skipped, first at {battery.name(min(skips))}"
                 if skips else "")
    results = battery.checks("directional", [
        (f"Loewner chain F <= H <= C over {len(battery.seeds)} two-parameter channels", slacks,
         True, -1e-8, "min eigenvalue slack {:.3e}"),
        ("matrix diagonals match one-parameter slices", diags, False, 1e-8,
         "worst mismatch {:.3e} (H entries against a pseudo-inverse SLD solve, "
         "C diagonal against the Kraus route)"),
        (f"slice consistency over {directions} random directions per channel", mismatches, False,
         1e-5, "worst relative mismatch {:.3e}" + skip_note, skipped < tried),
    ])
    # The two-parameter equality family: matrix bounds coincide and the
    # attainability residual vanishes.
    curve = spectral_curve(example2(), np.array([0.6, 0.3]))
    entry_gap = max_abs(sm_matrix(curve).entries - sld_matrix(curve).entries)
    att = multi_attainability_check(curve, tol=1e-9)
    name = "equality family: H = C as matrices with vanishing residual"
    detail = f"max entry difference {entry_gap:.3e}, residual {att.residual:.3e}"
    return results + [CheckResult("directional", name, entry_gap < 1e-8 and att.attainable, detail)]


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
