"""Randomized property suites.

Seeded batteries of random channels exercising the ordering chain
F <= H <= C (and H <= C_E for remixed representations), the gap identity,
the agreement of the Kraus and spectral routes to the channel bound, and the
directional reduction of the multi-parameter matrices to the fan of slices
along many directions.  A battery's points of one shape (dim, Kraus count)
are one channel whose row i carries point i's generators
(channels.exponential_family), so a group and its fans are each evaluated
and decomposed in one stacked call, and a failing check names its worst
point.  Shared by `qfi verify` and the acceptance tests; `gap_suite`,
`ordering_suite`, `routes_suite`, `one_param_battery` and
`two_param_battery` are test seams, called only by the tests and `bench/`.
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
    random_kraus_draw,
    random_pure_state,
)
from .errors import DegeneracyError, NumericError
from .linalg import adjoint, hermitian_eigendecompose, loewner_leq, max_abs, unitary_exponential
from .multiparam import (
    directional_reduction_check,
    multi_attainability_check,
    sld_matrix,
    sm_matrix,
)
from .quantum import POVM

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


def _povm_parts(dim: int, rng: np.random.Generator) -> np.ndarray:
    """dim random PSD parts x x^dag, drawn in one call."""
    x = rng.normal(size=(dim, 2, dim, dim))
    parts = x[:, 0] + 1j * x[:, 1]
    return parts @ adjoint(parts)


def _normalized(parts: np.ndarray) -> np.ndarray:
    """POVM elements T^-1/2 P T^-1/2 of parts P with total T, for one set or a stack of sets."""
    sys = hermitian_eigendecompose(sum(np.moveaxis(parts, -3, 0)))
    w = sys.eigenvectors
    inv_root = (w / np.sqrt(sys.eigenvalues)[..., np.newaxis, :]) @ adjoint(w)
    return inv_root[..., np.newaxis, :, :] @ parts @ inv_root[..., np.newaxis, :, :]


def random_povm(dim: int, rng: np.random.Generator) -> POVM:
    """Random informationally nontrivial POVM of dim normalized random PSD parts."""
    return POVM(_normalized(_povm_parts(dim, rng)))


@dataclass(frozen=True)
class _Battery:
    """Points (channel, theta) and generators in draw order; per shape group rows, curve, rho0."""

    points: list
    generators: list
    groups: list

    def family(self, rows) -> ParametricChannel:
        """One channel for the points at rows, all of one shape: its row i is point rows[i]'s."""
        channel, gens = self.points[rows[0]][0], np.array([self.generators[p] for p in rows])
        return exponential_family(gens, gens.shape[-1] // channel.dim, "battery", channel.domain)

    def name(self, position: int) -> str:
        channel, theta = self.points[position]
        return f"{channel.name} theta {theta.tolist()}"

    def values(self, per_group) -> np.ndarray:  # one value per point, in draw order
        values = np.empty(len(self.points))
        for (rows, *_), group_values in zip(self.groups, per_group):
            values[rows] = group_values
        return values

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
    return [(channel, float(theta[0])) for channel, theta in _battery_curves(seed, count, 1).points]


def two_param_battery(
    seed: int = DEFAULT_SEED, count: int = 50
) -> list[tuple[ParametricChannel, np.ndarray]]:
    """Seeded random two-parameter Kraus curves with evaluation points."""
    return _battery_curves(seed, count, 2).points


def _battery_curves(seed: int, count: int, param_count: int) -> _Battery:
    """The battery, each shape group decomposed in one call whose rows carry their own inputs.

    A point-by-point builder redraws a refused theta at once (8 draws at
    most, then drops the channel), which moves every later draw.  Each round
    here draws again, passing over the thetas known to be refused, and splits
    a refusing group in halves (bounds.halving); a round with no new refusal
    is that builder's battery.  The curves carry their decompositions, so no
    suite decomposes a point again.
    """
    salt, max_dim, width = _BATTERY_DRAWS[param_count]
    refused: set = set()  # (channel name, theta bytes) of every refused point met
    while True:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ salt)))
        # (channel, theta) and generators in draw order; positions per (dim, Kraus count)
        drawn, generators, shapes = [], [], {}
        for _ in range(count):
            dim = int(rng.integers(2, max_dim + 1))
            env = int(rng.integers(1, dim + 1))
            channel, gens = random_kraus_draw(dim, env, param_count, int(rng.integers(0, 2**63)),
                                              input_state=random_pure_state(dim, rng))
            for _ in range(8):
                theta = rng.uniform(-width, width, size=param_count)
                if (channel.name, theta.tobytes()) not in refused:
                    shapes.setdefault((dim, env), []).append(len(drawn))
                    drawn.append((channel, theta))
                    generators.append(gens)
                    break
        known, groups, battery = len(refused), [], _Battery(drawn, generators, [])
        for rows in shapes.values():
            thetas = np.array([drawn[p][1] for p in rows])
            psi = np.array([drawn[p][0].input_state.amplitudes for p in rows])
            # each row's entry is the curve of the stack that kept it, or its own refusal
            stack = lambda index: spectral_curve(battery.family(np.array(rows)[index]),
                                                 thetas[index], psi[index])
            curves = halving(lambda index: [stack(index)] * len(index), len(rows), DegeneracyError)
            refused |= {(drawn[p][0].name, drawn[p][1].tobytes()) for p, curve in zip(rows, curves)
                        if isinstance(curve, DegeneracyError)}
            groups.append((rows, curves[0]))
        if len(refused) == known:
            rho0 = lambda psi: psi[:, :, np.newaxis] * psi.conj()[:, np.newaxis, :]
            return _Battery(drawn, generators,
                            [(rows, curve, rho0(curve.kraus.psi)) for rows, curve in groups])


def gap_suite(seed: int = DEFAULT_SEED, count: int = 200) -> list[CheckResult]:
    """Gap formula equals C - H on every battery channel."""
    return _gap(_battery_curves(seed, count, 1))


def _gap(battery: _Battery) -> list[CheckResult]:
    defects = []
    for _, curve, _ in battery.groups:
        h, c = sld_information(curve), sm_bound_spectral(curve)
        defects.append(np.abs((c - h) - bound_gap(curve)) / np.maximum(1.0, c))
    name = f"gap identity over {len(battery.points)} random channels"
    return battery.checks("gap", [(name, defects, False, 1e-8, "worst relative defect {:.3e}")])


def ordering_suite(seed: int = DEFAULT_SEED, count: int = 200) -> list[CheckResult]:
    """F <= H <= C, H <= C_E under remixing, and F = H for the SLD eigenbasis."""
    return _ordering(_battery_curves(seed, count, 1), seed)


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
    # each point's random POVM, fixed remixing and remixing generator, in draw order; the
    # fixed remixings are drawn as random_unitary's normals and made unitary per group
    n = {p: curve.kraus.operators.shape[1] for rows, curve, *_ in battery.groups for p in rows}
    normal = lambda k: rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    draws = [
        (_povm_parts(channel.dim, rng), normal(n[p]), random_hermitian(n[p], rng))
        for p, (channel, _) in enumerate(battery.points)
    ]
    h_minus_f, c_minus_h, ce_minus_h, misfits, checked = [], [], [], [], 0
    for rows, curve, rho0 in battery.groups:
        parts, normals, gen = (np.array(a) for a in zip(*(draws[p] for p in rows)))
        fixed = haar_unitary(normals)
        h, c = sld_information(curve), sm_bound_spectral(curve)
        povm = _normalized(parts)
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
        (f"F <= H for random POVMs over {len(battery.points)} channels", h_minus_f, True, -1e-7,
         "min H - F = {:.3e}"),
        ("H <= C on the same battery", c_minus_h, True, -1e-8, "min C - H = {:.3e}"),
        ("H <= C_E for fixed and theta-dependent remixings", ce_minus_h, True, -1e-8,
         "min C_E - H = {:.3e}"),
        (f"SLD eigenbasis achieves F = H ({checked} nondegenerate cases)", misfits, False, 1e-5,
         "worst relative misfit {:.3e}"),
    ])


def routes_suite(seed: int = DEFAULT_SEED, count: int = 200) -> list[CheckResult]:
    """Channel bound from canonical Kraus derivatives vs from the spectral curve."""
    return _routes(_battery_curves(seed, count, 1))


def _routes(battery: _Battery) -> list[CheckResult]:
    gaps = []
    for _, curve, rho0 in battery.groups:
        c_spec = sm_bound_spectral(curve)
        c_kraus = sm_bound_kraus(curve.kraus.operators, curve.kraus.derivatives[:, 0], rho0)
        gaps.append(np.abs(c_spec - c_kraus) / np.maximum(1.0, np.abs(c_spec)))
    name = f"bound route agreement over {len(battery.points)} channels"
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
    draws = [(_povm_parts(c.dim, rng), rng.normal(size=(directions, 2))) for c, _ in battery.points]
    slacks, diags, mismatches, skips = [], [], [], []
    for rows, curve, rho0 in battery.groups:
        parts, v = (np.array(a) for a in zip(*(draws[p] for p in rows)))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        curve.sld_score  # building the score stack checks H
        f = curve.fisher(_normalized(parts))
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
    tried, skipped = len(battery.points) * directions, len(skips) * directions
    skip_note = (f", {skipped} of {tried} directions skipped, first at {battery.name(min(skips))}"
                 if skips else "")
    results = battery.checks("directional", [
        (f"Loewner chain F <= H <= C over {len(battery.points)} two-parameter channels", slacks,
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
