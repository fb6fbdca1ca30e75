"""Randomized property suites.

Seeded batteries of random channels exercising the ordering chain
F <= H <= C (and H <= C_E for remixed representations), the gap identity,
the agreement of the Kraus and spectral routes to the channel bound, and the
directional reduction of the multi-parameter matrices to the fan of slices
along many directions.
Shared by `qfi verify` and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    CanonicalKraus,
    bound_gap,
    fisher_information,
    optimal_povm_from_sld,
    sld_information,
    sld_score,
    sm_bound_kraus,
    sm_bound_spectral,
    spectral_curve,
)
from .channels import (
    ParametricChannel,
    example2,
    kraus_derivative,
    last_point_cache,
    random_hermitian,
    random_kraus_channel,
    random_pure_state,
    random_unitary,
    remix_channel,
)
from .errors import DegeneracyError, NumericError
from .linalg import hermitian_eigendecompose, max_abs, unitary_exponential
from .multiparam import (
    directional_reduction_check,
    fisher_matrix,
    loewner_report,
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


def random_povm(dim: int, rng: np.random.Generator) -> POVM:
    """Random informationally nontrivial POVM of dim normalized random PSD parts."""
    parts = []
    for _ in range(dim):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        parts.append(x @ x.conj().T)
    total = sum(parts)
    sys = hermitian_eigendecompose(total)
    inv_root = (sys.eigenvectors / np.sqrt(sys.eigenvalues)) @ sys.eigenvectors.conj().T
    return POVM(np.array([inv_root @ p @ inv_root for p in parts]))


def one_param_battery(
    seed: int = DEFAULT_SEED, count: int = 200
) -> list[tuple[ParametricChannel, float]]:
    """Seeded random one-parameter Kraus curves with evaluation points."""
    return [(channel, float(theta[0])) for channel, theta, _ in _battery_curves(seed, count, 1)]


def two_param_battery(
    seed: int = DEFAULT_SEED, count: int = 50
) -> list[tuple[ParametricChannel, np.ndarray]]:
    """Seeded random two-parameter Kraus curves with evaluation points."""
    return [(channel, theta) for channel, theta, _ in _battery_curves(seed, count, 2)]


def _battery_curves(seed: int, count: int, param_count: int) -> list:
    """(channel, theta, spectral curve) per battery point; the screening curve is kept.

    The curve carries its canonical decomposition, so the suites that read
    it decompose no point again.
    """
    salt, max_dim, width = _BATTERY_DRAWS[param_count]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ salt)))
    battery = []
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        env = int(rng.integers(1, dim + 1))
        channel = random_kraus_channel(
            dim=dim,
            env=env,
            param_count=param_count,
            seed=int(rng.integers(0, 2**63)),
            input_state=random_pure_state(dim, rng),
        )
        for _ in range(8):
            theta = rng.uniform(-width, width, size=param_count)
            try:
                battery.append((channel, theta, spectral_curve(channel, theta)))
                break
            except DegeneracyError:
                continue
    return battery


def gap_suite(seed: int = DEFAULT_SEED, count: int = 200) -> list[CheckResult]:
    """Gap formula equals C - H on every battery channel."""
    return _gap(_battery_curves(seed, count, 1))


def _gap(points) -> list[CheckResult]:
    worst = 0.0
    for _, _, curve in points:
        h = sld_information(curve)
        c = sm_bound_spectral(curve)
        worst = max(worst, abs((c - h) - bound_gap(curve)) / max(1.0, c))
    return [
        CheckResult(
            "gap",
            f"gap identity over {len(points)} random channels",
            worst < 1e-8,
            f"worst relative defect {worst:.3e}",
        )
    ]


def ordering_suite(seed: int = DEFAULT_SEED, count: int = 200) -> list[CheckResult]:
    """F <= H <= C, H <= C_E under remixing, and F = H for the SLD eigenbasis."""
    return _ordering(_battery_curves(seed, count, 1), seed)


def _exponential_mixing(g: np.ndarray):
    """The remixing exp(-i t g) and its derivative -i g exp(-i t g), as (mix, dmix).

    Both come from one decomposition of t g, kept for the last t asked for:
    the remixed stack and its derivative are asked for at the same t.  Both
    broadcast over a stack of points.
    """

    @last_point_cache
    def at(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = unitary_exponential(t[..., :1, np.newaxis] * g).unitary()
        return u, -1j * g @ u

    return (lambda t: at(t)[0]), (lambda t, i: at(t)[1])


def _ordering(points, seed: int) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0x0F0F0F0F)))
    worst_fh = worst_hc = worst_hce = np.inf
    worst_opt = 0.0
    optimal_checked = 0
    for channel, theta, curve in points:
        h = sld_information(curve)
        c = sm_bound_spectral(curve)
        povm = random_povm(channel.dim, rng)
        f = fisher_information(curve, povm)
        worst_fh = min(worst_fh, h - f)
        worst_hc = min(worst_hc, c - h)

        n_ops = curve.kraus.operators.shape[0]
        rho0 = channel.input_state.density()
        fixed = random_unitary(n_ops, rng)
        gen = random_hermitian(n_ops, rng)
        for label, mix, dmix in (
            ("fixed", lambda t, u=fixed: u, lambda t, i: np.zeros_like(fixed)),
            ("curve", *_exponential_mixing(gen)),
        ):
            remixed = remix_channel(channel, mix, dmix, name=f"{channel.name}-{label}")
            ce = sm_bound_kraus(
                remixed.kraus_matrices(theta),
                kraus_derivative(remixed, theta, 0),
                rho0,
            )
            worst_hce = min(worst_hce, ce - h)

        lam = sld_score(curve)
        eigs = np.linalg.eigvalsh(lam)
        if len(eigs) < 2 or float(np.min(np.diff(eigs))) > 1e-4:
            f_opt = fisher_information(curve, optimal_povm_from_sld(lam))
            worst_opt = max(worst_opt, abs(f_opt - h) / max(1.0, h))
            optimal_checked += 1
    return [
        CheckResult(
            "ordering",
            f"F <= H for random POVMs over {len(points)} channels",
            worst_fh > -1e-7,
            f"min H - F = {worst_fh:.3e}",
        ),
        CheckResult(
            "ordering",
            "H <= C on the same battery",
            worst_hc > -1e-8,
            f"min C - H = {worst_hc:.3e}",
        ),
        CheckResult(
            "ordering",
            "H <= C_E for fixed and theta-dependent remixings",
            worst_hce > -1e-8,
            f"min C_E - H = {worst_hce:.3e}",
        ),
        CheckResult(
            "ordering",
            f"SLD eigenbasis achieves F = H ({optimal_checked} nondegenerate cases)",
            worst_opt < 1e-5,
            f"worst relative misfit {worst_opt:.3e}",
        ),
    ]


def routes_suite(seed: int = DEFAULT_SEED, count: int = 200) -> list[CheckResult]:
    """Channel bound from canonical Kraus derivatives vs from the spectral curve."""
    return _routes(_battery_curves(seed, count, 1))


def _routes(points) -> list[CheckResult]:
    worst = 0.0
    for channel, _, curve in points:
        ck = curve.kraus
        c_spec = sm_bound_spectral(curve)
        c_kraus = sm_bound_kraus(ck.operators, ck.derivatives[0], channel.input_state.density())
        worst = max(worst, abs(c_spec - c_kraus) / max(1.0, abs(c_spec)))
    return [
        CheckResult(
            "routes",
            f"bound route agreement over {len(points)} channels",
            worst < 1e-6,
            f"worst relative disagreement {worst:.3e}",
        )
    ]


def _sld_matrix_by_pinv(ck: CanonicalKraus, psi: np.ndarray) -> np.ndarray:
    """(m, m) H_jl = Re tr(rho L_j L_l) from the raw Kraus stack, sharing no code with the curve.

    rho and d_l rho come from the family's own operators and partials, and
    each L_l is the pseudo-inverse solution of rho L + L rho = 2 d_l rho.
    """
    vs = ck.raw_operators @ psi
    dvs = ck.raw_derivatives @ psi
    rho = vs.T @ vs.conj()
    half = np.swapaxes(dvs, 1, 2) @ vs.conj()
    drho = half + np.conj(np.swapaxes(half, 1, 2))
    d = rho.shape[0]
    lyapunov = np.kron(rho, np.eye(d)) + np.kron(np.eye(d), rho.T)  # row-major vec
    solve = np.linalg.pinv(lyapunov, rcond=1e-12)
    scores = (2 * drho.reshape(len(drho), -1) @ solve.T).reshape(drho.shape)
    return np.real(np.einsum("ij,ljk,nki->ln", rho, scores, scores))


def directional_suite(
    seed: int = DEFAULT_SEED, count: int = 50, directions: int = 20
) -> list[CheckResult]:
    """Multi-parameter Loewner ordering and slice consistency checks.

    All directions of a channel are checked at once, on one curve of the fan
    along them (multiparam.directional_reduction_check); a fan that cannot be
    decomposed skips all of its directions.  A failing check names the
    channel and theta of its worst case, and a skip those of the first one.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0x3C3C3C3C)))
    battery = _battery_curves(seed, count, 2)
    slacks, diags, mismatches, skips = [], [], [], []
    for channel, theta, curve in battery:
        point = f"{channel.name} theta {theta.tolist()}"
        h, c = sld_matrix(curve), sm_matrix(curve)
        rep = loewner_report(fisher_matrix(curve, random_povm(channel.dim, rng)), h, c)
        verdicts = (rep.fisher_le_sld, rep.sld_le_sm, rep.fisher_le_sm)
        slacks.append((min(verdict.min_eigenvalue for verdict in verdicts), point))
        ck, state = curve.kraus, channel.input_state
        c_kraus = [sm_bound_kraus(ck.operators, d, state.density()) for d in ck.derivatives]
        h_gap = max_abs(_sld_matrix_by_pinv(ck, state.amplitudes) - h.entries)
        diags.append((max(h_gap, max_abs(c_kraus - np.diag(c.entries))), point))
        v = rng.normal(size=(directions, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        try:
            check = directional_reduction_check(channel, curve, v)
        except (DegeneracyError, NumericError):
            skips.append(point)
            continue
        mismatch = max(check.sld_mismatch, check.sm_mismatch, check.kraus_deriv_mismatch)
        mismatches.append((mismatch, point))
    slack, slack_at = min(slacks, default=(np.inf, ""))
    diag, diag_at = max(diags, default=(0.0, ""))
    mismatch, mismatch_at = max(mismatches, default=(0.0, ""))
    tried, skipped = len(battery) * directions, len(skips) * directions
    skip_note = f", {skipped} of {tried} directions skipped, first at {skips[0]}" if skips else ""
    checks = [
        (
            f"Loewner chain F <= H <= C over {len(battery)} two-parameter channels",
            slack > -1e-8,
            f"min eigenvalue slack {slack:.3e}",
            slack_at,
        ),
        (
            "matrix diagonals match one-parameter slices",
            diag < 1e-8,
            f"worst mismatch {diag:.3e} (H entries against a pseudo-inverse SLD solve, "
            "C diagonal against the Kraus route)",
            diag_at,
        ),
        (
            f"slice consistency over {directions} random directions per channel",
            mismatch < 1e-5 and skipped < tried,
            f"worst relative mismatch {mismatch:.3e}{skip_note}",
            mismatch_at,
        ),
    ]
    results = [
        CheckResult(
            "directional", name, ok, detail if ok or not at else f"{detail}; worst at {at}"
        )
        for name, ok, detail, at in checks
    ]
    # The two-parameter equality family: matrix bounds coincide and the
    # attainability residual vanishes.
    ch = example2()
    theta = np.array([0.6, 0.3])
    curve = spectral_curve(ch, theta)
    h = sld_matrix(curve)
    c = sm_matrix(curve)
    att = multi_attainability_check(curve, tol=1e-9)
    entry_gap = max_abs(c.entries - h.entries)
    results.append(
        CheckResult(
            "directional",
            "equality family: H = C as matrices with vanishing residual",
            entry_gap < 1e-8 and att.attainable,
            f"max entry difference {entry_gap:.3e}, residual {att.residual:.3e}",
        )
    )
    return results


def run_suites(names, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the named suites; the one-parameter suites share one battery and its curves."""
    picked = list(SUITES) if "all" in names else list(names)
    one_param = {"ordering", "gap", "routes"} & set(picked)
    points = _battery_curves(seed, 200, 1) if one_param else None
    runners = {
        "ordering": lambda: _ordering(points, seed),
        "gap": lambda: _gap(points),
        "routes": lambda: _routes(points),
        "directional": lambda: directional_suite(seed),
    }
    results: list[CheckResult] = []
    for name in picked:
        if name not in runners:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(runners[name]())
    return results
