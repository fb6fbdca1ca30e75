"""The benchmark's four workloads: their inputs, operations and checks.

Each workload is a fixed round of `qfi` command lines made from the seed.
An operation is one call of ``qfibounds.cli.main``; its check reads the
JSON (or text) the call printed and compares it with ``oracle``, with a
closed form, or with a property the output must have.  Rounds repeat the
same operations, so every run attempts whole rounds and the share of failed
operations does not depend on the run length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import chdtri

import oracle

PLUS = "[0.7071067811865476+0i, 0.7071067811865476+0i]"
KET1 = "[0+0i, 1+0i]"

# Relative tolerance of H, C and C_E against the oracle.  The program
# differentiates by a fourth-order stencil; on accepted points it agrees
# with the oracle to about 1e-11.
REL_TOL = 1e-6

# An input point is kept only when the smallest supported Gram weight and
# the smallest gap between supported weights clear these margins, and the
# number of supported weights is the same a little to either side.
SUPPORT_MARGIN = 1e-6
GAP_MARGIN = 1e-5
RANK_PROBE = 1e-3


@dataclass
class Op:
    """One `qfi` call: the kind it is counted under, its argv, its work units.

    check reads what a successful call printed and returns the problems found.
    """

    kind: str
    argv: list[str]
    units: int
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    primary: str           # op kind behind primary_per_s
    secondary: str         # op kind behind secondary_per_s
    final_check: Callable[[], list[str]] | None = None
    min_rounds: int = 1    # rounds every run makes at least, so each call has several samples


def rng_for(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64((seed * 0x9E3779B1 + salt) % 2**64)))


def wide_seed(rng: np.random.Generator) -> int:
    """A 63-bit seed, so derived seeds differ above the low bits."""
    return int(rng.integers(2**40, 2**63))


def write_spec(spec_dir: Path, label: str, text: str) -> str:
    path = spec_dir / f"{label}.qchan"
    path.write_text(text, encoding="utf-8")
    return str(path)


def channel_from_spec(text: str):
    """The program's family object for a spec; the oracle reads its Kraus curve."""
    from qfibounds.specfile import ChannelSpec

    return ChannelSpec.from_text(text).build()


# ---------------------------------------------------------------------------
# Reference values at one point
# ---------------------------------------------------------------------------

def state_pair(channel, theta: float):
    """Output state and its derivative at theta, from the family's own curve."""
    t = np.array([float(theta)])
    if channel.kraus_fn is not None:
        kraus = np.asarray(channel.kraus_fn(t), dtype=complex)
        dkraus = np.asarray(channel.kraus_grad_fn(t, 0), dtype=complex)
        return oracle.kraus_state(kraus, dkraus, channel.input_state.amplitudes)
    data = channel.spectral_fn(t)
    return oracle.spectral_state(data.values, data.vectors, data.value_grads[0],
                                 data.vector_grads[0])


def reference(channel, theta: float) -> dict:
    """Oracle H, C and C_E (None for spectral families) at theta."""
    t = np.array([float(theta)])
    rho, drho = state_pair(channel, theta)
    out = {"rho": rho, "drho": drho, "H": oracle.sld_information(rho, drho)}
    if channel.kraus_fn is not None:
        kraus = np.asarray(channel.kraus_fn(t), dtype=complex)
        dkraus = np.asarray(channel.kraus_grad_fn(t, 0), dtype=complex)
        psi = channel.input_state.amplitudes
        out["C"] = oracle.channel_bound_kraus(kraus, dkraus, psi)
        out["C_E"] = oracle.representation_bound(dkraus, psi)
    else:
        data = channel.spectral_fn(t)
        out["C"] = oracle.channel_bound_spectral(data.values, data.vectors,
                                                 data.value_grads[0], data.vector_grads[0])
        out["C_E"] = None
    return out


def weights(channel, theta: float) -> np.ndarray:
    """Ascending canonical weights: Gram eigenvalues, or the spectrum of a spectral family."""
    t = np.array([float(theta)])
    if channel.kraus_fn is not None:
        v = (np.asarray(channel.kraus_fn(t), dtype=complex) @ channel.input_state.amplitudes).T
        return np.linalg.eigvalsh(v.conj().T @ v)
    return np.sort(np.asarray(channel.spectral_fn(t).values, dtype=float))


def clear_of_degeneracy(channel, theta: float) -> bool:
    """The benchmark's own test that theta is far from a crossing or a rank change."""
    g = weights(channel, theta)
    supported = g[g > oracle.NULL_TOL]
    if supported.min() < SUPPORT_MARGIN or (supported.size > 1 and np.diff(supported).min() < GAP_MARGIN):
        return False
    ranks = [int(np.sum(weights(channel, x) > oracle.NULL_TOL))
             for x in (theta - RANK_PROBE, theta + RANK_PROBE)]
    return ranks == [supported.size] * 2


def draw_thetas(channel, rng, lo: float, hi: float, count: int) -> list[float] | None:
    """One seeded point clear of degeneracy in each of count equal strata of (lo, hi).

    Strata keep the spread of theta, and with it the cost of expm, the same
    from seed to seed.  None when some stratum has no clear point.
    """
    width = (hi - lo) / count
    out: list[float] = []
    for i in range(count):
        for _ in range(50):
            theta = round(lo + width * (i + float(rng.uniform(0.02, 0.98))), 6)
            if clear_of_degeneracy(channel, theta):
                out.append(theta)
                break
        else:
            return None
    return out


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def json_doc(out: str, problems: list[str]):
    """The call's JSON output, or None with the reason added to problems."""
    try:
        return json.loads(out)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


# ---------------------------------------------------------------------------
# bounds: qfi sweep and qfi report --povm optimal
# ---------------------------------------------------------------------------

# (label, spec text, theta range, closed form, attainable everywhere)
BUILTINS = [
    ("dephasing-plus", f"family = dephasing\ninput_state = {PLUS}\n", (0.05, 0.95),
     oracle.dephasing_plus, True),
    ("example1", "family = example1\n", (0.05, 0.95), oracle.example1, True),
    ("rotation-z-plus", f"family = rotation\naxis = z\ninput_state = {PLUS}\n", (-3.0, 3.0),
     oracle.rotation_z_plus, None),
    ("damping-one", f"family = amplitude-damping\ninput_state = {KET1}\n", (0.05, 0.95),
     oracle.amplitude_damping_one, None),
    ("damping-plus", "family = amplitude-damping\n", (0.05, 0.95), None, None),
    ("depolarizing", "family = depolarizing\n", (0.05, 0.95), None, None),
]

# (dim, env, sweep points, reports).  With one BLAS thread a point costs a
# few ms at d <= 4 and about 20 ms at d = env = 8; these counts give the
# d = 8 channel about half of a round's time.
RANDOM_SIZES = [
    (2, 1, 8, 2),
    (2, 2, 8, 2),
    (3, 2, 8, 2),
    (3, 5, 8, 2),
    (4, 4, 8, 2),
    (6, 3, 8, 2),
    (8, 8, 12, 3),
]
BUILTIN_POINTS = (8, 2)
SMOKE_SIZES = [(2, 2, 2, 1)]


def _check_point(row: dict, ref: dict, closed, attainable, problems: list[str], where: str):
    if "sld_information" not in row:
        problems.append(f"{where}: no result ({row.get('warnings')})")
        return
    h, c, gap = row["sld_information"], row["channel_bound"], row["gap"]
    if not close(h, ref["H"]):
        problems.append(f"{where}: H {h!r} vs oracle {ref['H']!r}")
    if not close(c, ref["C"]):
        problems.append(f"{where}: C {c!r} vs oracle {ref['C']!r}")
    if closed is not None:
        exact = closed(row["theta"])
        if not (close(h, exact) and close(c, exact)):
            problems.append(f"{where}: H {h!r}, C {c!r} vs closed form {exact!r}")
    scale = max(1.0, abs(c))
    if h > c + 1e-9 * scale:
        problems.append(f"{where}: H {h!r} above C {c!r}")
    if gap < -1e-9 * scale or abs(gap - (c - h)) > 1e-8 * scale:
        problems.append(f"{where}: gap {gap!r} vs C - H {c - h!r}")
    c_e = row.get("representation_bound")
    if ref["C_E"] is not None:
        if c_e is None or not close(c_e, ref["C_E"]):
            problems.append(f"{where}: C_E {c_e!r} vs oracle {ref['C_E']!r}")
        elif h > c_e + 1e-9 * max(1.0, c_e):
            problems.append(f"{where}: H {h!r} above C_E {c_e!r}")
    if attainable is not None and row["attainability"]["attainable"] is not attainable:
        problems.append(f"{where}: attainable is {row['attainability']['attainable']}")


def _sweep_check(channel, thetas, closed, attainable):
    refs = [reference(channel, t) for t in thetas]

    def check(out: str) -> list[str]:
        problems: list[str] = []
        doc = json_doc(out, problems)
        if doc is None:
            return problems
        rows = doc["points"]
        if [r["theta"] for r in rows] != thetas:
            return [f"sweep {channel.name}: thetas {[r['theta'] for r in rows]}"]
        for row, ref in zip(rows, refs):
            _check_point(row, ref, closed, attainable, problems, f"sweep {channel.name}@{row['theta']}")
        return problems

    return check


def _report_check(channel, theta, closed, attainable):
    ref = reference(channel, theta)
    lam = oracle.sld(ref["rho"], ref["drho"])
    eigs = np.linalg.eigvalsh(lam)
    nondegenerate = bool(np.min(np.diff(eigs)) > 1e-3 * max(1.0, float(np.max(np.abs(eigs)))))

    def check(out: str) -> list[str]:
        problems: list[str] = []
        doc = json_doc(out, problems)
        if doc is None:
            return problems
        row = doc["result"]
        where = f"report {channel.name}@{theta}"
        _check_point(row, ref, closed, attainable, problems, where)
        f, h = row.get("fisher_information"), row.get("sld_information")
        if f is None or h is None:
            problems.append(f"{where}: no Fisher information ({row.get('warnings')})")
            return problems
        if f > h + 1e-7 * max(1.0, h):
            problems.append(f"{where}: F {f!r} above H {h!r}")
        if nondegenerate and not close(f, h, 1e-5):
            problems.append(f"{where}: SLD-eigenbasis F {f!r} differs from H {h!r}")
        return problems

    return check


def bounds_workload(seed: int, spec_dir: Path, smoke: bool = False) -> Workload:
    rng = rng_for(seed, 1)
    sweeps: list[Op] = []
    reports: list[Op] = []
    entries = [] if smoke else [(label, lambda text=text: text, span, closed, attainable, BUILTIN_POINTS)
                                for label, text, span, closed, attainable in BUILTINS]
    for dim, env, n_sweep, n_report in SMOKE_SIZES if smoke else RANDOM_SIZES:
        entries.append((
            f"random-kraus-{dim}x{env}",
            lambda dim=dim, env=env: f"family = random-kraus\ndim = {dim}\nenv = {env}\nseed = {wide_seed(rng)}\n",
            (-0.9, 0.9), None, None, (n_sweep, n_report),
        ))
    for label, make_text, (lo, hi), closed, attainable, (n_sweep, n_report) in entries:
        # A random channel without a clear point in every stratum is replaced.
        for _ in range(20):
            text = make_text()
            channel = channel_from_spec(text)
            thetas = draw_thetas(channel, rng, lo, hi, n_sweep)
            if thetas is not None:
                break
        else:
            raise RuntimeError(f"no {label} channel with clear points in every stratum")
        path = write_spec(spec_dir, label, text)
        grid = ",".join(repr(t) for t in thetas)
        sweeps.append(Op("sweep", ["sweep", path, f"--theta-grid={grid}"], len(thetas),
                         _sweep_check(channel, thetas, closed, attainable)))
        for theta in rng.choice(thetas, size=n_report, replace=False):
            theta = float(theta)
            reports.append(Op("report", ["report", path, f"--theta={theta!r}", "--povm", "optimal"],
                              1, _report_check(channel, theta, closed, attainable)))
    if not smoke:
        # Amplitude damping on |+> is not attainable at theta = 0.5.
        text = dict((e[0], e[1]) for e in BUILTINS)["damping-plus"]
        channel = channel_from_spec(text)
        path = write_spec(spec_dir, "damping-plus", text)
        reports.append(Op("report", ["report", path, "--theta=0.5", "--povm", "optimal"], 1,
                          _report_check(channel, 0.5, None, False)))
    return Workload(sweeps + reports, "sweep", "report")


# ---------------------------------------------------------------------------
# estimate: qfi estimate with the optimal POVM and with --adaptive
# ---------------------------------------------------------------------------

SHOTS = 10_000
PILOT = 500
REPS = 24
SMOKE_REPS = 8
# Windows hold with probability 1 - 2e-7 for a normal MLE at the Cramer-Rao
# variance; the factors allow for the finite-N excess of the grid MLE and,
# for the adaptive scheme, for a stage-two POVM fitted to a pilot estimate.
VARIANCE_QUANTILE = 1e-7
FIXED_SLACK = (0.85, 1.3)
ADAPTIVE_SLACK = (0.85, 2.2)
BIAS_STANDARD_ERRORS = 5.0

ESTIMATE_CHANNELS = [
    ("damping-plus", "family = amplitude-damping\n", (0.15, 0.6)),
    ("dephasing-plus", f"family = dephasing\ninput_state = {PLUS}\n", (0.15, 0.6)),
]


# An estimation point is kept only when the benchmark's own model of the
# experiment says the estimate is well posed: outcome distributions at
# thetas more than ALIAS_DISTANCE away are distinguishable from the true
# one (shots * KL >= DISTINGUISHABLE), and every stage-two POVM the pilot
# cannot rule out keeps at least POVM_EFFICIENCY of H.
ALIAS_DISTANCE = 0.1
DISTINGUISHABLE = 25.0
POVM_EFFICIENCY = 0.5
SCAN_POINTS = 201
PIVOT_REACH = 0.02
PIVOT_SUPPORT_MARGIN = 1e-4


def _povm_from_sld(channel, theta: float) -> np.ndarray:
    _, vectors = np.linalg.eigh(oracle.sld(*state_pair(channel, theta)))
    return np.einsum("im,jm->mij", vectors, vectors.conj())


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) of one distribution p against each row of q."""
    keep = p > 1e-15
    return np.sum(p[keep] * np.log(p[keep] / np.clip(q[:, keep], 1e-300, None)), axis=1)


def estimable(channel, theta: float) -> bool:
    """Whether both the fixed and the adaptive experiment at theta are well posed."""
    lo, hi = channel.domain[0]
    grid = np.linspace(lo + 1e-3, hi - 1e-3, SCAN_POINTS)
    rhos = np.array([state_pair(channel, t)[0] for t in grid])
    rho, drho = state_pair(channel, theta)
    far = np.abs(grid - theta) > ALIAS_DISTANCE

    def outcome_probs(states: np.ndarray, povm: np.ndarray) -> np.ndarray:
        return np.clip(np.real(np.einsum("gij,mji->gm", states, povm)), 0.0, None)

    def identifiable(povm: np.ndarray, shots: int) -> bool:
        p_true = outcome_probs(rho[None], povm)[0]
        return bool(np.all(shots * _kl(p_true, outcome_probs(rhos[far], povm)) >= DISTINGUISHABLE))

    if not identifiable(_povm_from_sld(channel, theta), SHOTS):
        return False
    # The pilot measures in the computational basis.
    pilot = np.einsum("im,jm->mij", np.eye(channel.dim), np.eye(channel.dim))
    p_true = outcome_probs(rho[None], pilot)[0]
    plausible = grid[PILOT * _kl(p_true, outcome_probs(rhos, pilot)) < DISTINGUISHABLE]
    # The program refuses a pivot near a rank change (exit 3 for the whole
    # experiment), so the pivots the pilot can reach must stay clear of one.
    reach = (grid >= plausible.min() - PIVOT_REACH) & (grid <= plausible.max() + PIVOT_REACH)
    ranks = set()
    for pivot in np.linspace(grid[reach][0], grid[reach][-1], 1 + int(np.ptp(grid[reach]) / 2e-3)):
        g = weights(channel, float(pivot))
        supported = g[g > oracle.NULL_TOL]
        if supported.min() < PIVOT_SUPPORT_MARGIN:
            return False
        ranks.add(supported.size)
    if len(ranks) > 1:
        return False
    h = oracle.sld_information(rho, drho)
    for pivot in plausible[:: max(1, len(plausible) // 24)]:
        povm = _povm_from_sld(channel, float(pivot))
        if oracle.fisher_information(rho, drho, povm) < POVM_EFFICIENCY * h:
            return False
        if not identifiable(povm, SHOTS - PILOT):
            return False
    return True


def variance_window(reps: int, slack: tuple[float, float]) -> tuple[float, float]:
    # chdtri(dof, p) is the chi-square quantile with upper tail p.  It comes
    # from scipy.special, which the program loads anyway; scipy.stats would
    # add about 20 MB to the measured peak memory.
    dof = reps - 1
    lo = chdtri(dof, 1.0 - VARIANCE_QUANTILE) / dof
    hi = chdtri(dof, VARIANCE_QUANTILE) / dof
    return lo * slack[0], hi * slack[1]


def _estimate_check(channel, theta, reps, adaptive):
    ref = reference(channel, theta)
    shots = SHOTS - PILOT if adaptive else SHOTS
    window = variance_window(reps, ADAPTIVE_SLACK if adaptive else FIXED_SLACK)

    def check(out: str) -> list[str]:
        problems: list[str] = []
        doc = json_doc(out, problems)
        if doc is None:
            return problems
        run = doc["experiment"]
        where = f"estimate{' --adaptive' if adaptive else ''} {channel.name}@{theta}"
        if sum(run["counts"]) != shots or run["shots"] != shots:
            problems.append(f"{where}: counts sum to {sum(run['counts'])}, shots {run['shots']}")
        for stage in run["stages"]:
            if sum(stage["counts"]) != stage["shots"]:
                problems.append(f"{where}: stage {stage['povm_id']} counts do not sum to its shots")
        if len(run["theta_hats"]) != reps:
            problems.append(f"{where}: {len(run['theta_hats'])} estimates for {reps} replications")
        floors = run["predicted_bounds"]
        c_floor, h_floor, f_floor = floors["channel_bound"], floors["sld"], floors["fisher"]
        if not close(h_floor, 1.0 / (shots * ref["H"])) or not close(c_floor, 1.0 / (shots * ref["C"])):
            problems.append(f"{where}: floors {floors} vs oracle H {ref['H']!r}, C {ref['C']!r}")
        if f_floor is None or not (c_floor <= h_floor * (1 + 1e-9) and h_floor <= f_floor * (1 + 1e-7)):
            problems.append(f"{where}: floors out of order {floors}")
        estimates = np.asarray(run["theta_hats"])
        variance = float(np.var(estimates, ddof=1))
        if not close(variance, run["empirical_variance"], 1e-9):
            problems.append(f"{where}: variance {run['empirical_variance']!r} vs {variance!r}")
        floor = h_floor if adaptive else f_floor
        ratio = variance / floor
        if not window[0] <= ratio <= window[1]:
            problems.append(f"{where}: variance ratio {ratio:.3f} outside {window}")
        bias = float(np.mean(estimates) - theta)
        if abs(bias - run["bias"]) > 1e-12 or abs(bias) > BIAS_STANDARD_ERRORS * np.sqrt(variance / reps):
            problems.append(f"{where}: bias {bias!r} beyond {BIAS_STANDARD_ERRORS} standard errors")
        return problems

    return check


def _estimation_point(rng, make_text, lo: float, hi: float):
    """A channel and a theta at which both experiments are well posed, drawn from rng."""
    for _ in range(20):
        text = make_text()
        channel = channel_from_spec(text)
        for _ in range(10):
            theta = round(float(rng.uniform(lo, hi)), 6)
            if clear_of_degeneracy(channel, theta) and estimable(channel, theta):
                return text, channel, theta
    raise RuntimeError(f"no well-posed estimation point for {channel.name}")


def estimate_workload(seed: int, spec_dir: Path, smoke: bool = False) -> Workload:
    rng = rng_for(seed, 2)
    reps = SMOKE_REPS if smoke else REPS
    entries = [(label, lambda text=text: text, span) for label, text, span in ESTIMATE_CHANNELS]
    entries.append(("random-kraus-4x2",
                    lambda: f"family = random-kraus\ndim = 4\nenv = 2\nseed = {wide_seed(rng)}\n",
                    (-0.8, 0.8)))
    if smoke:
        entries = entries[:1]
    fixed: list[Op] = []
    adaptive: list[Op] = []
    for label, make_text, (lo, hi) in entries:
        text, channel, theta = _estimation_point(rng, make_text, lo, hi)
        path = write_spec(spec_dir, label, text)
        common = [path, f"--theta-true={theta!r}", "--shots", str(SHOTS), "--reps", str(reps)]
        fixed.append(Op("fixed", ["estimate", *common, "--seed", str(wide_seed(rng))], reps,
                        _estimate_check(channel, theta, reps, False)))
        adaptive.append(Op("adaptive", ["estimate", *common, "--seed", str(wide_seed(rng)),
                                        "--adaptive", "--n-pilot", str(PILOT)], reps,
                           _estimate_check(channel, theta, reps, True)))
    return Workload(fixed + adaptive, "fixed", "adaptive")


# ---------------------------------------------------------------------------
# optimize-input: qfi optimize-input --objective sld | channel-bound
# ---------------------------------------------------------------------------

OPT_THETA = 0.3
# One Nelder-Mead start either converges in about 250 evaluations or runs to
# its 4000-iteration cap (about 16,000 evaluations); which one depends on
# the start, and 12 of 30 seeded starts ran to the cap on this channel.  The
# program inputs are therefore fixed: this start converges for the sld
# objective and runs to the cap for channel-bound, so every run does the
# same work and carries one capped search per round.  The seed draws the
# random inputs the results are checked against.
OPT_SEED = 0
SLD_REPEATS = 16
RANDOM_INPUTS = 64


def _optimize_check(channel, objective, theta, rng):
    samples = oracle.random_pure_states(2, RANDOM_INPUTS, rng)

    def value_at(psi: np.ndarray) -> float:
        ch = channel.with_input_state(type(channel.input_state)(psi))
        ref = reference(ch, theta)
        return ref["H"] if objective == "sld" else ref["C"]

    def check(out: str) -> list[str]:
        problems: list[str] = []
        doc = json_doc(out, problems)
        if doc is None:
            return problems
        where = f"optimize-input {objective} {channel.name}@{theta}"
        psi = np.array([z["re"] + 1j * z["im"] for z in doc["optimal_input"]])
        value = doc["value"]
        at_result = value_at(psi / np.linalg.norm(psi))
        if not close(value, at_result, 1e-7):
            problems.append(f"{where}: value {value!r} vs oracle {at_result!r} at the returned input")
        best_sample = max(value_at(s) for s in samples)
        if value < best_sample - 1e-9 * max(1.0, best_sample):
            problems.append(f"{where}: value {value!r} below a random input's {best_sample!r}")
        at_one = value_at(np.array([0.0, 1.0], dtype=complex))
        if objective == "sld" and not close(at_one, oracle.amplitude_damping_one(theta)):
            problems.append(f"{where}: oracle H at |1> {at_one!r} vs closed form")
        if value < at_one - 1e-9 * max(1.0, at_one):
            problems.append(f"{where}: value {value!r} below the value {at_one!r} at |1>")
        return problems

    return check


def optimize_workload(seed: int, spec_dir: Path, smoke: bool = False) -> Workload:
    rng = rng_for(seed, 3)
    text = "family = amplitude-damping\n"
    channel = channel_from_spec(text)
    path = write_spec(spec_dir, "damping-plus", text)
    # A smoke run uses a start that converges for both objectives.
    opt_seed = 1 if smoke else OPT_SEED
    common = [path, f"--theta={OPT_THETA!r}", "--restarts", "1", "--seed", str(opt_seed)]
    sld = Op("sld", ["optimize-input", *common, "--objective", "sld"], 1,
             _optimize_check(channel, "sld", OPT_THETA, rng))
    bound = Op("channel-bound", ["optimize-input", *common, "--objective", "channel-bound"], 1,
               _optimize_check(channel, "channel-bound", OPT_THETA, rng))
    return Workload([sld] * (1 if smoke else SLD_REPEATS) + [bound],
                    "sld", "channel-bound")


# ---------------------------------------------------------------------------
# verify: qfi verify --suite gap and --suite all
# ---------------------------------------------------------------------------

BATTERY_SAMPLE = 12
GAP_REPEATS = 2
# The program's own default battery seed.  Other battery seeds can fail a
# check (see README.md), and a seeded battery also changes the work done;
# the benchmark seed picks which battery channels the oracle compares.
VERIFY_SEED = 20260809


def _verify_check(out: str) -> list[str]:
    lines = out.strip().splitlines()
    problems = []
    if not lines or lines[-1] != "all checks passed":
        problems.append(f"verify output ends with {lines[-1] if lines else None!r}")
    if any(not line.startswith("PASS ") for line in lines[:-1]):
        problems.append("verify printed a failing check")
    return problems


def _battery_check(verify_seed: int, rng, sample: int):
    """The oracle against the program's H and C on battery channels."""

    def check() -> list[str]:
        from qfibounds.bounds import sld_information, sm_bound_spectral, spectral_curve
        from qfibounds.verify import one_param_battery

        problems = []
        battery = one_param_battery(verify_seed)
        compared = 0
        for index in rng.permutation(len(battery)):
            channel, theta = battery[int(index)]
            if not clear_of_degeneracy(channel, theta):
                continue
            curve = spectral_curve(channel, theta)
            ref = reference(channel, theta)
            h, c = sld_information(curve), sm_bound_spectral(curve)
            if not (close(h, ref["H"]) and close(c, ref["C"])):
                problems.append(f"battery {channel.name}@{theta}: H {h!r}, C {c!r} vs oracle "
                                f"{ref['H']!r}, {ref['C']!r}")
            compared += 1
            if compared == sample:
                break
        if compared < sample:
            problems.append(f"only {compared} battery channels clear of degeneracy")
        return problems

    return check


def verify_workload(seed: int, spec_dir: Path, smoke: bool = False) -> Workload:
    rng = rng_for(seed, 4)
    gap = Op("gap", ["verify", "--suite", "gap", "--seed", str(VERIFY_SEED)], 1, _verify_check)
    suite_all = Op("all", ["verify", "--suite", "all", "--seed", str(VERIFY_SEED)], 1, _verify_check)
    ops = [gap] if smoke else [gap] * GAP_REPEATS + [suite_all]
    return Workload(ops, ops[-1].kind, "gap", min_rounds=1 if smoke else 3,
                    final_check=_battery_check(VERIFY_SEED, rng, 2 if smoke else BATTERY_SAMPLE))


WORKLOADS = {
    "bounds": bounds_workload,
    "estimate": estimate_workload,
    "optimize-input": optimize_workload,
    "verify": verify_workload,
}
