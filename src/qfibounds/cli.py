"""Command-line surface.

    qfi report SPEC --theta 0.2 [--povm optimal] [--tol 1e-6]
    qfi sweep SPEC --theta-grid 0.1:0.9:9 [--tol 1e-6] [--format csv]
    qfi estimate SPEC --theta-true 0.2 --shots 10000 --reps 200
        [--povm optimal | --adaptive [--n-pilot 500]]
    qfi optimize-input SPEC --theta 0.3 --objective sld
    qfi verify --suite all

`report` and `sweep` print one bounds.bound_report record through one JSON
view, reporting.report_dict: a point's for any number of parameters, a
sweep's stacked record as one row per point.

Exit codes: 0 success, 2 validation error, 3 numeric failure
(degeneracy / singular terms / non-finite output), 4 verification-suite
failure.  The seed falls back to the QFI_SEED environment variable, then 0;
for `verify`, then the default battery seed.  A seed outside [0, 2**64)
exits 2.  The only numeric option is the verdict tolerance --tol of
`report` and `sweep`, which must be finite and positive (else exit 2); the
finite-difference policy (central-4, step 1e-4) is fixed, and only a
one-parameter crossing, where it runs, keeps its reach from a domain edge.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import reporting
from .bounds import bound_report, optimal_povm_from_sld, sld_score, spectral_curve
from .channels import ParametricChannel
from .errors import NumericError, ValidationError
from .estimation import (
    adaptive_experiment,
    cr_experiment,
    optimize_input_state,
)
from .quantum import POVM, computational_basis_povm, pauli_basis_povm
from .specfile import ChannelSpec
from .verify import DEFAULT_SEED, SUITES, run_suites

POVM_CHOICES = ("optimal", "computational", "x-basis", "y-basis")


@cache  # built once per process: building costs 20 times what parsing does
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfi",
        description="Information bounds and estimation experiments for parametric quantum channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="bounds and attainability at one point")
    p.add_argument("spec", type=Path, help="channel spec file")
    p.add_argument("--tol", type=float, default=1e-6, help="verdict tolerance")
    p.add_argument("--theta", type=float, nargs="+", required=True)
    p.add_argument("--povm", choices=POVM_CHOICES)

    p = sub.add_parser("sweep", help="bounds over a parameter grid")
    p.add_argument("spec", type=Path, help="channel spec file")
    p.add_argument("--tol", type=float, default=1e-6, help="verdict tolerance")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--theta-grid",
        required=True,
        help="grid as start:stop:count or a comma-separated list",
    )

    p = sub.add_parser("estimate", help="seeded Monte-Carlo estimation experiment")
    p.add_argument("spec", type=Path, help="channel spec file")
    p.add_argument("--theta-true", type=float, required=True)
    p.add_argument("--shots", "-N", type=int, default=10000)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--povm", choices=POVM_CHOICES, help="a fixed run's POVM (default optimal)")
    mode.add_argument("--adaptive", action="store_true", help="two-stage adaptive measurement")
    p.add_argument("--n-pilot", type=int, help="an adaptive run's pilot shots (default 500)")

    p = sub.add_parser("optimize-input", help="maximize H or the channel bound over inputs")
    p.add_argument("spec", type=Path, help="channel spec file")
    p.add_argument("--theta", type=float, nargs="+", required=True)
    p.add_argument("--objective", choices=("sld", "channel-bound"), default="sld")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _seed_of(args, default: int = 0) -> int:
    """--seed, else QFI_SEED, else default; anything but an integer in [0, 2**64) is refused."""
    given = args.seed if args.seed is not None else os.environ.get("QFI_SEED", default)
    if not (str(given).strip().isdecimal() and int(given) < 2**64):
        where = "--seed" if args.seed is not None else "QFI_SEED"
        raise ValidationError(f"{where} {given!r} is not an integer in [0, 2**64)")
    return int(given)


def _tol_of(args) -> float:
    """--tol, refused unless finite and positive: every verdict is `residual < tol`."""
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ValidationError(f"--tol {args.tol!r} is not a finite positive number")
    return args.tol


def _load_spec(path: Path) -> tuple[ChannelSpec, ParametricChannel]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read spec file {path}: {exc}") from None
    spec = ChannelSpec.from_text(text)
    return spec, spec.build()


def _resolve_povm(name: str | None, channel, curve=None) -> tuple[POVM | None, str | None]:
    """The named POVM and its id; "optimal" reads the SLD score of the point's curve."""
    if name is None:
        return None, None
    if name == "computational":
        return computational_basis_povm(channel.dim), name
    if name in ("x-basis", "y-basis"):
        if channel.dim != 2:
            raise ValidationError(f"{name} POVM is only defined for qubit channels")
        return pauli_basis_povm(name[0]), name
    if curve is None:
        raise ValidationError(
            "the optimal POVM comes from a single SLD score; pick a named basis "
            "for multi-parameter channels"
        )
    return optimal_povm_from_sld(sld_score(curve)), f"sld-optimal@{curve.theta[0]:.6g}"


def _channel_block(spec: ChannelSpec, channel) -> dict:
    return {
        "name": channel.name,
        "family": spec.family,
        "dim": channel.dim,
        "param_count": channel.param_count,
        "domain": channel.domain,
        "spec": spec.source,
    }


def cmd_report(args) -> int:
    tol = _tol_of(args)
    spec, channel = _load_spec(args.spec)
    theta = args.theta if len(args.theta) > 1 else args.theta[0]
    channel.require_in_domain(theta)
    one_param = channel.param_count == 1
    # a named basis, or the refusal of an optimal one for several parameters,
    # comes before the point is decomposed
    named = (args.povm != "optimal" or not one_param) and _resolve_povm(args.povm, channel)
    curve = spectral_curve(channel, theta)
    povm, povm_id = named or _resolve_povm(args.povm, channel, curve)
    doc = {
        "tool": reporting.TOOL,
        "channel": _channel_block(spec, channel),
        "config": {"tol": tol},
        "result": reporting.report_dict(bound_report(channel, curve, povm, tol), povm_id),
    }
    sys.stdout.write(reporting.to_json(doc))
    return 0


def _grid_number(token: str, kind=float):
    try:
        return kind(token)
    except ValueError:
        raise ValidationError(f"grid token {token!r} is not a valid {kind.__name__}") from None


def _parse_grid(text: str) -> np.ndarray:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid {text!r} must be start:stop:count")
        start, stop = _grid_number(parts[0]), _grid_number(parts[1])
        count = _grid_number(parts[2], int)
        if count < 1:
            raise ValidationError("grid count must be positive")
        return np.linspace(start, stop, count)
    values = [_grid_number(tok) for tok in text.split(",") if tok.strip()]
    return np.array(values or [_grid_number(text)])  # no value: the whole text is the bad token


def cmd_sweep(args) -> int:
    tol = _tol_of(args)
    spec, channel = _load_spec(args.spec)
    if channel.param_count != 1:
        raise ValidationError("sweep handles one-parameter channels")
    grid = _parse_grid(args.theta_grid)
    # one stacked curve for the whole grid; a refused point's row is its refusal, as a warning
    curve = spectral_curve(channel, channel.require_in_domain(grid[:, np.newaxis]))
    reports = iter(reporting.report_dict(bound_report(channel, curve, None, tol)))
    rows = [{"theta": float(theta), "warnings": [str(refusal)]} if refusal else next(reports)
            for theta, refusal in zip(grid, curve.refusals)]
    if args.format == "csv":
        sys.stdout.write(reporting.sweep_csv(rows))
        return 0
    doc = {
        "tool": reporting.TOOL,
        "channel": _channel_block(spec, channel),
        "config": {"tol": tol},
        "points": rows,
    }
    sys.stdout.write(reporting.to_json(doc))
    return 0


def cmd_estimate(args) -> int:
    if args.n_pilot is not None and not args.adaptive:
        raise ValidationError("--n-pilot applies only to an --adaptive run")
    spec, channel = _load_spec(args.spec)
    if channel.param_count != 1:
        raise ValidationError("estimation handles one-parameter channels")
    seed = _seed_of(args)
    channel.require_in_domain(args.theta_true)
    povm_name = args.povm or "optimal"  # None for an adaptive run, which needs the curve too
    # built before any sampling, so that a refused theta_true fails first
    curve = spectral_curve(channel, args.theta_true) if povm_name == "optimal" else None
    if args.adaptive:
        n_pilot = 500 if args.n_pilot is None else args.n_pilot
        run = adaptive_experiment(
            channel, args.theta_true, args.shots, n_pilot, args.reps, seed, curve
        )
    else:
        povm, povm_id = _resolve_povm(povm_name, channel, curve)
        run = cr_experiment(
            channel, args.theta_true, povm, args.shots, args.reps, seed, povm_id, curve=curve
        )
    doc = {
        "tool": reporting.TOOL,
        "channel": _channel_block(spec, channel),
        "experiment": run,
    }
    sys.stdout.write(reporting.to_json(doc))
    return 0


def cmd_optimize_input(args) -> int:
    spec, channel = _load_spec(args.spec)
    theta = args.theta if len(args.theta) > 1 else args.theta[0]
    result = optimize_input_state(
        channel, theta, args.objective, restarts=args.restarts, seed=_seed_of(args)
    )
    doc = {
        "tool": reporting.TOOL,
        "channel": _channel_block(spec, channel),
        "objective": args.objective,
        "theta": args.theta,
        "optimal_input": result.state.amplitudes,
        "value": result.value,
    }
    if result.ancilla_bound is not None:
        doc["ancilla_bound"] = result.ancilla_bound
        doc["certified"] = result.certified
    sys.stdout.write(reporting.to_json(doc))
    return 0


def cmd_verify(args) -> int:
    results = run_suites([args.suite], seed=_seed_of(args, DEFAULT_SEED))
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        doc = {
            "tool": reporting.TOOL,
            "checks": results,
            "passed": not failed,
        }
        sys.stdout.write(reporting.to_json(doc))
    else:
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"{flag} [{r.suite}] {r.name}: {r.detail}\n")
        sys.stdout.write(
            f"{'all checks passed' if not failed else f'{len(failed)} check(s) failed'}\n"
        )
    return 0 if not failed else 4


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "report": cmd_report,
        "sweep": cmd_sweep,
        "estimate": cmd_estimate,
        "optimize-input": cmd_optimize_input,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
