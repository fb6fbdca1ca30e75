"""Channel-spec file format.

A flat key/value document, one `key = value` pair per line, `#` comments.
Values are bare words, numbers, complex numbers in `a+bi` form, lists
`[x, y, ...]`, or domain boxes `[a, b]`, `[a, b] x 2`, `[a1, b1] [a2, b2]`.
A built-in family's keys are its constructor's keyword options, each typed
by its default.  Unknown and duplicate keys are rejected with their line number.

Example::

    family = dephasing
    theta_domain = [0.01, 0.99]
    input_state = [0.7071067811865476+0i, 0.7071067811865476+0i]

Custom channels are spectral-form only, with fixed orthonormal eigenvectors
and eigenvalues affine in theta::

    family = custom-spectral
    theta_domain = [0.05, 0.95]
    eigenvector_1 = [0.7071067811865476+0i, 0.7071067811865476+0i]
    eigenvector_2 = [0.7071067811865476+0i, -0.7071067811865476+0i]
    eigenvalue_1 = [1.0, -1.0]
    eigenvalue_2 = [0.0, 1.0]

where `eigenvalue_k = [c0, c1, ..., cm]` means p_k = c0 + c1 th1 + ... .
Arbitrary theta-dependent operator curves cannot be expressed safely in a
data file; register a family in code instead.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from dataclasses import dataclass
from functools import cache

import numpy as np

from .channels import BUILTIN_FAMILIES, ParametricChannel, builtin, custom_spectral
from .errors import SpecFormatError, ValidationError
from .quantum import CONSTRUCT_SUM_TOL, PureState, diagnose_kraus

_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")


def parse_complex(token: str, line: int | None = None) -> complex:
    """Parse `a+bi` / `a-bi` / `bi` / `a` into a complex number."""
    s = token.strip().replace(" ", "")
    if not s:
        raise SpecFormatError("empty complex literal", line)
    try:
        if s.endswith("i"):
            body = s[:-1]
            for i in range(len(body) - 1, 0, -1):
                if body[i] in "+-" and body[i - 1] not in "eE":
                    return complex(float(body[:i]), float(body[i:]))
            if body in ("", "+"):
                return 1j
            if body == "-":
                return -1j
            return complex(0.0, float(body))
        return complex(float(s), 0.0)
    except ValueError:
        raise SpecFormatError(f"bad complex literal {token!r}", line) from None


def _parse_list(value: str, line: int):
    m = _BRACKET_RE.fullmatch(value.strip())
    if not m:
        raise SpecFormatError(f"expected a [..] list, got {value!r}", line)
    inner = m.group(1).strip()
    if not inner:
        return []
    return [parse_complex(tok, line) for tok in inner.split(",")]


def _parse_domain(value: str, line: int) -> tuple[tuple[float, float], ...]:
    s = value.strip()
    repeat = 1
    rep = re.search(r"\bx\s*(\d+)\s*$", s)
    if rep:
        repeat = int(rep.group(1))
        s = s[: rep.start()].strip()
    groups = _BRACKET_RE.findall(s)
    if not groups or _BRACKET_RE.sub("", s).strip():
        raise SpecFormatError(f"bad domain {value!r}", line)
    intervals = []
    for g in groups:
        parts = [p.strip() for p in g.split(",")]
        if len(parts) != 2:
            raise SpecFormatError(f"domain interval needs two endpoints, got [{g}]", line)
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            message = f"theta_domain endpoints must be numbers, got [{g}]"
            raise SpecFormatError(message, line) from None
        if not lo < hi:
            raise SpecFormatError(f"empty domain interval [{lo}, {hi}]", line)
        intervals.append((lo, hi))
    if repeat > 1:
        if len(intervals) != 1:
            raise SpecFormatError("`x n` repetition needs exactly one interval", line)
        intervals = intervals * repeat
    return tuple(intervals)


@cache  # a signature costs about 40 us, five times the rest of a parse
def _parameters(factory):
    """A built-in family's options: the keyword arguments of its constructor."""
    return inspect.signature(factory).parameters


def _option(key: str, value: str, default, line: int):
    """A family option typed by its constructor's default: a word, a number or a real list."""
    if isinstance(default, str):
        return value.lower()
    if isinstance(default, (int, float)):
        try:
            return type(default)(value)
        except ValueError:
            kind = "an integer" if isinstance(default, int) else "a number"
            raise SpecFormatError(f"key {key!r} needs {kind}", line) from None
    items = _parse_list(value, line)  # a coefficient list
    if any(abs(z.imag) > 0 for z in items):
        raise SpecFormatError(f"key {key!r} must be real-valued", line)
    return tuple(z.real for z in items)


@dataclass(frozen=True)
class ChannelSpec:
    """Parsed channel-spec document."""

    family: str
    name: str
    options: dict
    domain: tuple[tuple[float, float], ...] | None
    input_state: tuple[complex, ...] | None
    source: str

    @classmethod
    def from_text(cls, text: str) -> "ChannelSpec":
        entries: dict[str, tuple[str, int]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise SpecFormatError(f"expected `key = value`, got {raw.strip()!r}", lineno)
            key, value = (part.strip() for part in stripped.split("=", 1))
            key = key.lower()
            if key in entries:
                raise SpecFormatError(f"duplicate key {key!r}", lineno)
            entries[key] = (value, lineno)
        if "family" not in entries:
            raise SpecFormatError("missing required key `family`")
        family = entries.pop("family")[0].lower().replace("_", "-")
        if family != "custom-spectral" and family not in BUILTIN_FAMILIES:
            known = ", ".join(sorted(BUILTIN_FAMILIES) + ["custom-spectral"])
            raise SpecFormatError(f"unknown family {family!r}; known: {known}")

        name = family
        if "name" in entries:
            name = entries.pop("name")[0]
        domain = None
        if "theta_domain" in entries:
            value, lineno = entries.pop("theta_domain")
            domain = _parse_domain(value, lineno)
        params = {} if family == "custom-spectral" else _parameters(BUILTIN_FAMILIES[family])
        input_state = None
        if "input_state" in entries:
            value, lineno = entries.pop("input_state")
            if "input_state" not in params:
                raise SpecFormatError(
                    f"family {family!r} does not take an input state", lineno
                )
            input_state = tuple(_parse_list(value, lineno))

        options: dict = {}
        for key, (value, lineno) in entries.items():
            if family == "custom-spectral" and re.fullmatch(r"(eigenvector|eigenvalue)_\d+", key):
                options[key] = _parse_list(value, lineno)
                continue
            if key not in params or key == "domain":  # the domain is theta_domain
                raise SpecFormatError(
                    f"unknown key {key!r} for family {family!r}", lineno
                )
            options[key] = _option(key, value, params[key].default, lineno)
        return cls(family, name, options, domain, input_state, text)

    def build(self) -> ParametricChannel:
        """Construct and validate the channel this spec describes."""
        if self.family == "custom-spectral":
            channel = self._build_custom()
        else:
            options = dict(self.options)
            if self.domain is not None and "domain" in _parameters(BUILTIN_FAMILIES[self.family]):
                options["domain"] = self.domain
            if self.input_state is not None:
                options["input_state"] = PureState(np.array(self.input_state))
            channel = builtin(self.family, **options)
            if self.domain is not None and len(self.domain) != channel.param_count:
                raise ValidationError(
                    f"theta_domain has {len(self.domain)} interval(s); family "
                    f"{self.family!r} has {channel.param_count} parameter(s)"
                )
        domain = self.domain or channel.domain
        channel = dataclasses.replace(channel, name=self.name, domain=domain)
        _validate_over_domain(channel)
        return channel

    def _build_custom(self) -> ParametricChannel:
        if self.domain is None:
            raise SpecFormatError("custom-spectral requires theta_domain")
        indices = sorted(
            int(k.split("_")[1]) for k in self.options if k.startswith("eigenvector_")
        )
        if not indices or indices != list(range(1, len(indices) + 1)):
            raise SpecFormatError("need eigenvector_1..eigenvector_r without gaps")
        vectors, coeff_rows = [], []
        m = len(self.domain)
        for k in indices:
            if f"eigenvalue_{k}" not in self.options:
                raise SpecFormatError(f"missing eigenvalue_{k}")
            vectors.append(self.options[f"eigenvector_{k}"])
            row = [z.real for z in self.options[f"eigenvalue_{k}"]]
            if len(row) != m + 1:
                raise SpecFormatError(
                    f"eigenvalue_{k} needs {m + 1} coefficients (const + one per parameter)"
                )
            coeff_rows.append(row)
        return custom_spectral(
            np.array(vectors, dtype=complex).T,
            np.array(coeff_rows),
            self.domain,
            name=self.name,
        )


def _validate_over_domain(channel: ParametricChannel) -> None:
    """Check form invariants at the domain corners and midpoint in one stacked call, then, if
    that fails, point by point: a refusal names the first point that fails, and how."""
    corners = np.array(np.meshgrid(*channel.domain)).T.reshape(-1, channel.param_count)
    points = np.vstack([corners, [(lo + hi) / 2 for lo, hi in channel.domain]])
    for theta in [points, *points]:
        try:
            if channel.is_kraus_form:
                defect = diagnose_kraus(channel.kraus_matrices(theta))["completeness"]
                if (defect > CONSTRUCT_SUM_TOL).any():
                    raise ValidationError(f"completeness defect {defect.max():.3e}")
            else:
                channel.spectral_at(theta)
        except ValidationError as exc:
            if theta is not points:
                raise ValidationError(
                    f"channel invariants fail at theta = {theta.tolist()}: {exc}"
                ) from None
        else:
            if theta is points:
                return
