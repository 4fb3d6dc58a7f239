"""Actuator-side conversions: encoder ticks, current/torque, joint aliases
for the parallel kinematics, and helical gear geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    InvalidInputError,
    check_count,
    check_finite,
    check_nonnegative,
)
from .numopt import least_squares_line

TICKS_PER_REV = 4096
CENTER_TICK = 2048  # mid-range zero, standard for 12-bit magnetic encoders


def ticks_to_rad(ticks: int) -> float:
    """Convert a raw encoder reading, an integer in 0..4095, to radians.

    2048 is the zero pose.
    """
    check_count("ticks", ticks, 0, TICKS_PER_REV - 1)
    return (int(ticks) - CENTER_TICK) * 2.0 * math.pi / TICKS_PER_REV


def rad_to_ticks(angle: float) -> int:
    """Inverse of ticks_to_rad; exact on the encoder grid."""
    check_finite("angle", angle)
    ticks = int(round(angle * TICKS_PER_REV / (2.0 * math.pi))) + CENTER_TICK
    if not 0 <= ticks <= TICKS_PER_REV - 1:
        raise InvalidInputError(f"angle {angle} rad outside the encoder range")
    return ticks


@dataclass
class TorqueModel:
    """Linear current-to-torque model tau = k_t * i + offset."""

    k_t: float  # Nm/A
    offset: float = 0.0  # Nm

    def __post_init__(self):
        check_nonnegative("torque constant k_t", self.k_t, positive=True)
        check_finite("torque offset", self.offset)


def current_to_torque(current: float, model: TorqueModel) -> float:
    check_finite("current", current)
    return model.k_t * current + model.offset


def fit_torque_model(samples) -> TorqueModel:
    """Least-squares torque constant and idle offset from (current, torque) pairs."""
    samples = list(samples)
    if len(samples) < 2:
        raise DegenerateDataError("need at least 2 samples")
    currents = np.array([s[0] for s in samples], dtype=float)
    torques = np.array([s[1] for s in samples], dtype=float)
    if np.ptp(currents) == 0.0:
        raise DegenerateDataError("all currents identical; torque constant undetermined")
    slope, intercept = least_squares_line(currents, torques)
    return TorqueModel(k_t=slope, offset=intercept)


_ALIAS_KINDS = ("scale", "copy", "negate", "sum", "subtract")


@dataclass
class AliasRule:
    """One joint-alias rule: target computed from source (and maybe operand)."""

    target: str
    kind: str
    source: str
    factor: float | None = None  # scale only
    operand: str | None = None  # sum/subtract only

    def __post_init__(self):
        if self.kind not in _ALIAS_KINDS:
            raise ConfigurationError(f"unknown alias kind {self.kind!r}")
        if self.kind == "scale":
            if self.factor is None:
                raise ConfigurationError(f"scale rule for {self.target!r} needs a factor")
            check_finite(f"scale factor for {self.target!r}", self.factor)
        if self.kind in ("sum", "subtract") and self.operand is None:
            raise ConfigurationError(f"{self.kind} rule for {self.target!r} needs an operand")

    def inputs(self) -> tuple[str, ...]:
        return (self.source, self.operand) if self.operand else (self.source,)


def apply_aliases(rules: list[AliasRule], positions: dict[str, float]) -> dict[str, float]:
    """Evaluate alias rules in dependency order; untouched joints pass through.

    Raises ConfigurationError on cyclic rule sets or missing sources.
    """
    by_target = {}
    for r in rules:
        if r.target in by_target:
            raise ConfigurationError(f"duplicate rule for target {r.target!r}")
        by_target[r.target] = r

    out = dict(positions)
    pending = dict(by_target)
    while pending:
        # a rule is ready once no input is a target still to compute, whether or
        # not the input is also a given position
        ready = [t for t, r in pending.items() if not any(i in pending for i in r.inputs())]
        if not ready:
            cycle = ", ".join(sorted(pending))
            raise ConfigurationError(f"cyclic alias rules involving: {cycle}")
        for t in ready:
            r = pending.pop(t)
            vals = []
            for name in r.inputs():
                if name not in out:
                    raise ConfigurationError(
                        f"rule for {t!r} references missing source {name!r}"
                    )
                vals.append(out[name])
            if r.kind == "copy":
                out[t] = vals[0]
            elif r.kind == "negate":
                out[t] = -vals[0]
            elif r.kind == "scale":
                out[t] = r.factor * vals[0]
            elif r.kind == "sum":
                out[t] = vals[0] + vals[1]
            else:  # subtract
                out[t] = vals[0] - vals[1]
    return out


def parse_alias_rules(text: str) -> list[AliasRule]:
    """Parse the line-oriented rule format ``target = kind(source[, arg])``."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            target, expr = (part.strip() for part in line.split("=", 1))
            kind, rest = expr.split("(", 1)
            kind = kind.strip()
            args = [a.strip() for a in rest.rstrip().rstrip(")").split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: cannot parse {raw!r}") from exc
        if not target:
            raise ConfigurationError(f"line {lineno}: empty target")
        if kind == "scale":
            if len(args) != 2:
                raise ConfigurationError(f"line {lineno}: scale needs (source, factor)")
            try:
                factor = float(args[1])
            except ValueError as exc:
                raise ConfigurationError(f"line {lineno}: bad factor {args[1]!r}") from exc
            rules.append(AliasRule(target, "scale", args[0], factor=factor))
        elif kind in ("sum", "subtract"):
            if len(args) != 2:
                raise ConfigurationError(f"line {lineno}: {kind} needs (source, operand)")
            rules.append(AliasRule(target, kind, args[0], operand=args[1]))
        elif kind in ("copy", "negate"):
            if len(args) != 1:
                raise ConfigurationError(f"line {lineno}: {kind} takes one source")
            rules.append(AliasRule(target, kind, args[0]))
        else:
            raise ConfigurationError(f"line {lineno}: unknown kind {kind!r}")
    return rules


@dataclass
class GearSpec:
    """Helical gear: tooth count, module (mm), helix angle (rad)."""

    teeth: int
    module: float  # mm
    helix_angle: float = 0.0  # rad

    def __post_init__(self):
        check_count("tooth count", self.teeth, 4)
        check_nonnegative("module", self.module, positive=True)
        if not 0.0 <= self.helix_angle <= math.pi / 4:
            raise InvalidInputError("helix angle must be in [0, pi/4]")


def gear_pitch_diameter(g: GearSpec) -> float:
    """Pitch diameter d = Z*m / cos(psi), in mm."""
    return g.teeth * g.module / math.cos(g.helix_angle)
