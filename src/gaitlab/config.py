"""Key=value config files shared by the gait, feedback, and plant layers.

Format: one ``key = value`` pair per line, ``#`` starts a comment, all
values are numbers.  Unknown keys are rejected so typos fail loudly.  A key
is ``<section>.<field>`` for every float field of ``CpgParams`` (cpg),
``FilterParams`` (filter), ``FeedbackGains`` (gains) and ``PlantParams``
(plant), with ``PidGains`` nested as ``gains.<action>.kp/kd/ki``; four keys
name no single field (``_DERIVED``).  ``flatten`` and ``rebuild`` are the one
map between keys and objects; the optimizer's gain names are the gains keys
without ``gains.``.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .cpg import CpgParams
from .errors import ConfigurationError, InvalidInputError
from .feedback import FeedbackGains, FilterParams, PidGains
from .plant import PlantParams

SECTIONS = {"cpg": CpgParams, "filter": FilterParams, "gains": FeedbackGains, "plant": PlantParams}


def _halt_eta(pose, limbs, eta):
    return replace(pose, **{limb: replace(getattr(pose, limb), eta=eta) for limb in limbs})


_LEGS, _ARMS = ("left_leg", "right_leg"), ("left_arm", "right_arm")

# keys that name no single field: key -> (read from an object, field changes for a value)
_DERIVED = {
    CpgParams: {  # halt-pose retraction of both legs, of both arms
        "halt_eta": (lambda c: c.halt_pose.left_leg.eta,
                     lambda c, v: {"halt_pose": _halt_eta(c.halt_pose, _LEGS, v)}),
        "halt_arm_eta": (lambda c: c.halt_pose.left_arm.eta,
                         lambda c, v: {"halt_pose": _halt_eta(c.halt_pose, _ARMS, v)}),
    },
    PlantParams: {
        "natural_freq_pitch": (lambda p: p.natural_freq[0],
                               lambda p, v: {"natural_freq": (v, p.natural_freq[1])}),
        "natural_freq_roll": (lambda p: p.natural_freq[1],
                              lambda p, v: {"natural_freq": (p.natural_freq[0], v)}),
    },
}


_FLOAT = (float, "float")  # a field annotation, evaluated or not


def flatten(obj, prefix: str = "") -> dict[str, float]:
    """Dotted key -> value of every tunable parameter of ``obj``."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, PidGains):
            out.update(flatten(value, f"{prefix}{f.name}."))
        elif f.type in _FLOAT:
            out[prefix + f.name] = value
    for key, (read, _) in _DERIVED.get(type(obj), {}).items():
        out[prefix + key] = read(obj)
    return out


def rebuild(obj, values: dict[str, float], prefix: str = ""):
    """A copy of ``obj`` with each key of ``flatten(obj, prefix)`` found in
    ``values`` set to that value; other keys in ``values`` are ignored.

    Built with ``dataclasses.replace``, so every ``__post_init__`` check runs;
    its InvalidInputError is prefixed with the object's key path.
    """
    changes = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, PidGains):
            changes[f.name] = rebuild(value, values, f"{prefix}{f.name}.")
        elif f.type in _FLOAT and prefix + f.name in values:
            changes[f.name] = values[prefix + f.name]
    try:
        obj = replace(obj, **changes)
        for key, (_, write) in _DERIVED.get(type(obj), {}).items():
            if prefix + key in values:
                obj = replace(obj, **write(obj, values[prefix + key]))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{prefix.rstrip('.')}: {exc}" if prefix else str(exc)) from None
    return obj


def default_config() -> dict[str, float]:
    """Every supported key with its default value."""
    cfg = {}
    for section, cls in SECTIONS.items():
        cfg.update(flatten(cls(), f"{section}."))
    return cfg


def parse_config_text(text: str) -> dict[str, float]:
    """Parse key=value lines; values must be numeric."""
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ConfigurationError(
                f"line {lineno}: value for {key!r} is not a number: {value!r}"
            ) from exc
    return out


def load_config(path) -> dict[str, float]:
    """Load a config file and merge it over the defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    overrides = parse_config_text(text)
    cfg = default_config()
    for key, value in overrides.items():
        if key not in cfg:
            raise ConfigurationError(f"unknown config key {key!r}")
        cfg[key] = value
    return cfg


def write_config(cfg: dict[str, float], path) -> None:
    """Write ``cfg`` sorted by key; each value as the shortest text that reads back exactly."""
    with open(path, "w") as fh:
        for key in sorted(cfg):
            fh.write(f"{key} = {float(cfg[key])!r}\n")


def cpg_from_config(cfg: dict[str, float]) -> CpgParams:
    return rebuild(CpgParams(), cfg, "cpg.")


def gains_from_config(cfg: dict[str, float]) -> FeedbackGains:
    return rebuild(FeedbackGains(), cfg, "gains.")


def filter_from_config(cfg: dict[str, float]) -> FilterParams:
    return rebuild(FilterParams(), cfg, "filter.")


def plant_from_config(cfg: dict[str, float], seed: int = 0) -> PlantParams:
    return rebuild(PlantParams(seed=seed), cfg, "plant.")
