"""Key=value config files shared by the gait, feedback, and plant layers.

Format: one ``key = value`` pair per line, ``#`` starts a comment, all
values are numbers.  Unknown keys and keys given twice are rejected so typos
and pasted-over lines fail loudly.  Every key is ``<section>.<field>`` for a
float field of ``CpgParams`` (cpg), ``FilterParams`` (filter),
``FeedbackGains`` (gains) or ``PlantParams`` (plant), with each action's
gains nested as ``gains.<action>.<term>``: kp and kd for a ``PdGains``
action, ki for an ``IGain`` one.  ``flatten`` and ``rebuild`` are the one
map between keys and objects; the optimizer's gain names are the gains keys
without ``gains.``.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

from ._kernels import float_fields, is_float_field
from .cpg import CpgParams
from .errors import ConfigurationError, InvalidInputError
from .feedback import ACTION_GAIN_TYPES, FeedbackGains, FilterParams
from .plant import PlantParams

SECTIONS = {"cpg": CpgParams, "filter": FilterParams, "gains": FeedbackGains, "plant": PlantParams}


def flatten(obj, prefix: str = "") -> dict[str, float]:
    """Dotted key -> value of every tunable parameter of ``obj``: its
    ``float_fields``, the fields its kernel tuple holds."""
    return dict(float_fields(obj, prefix))


def rebuild(obj, values: dict[str, float], prefix: str = ""):
    """A copy of ``obj`` with each key of ``flatten(obj, prefix)`` found in
    ``values`` set to that value; other keys in ``values`` are ignored.

    Built with ``dataclasses.replace``, so every ``__post_init__`` check runs;
    its InvalidInputError is prefixed with the object's key path.
    """
    changes = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_float_field(f):
            if prefix + f.name in values:
                changes[f.name] = values[prefix + f.name]
        elif is_dataclass(value):
            changes[f.name] = rebuild(value, values, f"{prefix}{f.name}.")
    try:
        return replace(obj, **changes)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{prefix.rstrip('.')}: {exc}" if prefix else str(exc)) from None


def default_config() -> dict[str, float]:
    """Every supported key with its default value."""
    cfg = {}
    for section, cls in SECTIONS.items():
        cfg.update(flatten(cls(), f"{section}."))
    return cfg


def parse_config_text(text: str) -> dict[str, float]:
    """Parse key=value lines; values must be numeric and keys must not repeat."""
    out: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        if key in first_line:
            raise ConfigurationError(
                f"line {lineno}: key {key!r} is already set on line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ConfigurationError(
                f"line {lineno}: value for {key!r} is not a number: {value!r}"
            ) from exc
    return out


# gains.<action>.<term> for each gain term the action's type lacks; config files
# from when every action carried kp, kd and ki list these keys at 0
_GAIN_TERMS = {f.name for cls in ACTION_GAIN_TYPES for f in fields(cls)}
_ABSENT_GAIN_TERMS = frozenset(
    f"gains.{action}.{term}"
    for action, gains in vars(FeedbackGains()).items()
    if isinstance(gains, ACTION_GAIN_TYPES)
    for term in _GAIN_TERMS - {f.name for f in fields(gains)}
)


def load_config(path) -> dict[str, float]:
    """Load a config file and merge it over the defaults.

    A key naming a gain term that its action does not have is dropped when
    its value is 0 and rejected otherwise.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    overrides = parse_config_text(text)
    cfg = default_config()
    for key, value in overrides.items():
        if key in _ABSENT_GAIN_TERMS:
            if value != 0.0:
                _, action, term = key.split(".")
                raise ConfigurationError(
                    f"config key {key!r} = {value!r}: {action} has no {term} term"
                    " (only 0 is accepted)"
                )
            continue
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
