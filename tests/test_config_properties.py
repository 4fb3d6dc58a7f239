"""Property tests of config text: any text parses or fails cleanly, and every
in-range value survives a trip through a config file unchanged."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlab.config import (
    cpg_from_config,
    default_config,
    filter_from_config,
    flatten,
    gains_from_config,
    load_config,
    parse_config_text,
    plant_from_config,
    write_config,
)
from gaitlab.errors import ConfigurationError, InvalidInputError

derandomized = settings(derandomize=True, max_examples=200, deadline=None)
KEYS = sorted(default_config())

# lines that look like config text, mixed with noise, so examples reach the value parser
line = st.one_of(
    st.text(),
    st.builds("{} = {}".format, st.sampled_from(KEYS), st.text()),
    st.builds("{} = {!r}".format, st.sampled_from(KEYS + ["a.b", ""]), st.floats()),
    st.builds("{}={}  # {}".format, st.text(), st.floats(), st.text()),
)
config_text = st.one_of(st.text(), st.lists(line).map("\n".join))


def build_and_flatten(cfg):
    return {
        **flatten(cpg_from_config(cfg), "cpg."),
        **flatten(filter_from_config(cfg), "filter."),
        **flatten(gains_from_config(cfg), "gains."),
        **flatten(plant_from_config(cfg), "plant."),
    }


@derandomized
@given(config_text)
def test_any_text_parses_or_is_a_configuration_error(text):
    try:
        cfg = parse_config_text(text)
    except ConfigurationError:
        return
    assert all(isinstance(v, float) for v in cfg.values())


@derandomized
@given(st.binary() | config_text.map(str.encode))
def test_any_file_loads_or_is_a_configuration_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("cfg") / "any.cfg"
    path.write_bytes(data)
    try:
        cfg = load_config(path)
    except ConfigurationError:
        return
    assert set(cfg) == set(KEYS)


# values as the writer prints them (12 significant digits), so the file holds them exactly
printed = st.floats(allow_nan=False).map(lambda v: float(f"{v:.12g}"))
in_unit_range = st.floats(0.0, 1.0).map(lambda v: float(f"{v:.12g}"))


@derandomized
@given(st.sampled_from(KEYS), st.one_of(in_unit_range, printed, st.just(math.nan)))
def test_values_round_trip_through_a_file_or_fail_naming_the_section(
    tmp_path_factory, key, value
):
    cfg = {**default_config(), key: value}
    try:
        built = build_and_flatten(cfg)
    except InvalidInputError as exc:  # out of range: the error names the section
        assert str(exc).startswith(key.split(".")[0])
        return
    path = tmp_path_factory.mktemp("cfg") / "one.cfg"
    write_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert build_and_flatten(loaded) == built == cfg
