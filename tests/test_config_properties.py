"""Property tests of config text: any text parses or fails cleanly, every
in-range value survives a trip through a config file unchanged, and the keys
map every parameter object to itself."""

import math
from dataclasses import fields, is_dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlab.config import (
    SECTIONS,
    cpg_from_config,
    default_config,
    filter_from_config,
    flatten,
    gains_from_config,
    load_config,
    parse_config_text,
    plant_from_config,
    rebuild,
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


# any float: the writer prints each value so that it reads back exactly
printed = st.floats(allow_nan=False)
in_unit_range = st.floats(0.0, 1.0)


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


def built_from_drawn_keys(section):
    """Objects of a section built by their constructors, one keyword per key
    (``<field>`` or ``<action>.<term>``), each value drawn from (0, 0.5), a
    range every field accepts."""
    value = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
    default = SECTIONS[section]()
    kwargs, terms = {}, {}
    for key in KEYS:
        key_section, name, *term = key.split(".")
        if key_section != section:
            continue
        if term:
            terms.setdefault(name, {})[term[0]] = value
        else:
            kwargs[name] = value
    for name, action_terms in terms.items():
        kwargs[name] = st.builds(type(getattr(default, name)), **action_terms)
    return st.builds(SECTIONS[section], **kwargs)


def same(a, b):
    """Field-by-field equality that also compares array fields."""
    if not is_dataclass(a):
        return np.array_equal(a, b)
    return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                      for f in fields(a))


@derandomized
@given(st.sampled_from(sorted(SECTIONS)).flatmap(
    lambda section: st.tuples(st.just(section), built_from_drawn_keys(section))))
def test_rebuild_of_flatten_is_the_object(section_and_obj):
    section, obj = section_and_obj
    prefix = f"{section}."
    assert same(rebuild(SECTIONS[section](), flatten(obj, prefix), prefix), obj)
