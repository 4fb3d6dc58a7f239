import re
from dataclasses import fields
from pathlib import Path

import pytest

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
from gaitlab.feedback import ACTION_GAIN_TYPES, FeedbackGains, IGain


def test_defaults_build_all_objects():
    cfg = default_config()
    gains = gains_from_config(cfg)
    assert gains.arm_angle_y.kp == cfg["gains.arm_angle_y.kp"]
    cpg = cpg_from_config(cfg)
    assert cpg.frequency == cfg["cpg.frequency"]
    assert cpg.halt_eta == cfg["cpg.halt_eta"]
    plant = plant_from_config(cfg, seed=5)
    assert plant.seed == 5
    assert plant.natural_freq_roll == cfg["plant.natural_freq_roll"]
    filt = filter_from_config(cfg)
    assert filt.deadband == cfg["filter.deadband"]


def test_round_trip_through_file(tmp_path):
    cfg = default_config()
    cfg["gains.arm_angle_y.kp"] = 2.25
    path = tmp_path / "gains.cfg"
    write_config(cfg, path)
    back = load_config(path)
    assert back == cfg


def test_parse_comments_and_blanks():
    cfg = parse_config_text("# comment\n\ncpg.frequency = 1.5  # trailing\n")
    assert cfg == {"cpg.frequency": 1.5}


def test_parse_errors_name_the_line():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config_text("a = 1\nnot a pair\n")
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config_text("cpg.frequency = fast\n")


def test_duplicate_key_rejected_naming_both_lines():
    text = "gains.arm_angle_y.kp = 1\n# second try\ngains.arm_angle_y.kp = 2\n"
    with pytest.raises(ConfigurationError, match="line 3: key 'gains.arm_angle_y.kp'.*line 1"):
        parse_config_text(text)
    # a repeated value is still a repeat; distinct keys are fine
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config_text("cpg.frequency = 1\ncpg.frequency = 1\n")
    assert parse_config_text("cpg.frequency = 1\ncpg.lift_amplitude = 1\n") == {
        "cpg.frequency": 1.0, "cpg.lift_amplitude": 1.0}


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("cpg.warp_speed = 9\n")
    with pytest.raises(ConfigurationError, match="cpg.warp_speed"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_keys_follow_the_parameter_fields():
    cfg = default_config()
    expected = {}
    for section, cls in SECTIONS.items():
        obj = cls()
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, ACTION_GAIN_TYPES):
                for term in fields(value):
                    expected[f"{section}.{f.name}.{term.name}"] = getattr(value, term.name)
            elif f.type == "float":
                expected[f"{section}.{f.name}"] = value
    assert cfg == expected  # every key is one field, and no key is anything else
    assert len(cfg) == 30


def test_gains_array_is_the_flattened_gains_in_field_order():
    gains = FeedbackGains(com_shift_y=IGain(ki=0.07))
    assert gains.to_array().tolist() == list(flatten(gains).values())


def test_absent_gain_terms_load_only_at_zero(tmp_path):
    path = tmp_path / "old.cfg"
    path.write_text(
        "gains.arm_angle_x.ki = 0\ngains.com_shift_x.kp = 0.0\ngains.arm_angle_y.kp = 2\n"
    )
    assert load_config(path) == {**default_config(), "gains.arm_angle_y.kp": 2.0}
    path.write_text("gains.com_shift_x.kp = 2\n")
    with pytest.raises(ConfigurationError, match=r"'gains\.com_shift_x\.kp'.*has no kp term"):
        load_config(path)


def test_rebuild_runs_the_dataclass_checks_and_names_the_key_path():
    with pytest.raises(InvalidInputError, match=r"^gains\.arm_angle_y: gain kp must be finite"):
        rebuild(FeedbackGains(), {"gains.arm_angle_y.kp": -1.0}, "gains.")
    with pytest.raises(InvalidInputError, match=r"^cpg: halt arm retraction"):
        cpg_from_config({"cpg.halt_arm_eta": 1.5})
    with pytest.raises(InvalidInputError, match=r"^plant: natural_freq_roll must be finite"):
        plant_from_config({"plant.natural_freq_roll": 0.0})
    base = FeedbackGains()
    gains = rebuild(base, {"arm_angle_y.kd": 0.9, "not.a.gain": 1.0})
    assert gains.arm_angle_y.kd == 0.9 and base.arm_angle_y.kd == 0.35
    assert flatten(gains) == {**flatten(base), "arm_angle_y.kd": 0.9}


def test_halt_and_natural_frequency_keys_set_both_sides():
    cfg = {"cpg.halt_eta": 0.3, "cpg.halt_arm_eta": 0.2, "plant.natural_freq_roll": 3.5}
    cpg = cpg_from_config(cfg)
    assert (cpg.halt_eta, cpg.halt_arm_eta) == (0.3, 0.2)
    halt = cpg.halt_pose
    assert halt.left_leg.eta == halt.right_leg.eta == 0.3
    assert halt.left_arm.eta == halt.right_arm.eta == 0.2
    plant = plant_from_config(cfg)
    assert (plant.natural_freq_pitch, plant.natural_freq_roll) == (1.2, 3.5)
    assert plant.to_array()[:2].tolist() == [1.2, 3.5]


def _doc_config_table():
    """key -> default from the config section of docs/formats.md, action tables expanded."""
    text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text()
    section = text.split("## Config file", 1)[1].split("\n## ", 1)[0]
    keys = {}
    for table in re.findall(r"(?:^\|.*\|\n)+", section, re.MULTILINE):
        header, _, *rows = (row.strip("|").split("|") for row in table.splitlines())
        header = [cell.strip() for cell in header]
        for name, *cells in rows:
            name = name.strip().strip("`")
            if header[0] == "key":  # key, default, meaning
                keys[name] = cells[0].strip()
            else:  # action, then one column per gain term
                assert header[0] == "action"
                for term, value in zip(header[1:], cells, strict=True):
                    keys[f"gains.{name}.{term}"] = value.strip()
    assert keys.pop("gains.<action>.kp/.kd") == keys.pop("gains.<action>.ki") == "see below"
    return {key: float(value) for key, value in keys.items()}


def test_formats_doc_lists_every_key_with_its_default():
    assert _doc_config_table() == default_config()
