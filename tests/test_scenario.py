import copy

import pytest
import yaml

from conftest import SCENARIO_DIR
from se3slam.errors import ConfigInvalid, UnknownParameter
from se3slam.scenario import MAX_STEPS, load_scenario, parse_scenario, set_parameter

BUNDLED = ["fig3_noisefree", "fig3_noisy", "reconstructed", "heavytail"]


@pytest.fixture
def base_doc():
    with open(SCENARIO_DIR / "fig3_noisefree.yaml") as fh:
        return yaml.safe_load(fh)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_load(name):
    scenario, digest = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    assert scenario.name == name
    assert len(digest) == 64
    assert scenario.landmarks.num_landmarks == 8


def test_unknown_top_level_key(base_doc):
    base_doc["gian"] = 1
    with pytest.raises(ConfigInvalid, match="unknown keys.*gian"):
        parse_scenario(base_doc)


def test_unknown_nested_key(base_doc):
    base_doc["gains"]["k4"] = 1.0
    with pytest.raises(ConfigInvalid, match="gains.k4"):
        parse_scenario(base_doc)


def test_missing_schema_version(base_doc):
    del base_doc["schema_version"]
    with pytest.raises(ConfigInvalid, match="schema_version"):
        parse_scenario(base_doc)


def test_wrong_schema_version(base_doc):
    base_doc["schema_version"] = 2
    with pytest.raises(ConfigInvalid, match="schema_version"):
        parse_scenario(base_doc)


def test_dt_must_not_exceed_duration(base_doc):
    base_doc["dt"] = 100.0
    with pytest.raises(ConfigInvalid, match="dt"):
        parse_scenario(base_doc)


def test_nonpositive_duration(base_doc):
    base_doc["duration"] = 0.0
    with pytest.raises(ConfigInvalid, match="duration"):
        parse_scenario(base_doc)


def test_negative_gain(base_doc):
    base_doc["gains"]["k2"] = -1.0
    with pytest.raises(ConfigInvalid, match="gains"):
        parse_scenario(base_doc)


def test_bad_attitude_mode(base_doc):
    base_doc["attitude_mode"] = "magic"
    with pytest.raises(ConfigInvalid, match="attitude_mode"):
        parse_scenario(base_doc)


def test_reconstructed_needs_two_landmarks(base_doc):
    base_doc["attitude_mode"] = "reconstructed"
    base_doc["landmarks"] = {"positions": [[0, 0, 0]]}
    with pytest.raises(ConfigInvalid, match="landmarks"):
        parse_scenario(base_doc)


def test_count_box_layout(base_doc):
    base_doc["landmarks"] = {"count": 5, "box": {"min": [-1, -1, 0], "max": [1, 1, 2]}}
    scenario = parse_scenario(base_doc)
    assert scenario.landmarks.num_landmarks == 5
    assert scenario.landmarks.positions is None


def test_positions_and_count_conflict(base_doc):
    base_doc["landmarks"]["count"] = 3
    with pytest.raises(ConfigInvalid, match="landmarks"):
        parse_scenario(base_doc)


def test_bad_noise_family(base_doc):
    base_doc["noise"]["omega"] = {"family": "poisson"}
    with pytest.raises(ConfigInvalid, match="noise.omega"):
        parse_scenario(base_doc)


def test_bad_vector_shape(base_doc):
    base_doc["initial_estimate"]["position_offset"] = [1, 2]
    with pytest.raises(ConfigInvalid, match="position_offset"):
        parse_scenario(base_doc)


def test_set_parameter_gain(base_doc):
    scenario = parse_scenario(base_doc)
    updated = set_parameter(scenario, "gains.k1", 5.0)
    assert updated.gains.k1 == 5.0
    assert scenario.gains.k1 == 2.0  # original untouched


def test_set_parameter_nested_noise(base_doc):
    scenario = parse_scenario(base_doc)
    updated = set_parameter(scenario, "noise.omega.scale", 0.5)
    assert updated.noise.omega.scale == 0.5


def test_set_parameter_unknown_path(base_doc):
    scenario = parse_scenario(base_doc)
    with pytest.raises(UnknownParameter):
        set_parameter(scenario, "gains.k9", 1.0)
    with pytest.raises(UnknownParameter):
        set_parameter(scenario, "name", 1.0)


def test_set_parameter_revalidates(base_doc):
    scenario = parse_scenario(base_doc)
    with pytest.raises(ConfigInvalid):
        set_parameter(scenario, "dt", -1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_trajectory_errors_carry_section_path(base_doc):
    base_doc["trajectory"]["initial_rotation"] = [1e200, 0.0, 0.0]
    with pytest.raises(ConfigInvalid, match="^trajectory: rotation vector has no finite norm"):
        parse_scenario(base_doc)


@pytest.mark.parametrize(
    "path, message",
    [
        ("trajectory.radius", "trajectory.radius: radius must be finite"),
        ("gains.k1", "gains.k1: gain k1 must be finite"),
        ("noise.omega.scale", "noise.omega.scale: must be finite"),
        ("dt", "dt: must be finite"),
    ],
)
def test_set_parameter_non_finite_names_sweep_path(base_doc, path, message):
    scenario = parse_scenario(base_doc)
    with pytest.raises(ConfigInvalid, match=f"^{message}"):
        set_parameter(scenario, path, float("nan"))


def test_set_parameter_int_field_needs_integral_value(base_doc):
    scenario = parse_scenario(base_doc)
    for value in (1.5, float("inf")):
        with pytest.raises(ConfigInvalid, match="^seed: expected an integer"):
            set_parameter(scenario, "seed", value)
    updated = set_parameter(scenario, "seed", 2.0)
    assert updated.seed == 2 and isinstance(updated.seed, int)


def test_step_count_is_bounded(base_doc):
    base_doc["dt"] = 1.0
    base_doc["duration"] = float(MAX_STEPS)
    assert parse_scenario(base_doc).duration == MAX_STEPS
    base_doc["duration"] = MAX_STEPS + 1.0
    with pytest.raises(ConfigInvalid, match=r"^duration/dt: 1e\+06 steps exceed"):
        parse_scenario(base_doc)
    # a ratio that overflows to infinity is rejected the same way
    base_doc["duration"], base_doc["dt"] = 1.0e300, 1.0e-300
    with pytest.raises(ConfigInvalid, match="^duration/dt: inf steps exceed"):
        parse_scenario(base_doc)
