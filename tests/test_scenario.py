import copy
import dataclasses
import importlib.util
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR
from se3slam.errors import ConfigInvalid
from se3slam.observer import Gains
from se3slam.scenario import (
    MAX_LANDMARKS,
    MAX_STEPS,
    TRUE_ATTITUDE,
    Box,
    InitialEstimate,
    LandmarkLayout,
    Scenario,
    load_scenario,
    parse_scenario,
    set_parameter,
)
from se3slam.liegroup import homogeneous
from se3slam.simulator import ChannelNoise, NoiseSpec, TrajectorySpec, truth_at

BENCH_WORKLOADS = SCENARIO_DIR.parent / "bench" / "workloads.py"
BUNDLED = ["fig3_noisefree", "fig3_noisy", "reconstructed", "heavytail"]
BUNDLED_DOCS = [yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text()) for name in BUNDLED]


HINT = "; write it unquoted, with a dot and a signed exponent (1.0e+6, not 1.0e6)"


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


@pytest.mark.parametrize("name", BUNDLED)
def test_scenarios_compare_and_hash_by_value(name):
    path = SCENARIO_DIR / f"{name}.yaml"
    first, _ = load_scenario(path)
    second, _ = load_scenario(path)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert {first: name}[second] == name


def test_dense_benchmark_document_loads(tmp_path, monkeypatch):
    # the benchmark's generated scenario goes through the same file reader
    spec = importlib.util.spec_from_file_location("workloads", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    path = tmp_path / "dense.yaml"
    path.write_text(module.DENSE_SCENARIO.format(seed=3))
    scenario, _ = load_scenario(path)
    assert (scenario.seed, scenario.landmarks.num_landmarks) == (3, 256)


@pytest.mark.parametrize(
    "edit, line, key",
    [
        (lambda text: text + "dt: 0.5\n", 41, "'dt'"),
        (lambda text: text.replace("  k1: 2.0\n", "  k1: 1.0\n  k1: 2.0\n"), 11, "'k1'"),
    ],
    ids=["top-level", "nested"],
)
def test_duplicate_key_is_an_error(tmp_path, edit, line, key):
    # YAML's safe_load would keep the last value; a repeated key is rejected
    # with the file, its line and the key, in any mapping
    path = tmp_path / "twice.yaml"
    path.write_text(edit((SCENARIO_DIR / "fig3_noisy.yaml").read_text()))
    with pytest.raises(ConfigInvalid) as raised:
        load_scenario(path)
    assert str(raised.value) == f"{path}: line {line}: duplicate key {key}"


def test_set_parameter_seed_gives_a_different_scenario(base_doc):
    s = parse_scenario(base_doc)
    assert set_parameter(s, "seed", s.seed + 1) != s
    assert set_parameter(s, "seed", s.seed) == s


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


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_schema_version_must_be_the_integer_one(base_doc, version):
    base_doc["schema_version"] = version
    with pytest.raises(ConfigInvalid, match="^schema_version: expected 1"):
        parse_scenario(base_doc)


@pytest.mark.parametrize(
    "section, key, index",
    [("initial_estimate", "position_offset", 0), ("trajectory", "initial_position", 1)],
)
@pytest.mark.parametrize("entry", ["0.8", True, None, [1.0], "1.0e6"])
def test_vector_entries_follow_the_float_rules(base_doc, section, key, index, entry):
    vector = [0.8, -0.5, 0.4]
    vector[index] = entry
    base_doc[section][key] = vector
    got = f"got {type(entry).__name__} {entry!r}"
    with pytest.raises(ConfigInvalid, match=rf"^{section}.{key}\[{index}\]: expected float") as info:
        parse_scenario(base_doc)
    # a string that float() reads, as YAML 1.1 reads 1.0e6, gets a syntax hint
    hint = HINT if isinstance(entry, str) else ""
    assert str(info.value).endswith(got + hint)


def test_landmark_position_entries_follow_the_float_rules(base_doc):
    base_doc["landmarks"]["positions"][2] = [1.0, False, 2.0]
    with pytest.raises(ConfigInvalid, match=r"^landmarks.positions\[2\]\[1\]: expected float"):
        parse_scenario(base_doc)


def test_landmark_count_is_bounded(base_doc):
    box = {"min": [-1, -1, -1], "max": [1, 1, 1]}
    base_doc["landmarks"] = {"count": MAX_LANDMARKS, "box": box}
    scenario = parse_scenario(base_doc)
    assert scenario.landmarks.num_landmarks == MAX_LANDMARKS
    base_doc["landmarks"]["count"] = 10**9
    message = f"^landmarks.count: 1000000000 landmarks exceed the limit of {MAX_LANDMARKS}$"
    with pytest.raises(ConfigInvalid, match=message):
        parse_scenario(base_doc)
    with pytest.raises(ConfigInvalid, match=message):
        set_parameter(scenario, "landmarks.count", 1e9)


def test_dt_must_not_exceed_duration(base_doc):
    base_doc["dt"] = 100.0
    with pytest.raises(ConfigInvalid, match="dt"):
        parse_scenario(base_doc)


@pytest.mark.parametrize("dt, steps", [(0.3, "3.33333"), (0.4, "2.5"), (0.7, "1.42857"), (0.25, None)])
def test_duration_must_be_a_whole_number_of_steps(base_doc, dt, steps):
    base_doc["duration"], base_doc["dt"] = 1.0, dt
    if steps is None:
        assert parse_scenario(base_doc).dt == dt
        return
    message = f"^duration/dt: duration 1 is {steps} steps of dt {dt:g}, not a whole number$"
    with pytest.raises(ConfigInvalid, match=message):
        parse_scenario(base_doc)
    with pytest.raises(ConfigInvalid, match=message):
        set_parameter(parse_scenario({**base_doc, "dt": 0.5}), "dt", dt)


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
    for path, message in [
        ("gains.k9", "unknown keys: gains.k9"),
        ("name", "name: expected str, got float 1.0"),
        ("dt.x", "dt.x: no scenario section at this path"),
    ]:
        with pytest.raises(ConfigInvalid) as info:
            set_parameter(scenario, path, 1.0)
        assert str(info.value) == message


def test_set_parameter_revalidates(base_doc):
    scenario = parse_scenario(base_doc)
    with pytest.raises(ConfigInvalid):
        set_parameter(scenario, "dt", -1.0)


def test_trajectory_errors_carry_section_path(base_doc):
    base_doc["trajectory"]["initial_rotation"] = [1e200, 0.0, 0.0]
    with pytest.raises(ConfigInvalid, match="^trajectory: rotation vector has no finite norm"):
        parse_scenario(base_doc)
    base_doc["trajectory"]["initial_rotation"] = [0.0, float("nan"), 0.0]
    with pytest.raises(ConfigInvalid, match="^trajectory: initial_rotation must be finite"):
        parse_scenario(base_doc)
    base_doc["trajectory"]["initial_rotation"] = [0.0, 0.0, 0.0]
    base_doc["trajectory"]["initial_position"] = [0.0, 0.0, float("inf")]
    with pytest.raises(ConfigInvalid, match="^trajectory: initial_position must be finite"):
        parse_scenario(base_doc)


@pytest.mark.parametrize(
    "path, message",
    [
        ("trajectory.radius", "trajectory: radius must be finite, got nan"),
        ("gains.k1", "gains: k1 must be finite, got nan"),
        ("noise.omega.scale", "noise.omega: scale must be finite, got nan"),
        ("dt", "dt must be finite, got nan"),
    ],
    ids=["trajectory.radius", "gains.k1", "noise.omega.scale", "dt"],
)
def test_set_parameter_non_finite_names_sweep_path(base_doc, path, message):
    scenario = parse_scenario(base_doc)
    with pytest.raises(ConfigInvalid, match=f"^{message}"):
        set_parameter(scenario, path, float("nan"))


# One valid instance of each config class that checks its own fields.
VALID_CONFIGS = [
    TrajectorySpec("tumble", 2.0, 0.5, 0.1, (0.6, 0.4, 0.5), (2.0, 0.0, 0.5), (0.1, 0.2, 0.3)),
    ChannelNoise("student_t", 0.01, 3.0, (0.1, 0.0, 0.0)),
    Box((-5.0, -5.0, -5.0), (5.0, 5.0, 5.0)),
    LandmarkLayout(positions=((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))),
    InitialEstimate(0.5, (1.0, 2.0, 3.0), (0.8, -0.5, 0.4), 1.0),
    Gains(2.0, 1.0, 12.0),
    parse_scenario(BUNDLED_DOCS[0]),
]


def _with_bad_entry(value, bad):
    """``value`` (a float, a Vec3 or a tuple of Vec3) with one entry replaced by ``bad``."""
    if isinstance(value, float):
        return bad
    if isinstance(value[-1], tuple):
        return (*value[:-1], _with_bad_entry(value[-1], bad))
    return (value[0], bad, *value[2:])


NON_FINITE_FIELDS = [
    pytest.param(config, f.name, bad, id=f"{type(config).__name__}.{f.name}={bad}")
    for config in VALID_CONFIGS
    for f in dataclasses.fields(config)
    if isinstance(getattr(config, f.name), (float, tuple))
    for bad in (float("nan"), float("inf"))
]


@pytest.mark.parametrize("config, name, bad", NON_FINITE_FIELDS)
def test_config_classes_reject_their_own_non_finite_fields(config, name, bad):
    value = _with_bad_entry(getattr(config, name), bad)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        dataclasses.replace(config, **{name: value})


def _paths(config, kind, prefix=""):
    """Dotted paths of the fields of type ``kind`` at or under a config dataclass."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _paths(value, kind, f"{prefix}{f.name}.")
        elif type(value) is kind:
            yield prefix + f.name


def _outcome(build):
    """The scenario ``build`` returns, or the message of the ConfigInvalid it raises."""
    try:
        return build()
    except ConfigInvalid as exc:
        return str(exc)


COUNT_BOX_DOC = {
    **BUNDLED_DOCS[0],
    "landmarks": {"count": 8, "box": {"min": [-1.0, -1.0, -1.0], "max": [1.0, 1.0, 1.0]}},
}


@pytest.mark.parametrize(
    "doc", [*BUNDLED_DOCS, COUNT_BOX_DOC], ids=[*BUNDLED, "fig3_noisefree_count_box"]
)
def test_file_and_sweep_give_the_same_outcome(doc):
    scenario = parse_scenario(doc)
    assert set_parameter(scenario, "seed", scenario.seed) == scenario
    float_paths, int_paths = list(_paths(scenario, float)), list(_paths(scenario, int))
    assert {"trajectory.radius", "gains.k1", "dt", "noise.omega.scale"} <= set(float_paths)
    assert "seed" in int_paths
    assert ("landmarks.count" in int_paths) == (doc is COUNT_BOX_DOC)
    cases = [(p, v) for p in float_paths for v in (float("nan"), float("inf"), -1.0)]
    cases += [(p, v) for p in int_paths for v in (1.5, -1.0, -1)]
    # paths a sweep cannot set: an unknown key, string fields, a section, and
    # a count beside the positions of an explicit layout
    cases += [(p, 1.0) for p in ("gains.k9", "name", "trajectory.family", "noise")]
    if doc is not COUNT_BOX_DOC:
        cases.append(("landmarks.count", 8))
    differ = []
    for path, value in cases:
        edited = copy.deepcopy(doc)
        *sections, key = path.split(".")
        node = edited
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
        from_file = _outcome(lambda: parse_scenario(edited))
        from_sweep = _outcome(lambda: set_parameter(scenario, path, value))
        if from_file != from_sweep:
            differ.append((path, value, from_file, from_sweep))
    assert differ == []


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("attitude_error_axis", [0, 0, 0], "attitude_error_axis needs a finite non-zero norm"),
        ("landmark_offset_scale", -1.0, "landmark_offset_scale must be >= 0"),
    ],
)
def test_initial_estimate_checks_its_fields(base_doc, key, value, message):
    base_doc["initial_estimate"].update(attitude_error_rad=0.5, **{key: value})
    with pytest.raises(ConfigInvalid, match=f"^initial_estimate: {message}"):
        parse_scenario(base_doc)


def test_set_parameter_checks_initial_estimate(base_doc):
    base_doc["initial_estimate"].update(attitude_error_rad=0.0, attitude_error_axis=[0, 0, 0])
    scenario = parse_scenario(base_doc)  # no rotation, so no axis is needed
    path = "initial_estimate.attitude_error_rad"
    with pytest.raises(ConfigInvalid, match="^initial_estimate: attitude_error_axis needs"):
        set_parameter(scenario, path, 0.5)
    path = "initial_estimate.landmark_offset_scale"
    with pytest.raises(ConfigInvalid, match="^initial_estimate: landmark_offset_scale must be >= 0"):
        set_parameter(scenario, path, -1.0)


def test_minimal_document_takes_dataclass_defaults():
    doc = {
        "schema_version": 1,
        "name": "minimal",
        "duration": 1.0,
        "dt": 0.1,
        "gains": {"k1": 1.0, "k2": 1.0, "k3": 1.0},
        "trajectory": {"family": "static"},
        "landmarks": {"positions": [[0, 0, 0]]},
    }
    scenario = parse_scenario(doc)
    assert scenario.noise == NoiseSpec()
    assert scenario.initial_estimate == InitialEstimate()
    assert scenario.seed == 0
    assert scenario.attitude_mode == TRUE_ATTITUDE
    spec = scenario.trajectory
    assert (spec.radius, spec.angular_rate, spec.vertical_rate) == (0.0, 0.0, 0.0)
    assert spec.tumble_amplitude == (0.0, 0.0, 0.0)
    assert spec.initial_position == spec.initial_rotation == (0.0, 0.0, 0.0)
    start = truth_at(spec, 0.0)
    np.testing.assert_array_equal(homogeneous(start.dcm, start.position), np.eye(4))


def _slots(node):
    """(container, key) of every value in a parsed document, nested ones included."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


JUNK = st.sampled_from(
    [None, True, False, "x", "1.5", [], [1.0], [1.0, 2.0], float("nan"), float("inf"), -float("inf")]
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BUNDLED_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        action = draw(st.sampled_from(["delete", "add", "replace"]))
        if action == "delete":
            del container[key]
        elif action == "add":
            mapping = draw(st.sampled_from([doc] + [v for _, v in _slots(doc) if isinstance(v, dict)]))
            mapping[draw(st.one_of(st.text(max_size=8), st.integers()))] = copy.deepcopy(draw(JUNK))
        else:
            # a copy: one shared JUNK list put inside itself would make the document cyclic
            container[key] = copy.deepcopy(draw(JUNK))
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_documents_parse_or_raise_config_invalid(doc):
    again = copy.deepcopy(doc)
    try:
        scenario = parse_scenario(doc)
    except ConfigInvalid:
        return
    assert isinstance(scenario, Scenario)
    # a Scenario is a plain value: a second parse of the same document equals it
    second = parse_scenario(again)
    assert second == scenario and hash(second) == hash(scenario)
