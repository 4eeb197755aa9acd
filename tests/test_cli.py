import contextlib
import hashlib
import io
import os
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR
from se3slam.cli import main


@pytest.fixture
def short_scenario(tmp_path):
    # trimmed copy of the bundled scenario so CLI tests stay fast
    text = (SCENARIO_DIR / "fig3_noisefree.yaml").read_text()
    text = text.replace("duration: 20.0", "duration: 1.0").replace("dt: 0.005", "dt: 0.05")
    path = tmp_path / "short.yaml"
    path.write_text(text)
    return path


def test_validate_ok(capsys):
    assert main(["validate", str(SCENARIO_DIR / "fig3_noisefree.yaml")]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nname: x\n")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_rejects_a_duplicate_key(tmp_path, capsys):
    path = tmp_path / "twice.yaml"
    path.write_text((SCENARIO_DIR / "fig3_noisy.yaml").read_text() + "dt: 0.5\n")
    assert main(["validate", str(path)]) == 2
    assert f"error: {path}: line 41: duplicate key 'dt'" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 2


def test_run_writes_outputs(short_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(short_scenario), "--out", str(out)]) == 0
    assert (out / "fig3_noisefree.csv").exists()
    assert (out / "fig3_noisefree_summary.txt").exists()
    stdout = capsys.readouterr().out
    assert "final_V:" in stdout


def test_run_seed_override_changes_output(short_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", str(short_scenario), "--out", str(out_a), "--seed", "1"])
    main(["run", str(short_scenario), "--out", str(out_b), "--seed", "2"])
    a = (out_a / "fig3_noisefree.csv").read_bytes()
    b = (out_b / "fig3_noisefree.csv").read_bytes()
    assert a != b


def test_run_decimate(short_scenario, tmp_path):
    out = tmp_path / "out"
    main(["run", str(short_scenario), "--out", str(out), "--decimate", "5"])
    lines = (out / "fig3_noisefree.csv").read_text().splitlines()
    assert len(lines) == 1 + 5  # header + 21 records decimated to ceil(21/5)=5

def test_run_several_files(short_scenario, tmp_path, capsys):
    other = tmp_path / "other.yaml"
    other.write_text(short_scenario.read_text().replace("name: fig3_noisefree", "name: other"))
    out = tmp_path / "out"
    assert main(["run", str(short_scenario), str(other), "--out", str(out), "--decimate", "5"]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "fig3_noisefree.csv", "fig3_noisefree_summary.txt", "other.csv", "other_summary.txt"
    ]
    # same seed and dynamics, so the two runs differ only in their name
    assert (out / "fig3_noisefree.csv").read_bytes() == (out / "other.csv").read_bytes()
    assert len((out / "other.csv").read_text().splitlines()) == 1 + 5
    assert capsys.readouterr().out.count("final_V:") == 2


def _clash(first, second, stem):
    return f"error: {first} and {second} would both write {stem}.csv and {stem}_summary.txt\n"


def test_run_rejects_duplicate_names(short_scenario, tmp_path, capsys):
    copy = tmp_path / "copy.yaml"
    shutil.copy(short_scenario, copy)
    out = tmp_path / "out"
    assert main(["run", str(short_scenario), str(copy), "--out", str(out)]) == 2
    assert capsys.readouterr().err == _clash(short_scenario, copy, "fig3_noisefree")
    assert not out.exists()  # rejected before any run


def test_sweep_cli(short_scenario, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", str(short_scenario), "--param", "gains.k1", "--values", "1.0,2.0", "--out", str(out)]
    )
    assert code == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["fig3_noisefree__gains.k1_1.csv", "fig3_noisefree__gains.k1_2.csv"]


def test_sweep_names_round_trip_values(short_scenario, tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", str(short_scenario), "--param", "seed", "--values", "1000000,1000001"]
    assert main(argv + ["--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["fig3_noisefree__seed_1000001.csv", "fig3_noisefree__seed_1e+06.csv"]
    stdout = capsys.readouterr().out.splitlines()
    assert stdout.count("seed: 1000000") == stdout.count("seed: 1000001") == 1
    assert f"wrote {out / 'fig3_noisefree__seed_1e+06.csv'}" in stdout
    assert f"wrote {out / 'fig3_noisefree__seed_1000001.csv'}" in stdout


def test_sweep_rejects_repeated_value(short_scenario, tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", str(short_scenario), "--param", "gains.k1", "--values", "1,2,1.0"]
    assert main(argv + ["--out", str(out)]) == 2
    clash = _clash("gains.k1=1", "gains.k1=1.0", "fig3_noisefree__gains.k1_1")
    assert capsys.readouterr().err == clash
    assert not out.exists()  # rejected before any run


def test_sweep_reports_and_hashes_as_run_does(short_scenario, tmp_path, capsys):
    # the file's own seed, so the one sweep run is the plain run
    assert main(["run", str(short_scenario), "--out", str(tmp_path / "run")]) == 0
    ran = capsys.readouterr().out.splitlines()
    out = tmp_path / "sweep"
    assert main(["sweep", str(short_scenario), "--param", "seed", "--values", "42", "--out", str(out)]) == 0
    swept = capsys.readouterr().out.splitlines()
    assert swept[:-1] == ran[:-1]
    assert swept[-1] == f"wrote {out / 'fig3_noisefree__seed_42.csv'}"
    digest = hashlib.sha256(short_scenario.read_bytes()).hexdigest()
    summary = (out / "fig3_noisefree__seed_42_summary.txt").read_text().splitlines()
    assert summary == (tmp_path / "run" / "fig3_noisefree_summary.txt").read_text().splitlines()
    assert f"scenario_sha256: {digest}" in summary


@pytest.mark.parametrize(
    "command, dt, extra",
    [("run", "0.3", []), ("sweep", "0.05", ["--param", "dt", "--values", "0.05,0.3"])],
    ids=["run", "sweep"],
)
def test_duration_must_be_whole_steps(short_scenario, tmp_path, capsys, command, dt, extra):
    short_scenario.write_text(short_scenario.read_text().replace("dt: 0.05", f"dt: {dt}"))
    out = tmp_path / "out"
    assert main([command, str(short_scenario), *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # an error from the file names it; one from a sweep value does not
    where = f"{short_scenario}: " if command == "run" else ""
    assert err.startswith(f"error: {where}duration/dt: duration 1 is 3.33333 steps of dt 0.3")
    assert not out.exists()  # rejected before any run


def test_sweep_unknown_param(short_scenario, capsys, tmp_path):
    code = main(
        ["sweep", str(short_scenario), "--param", "gains.k9", "--values", "1.0", "--out", str(tmp_path)]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: unknown keys: gains.k9\n"


def test_sweep_bad_values(short_scenario, capsys, tmp_path):
    code = main(
        ["sweep", str(short_scenario), "--param", "gains.k1", "--values", "a,b", "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("dt: 0.05", "dt: .nan", "dt must be finite, got nan"),
        ("duration: 1.0", "duration: .inf", "duration must be finite, got inf"),
        ("angular_rate: 0.5", "angular_rate: .nan", "trajectory: angular_rate must be finite"),
        (
            "landmark: {family: none}",
            "landmark: {family: gaussian, scale: .nan}",
            "noise.landmark: scale must be finite, got nan",
        ),
    ],
    ids=["dt", "duration", "angular_rate", "landmark_scale"],
)
def test_run_rejects_non_finite_field(short_scenario, tmp_path, capsys, old, new, message):
    text = short_scenario.read_text()
    assert old in text
    short_scenario.write_text(text.replace(old, new))
    assert main(["run", str(short_scenario), "--out", str(tmp_path)]) == 2
    assert f"error: {short_scenario}: {message}" in capsys.readouterr().err


def _box_layout(text):
    start, end = text.index("landmarks:"), text.index("noise:")
    box = "{min: [-1.0e+308, 0.0, 0.0], max: [1.0e+308, 1.0, 1.0]}"
    return text[:start] + f"landmarks:\n  count: 4\n  box: {box}\n\n" + text[end:]


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda text: text.replace("omega: {family: none}", "omega: {family: uniform, scale: 1.0e+308}"),
            "noise.omega: noise scale 1e+308 overflows its span 2 * scale",
        ),
        (_box_layout, "landmarks.box: max - min overflows: 1e+308 - -1e+308"),
        (
            lambda text: text.replace("landmark_offset_scale: 1.0", "landmark_offset_scale: 1.0e+308"),
            "initial_estimate: landmark_offset_scale 1e+308 overflows its span 2 * scale",
        ),
    ],
    ids=["noise_scale", "landmark_box", "landmark_offset_scale"],
)
def test_run_rejects_finite_value_whose_span_overflows(short_scenario, tmp_path, capsys, edit, message):
    # numpy's uniform sampler raises OverflowError on an infinite span
    text = short_scenario.read_text()
    assert edit(text) != text
    short_scenario.write_text(edit(text))
    assert main(["validate", str(short_scenario)]) == 2
    assert main(["run", str(short_scenario), "--out", str(tmp_path)]) == 2
    assert f"error: {short_scenario}: {message}" in capsys.readouterr().err


def test_sweep_rejects_non_finite_value(short_scenario, tmp_path, capsys):
    code = main(
        ["sweep", str(short_scenario), "--param", "dt", "--values", "nan", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "error: dt must be finite, got nan" in capsys.readouterr().err


def test_sweep_rejects_non_integral_int_value(short_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", str(short_scenario), "--param", "seed", "--values", "1.5,1", "--out", str(out)])
    assert code == 2
    assert "error: seed: expected an integer, got 1.5" in capsys.readouterr().err
    assert not out.exists()
    # --values are parsed as floats, so an integral float is a valid seed
    code = main(["sweep", str(short_scenario), "--param", "seed", "--values", "2.0", "--out", str(out)])
    assert code == 0


def test_validate_rejects_too_many_steps(short_scenario, capsys):
    short_scenario.write_text(short_scenario.read_text().replace("duration: 1.0", "duration: 1.0e+12"))
    assert main(["validate", str(short_scenario)]) == 2
    err = capsys.readouterr().err
    assert f"error: {short_scenario}: duration/dt: 2e+13 steps exceed the limit of 1000000" in err


def test_validate_rejects_too_many_landmarks(short_scenario, capsys):
    text = short_scenario.read_text()
    start = text.index("landmarks:")
    end = text.index("noise:")
    layout = "landmarks:\n  count: 1000000000\n  box: {min: [-1, -1, -1], max: [1, 1, 1]}\n\n"
    short_scenario.write_text(text[:start] + layout + text[end:])
    assert main(["validate", str(short_scenario)]) == 2
    err = capsys.readouterr().err
    assert f"error: {short_scenario}: landmarks.count: 1000000000 landmarks exceed the limit of 10000" in err


def test_run_names_the_bad_file(short_scenario, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(short_scenario.read_text().replace("k1: 2.0", "k1: .nan"))
    out = tmp_path / "out"
    assert main(["run", str(short_scenario), str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: gains: k1 must be finite, got nan\n"
    assert not out.exists()  # rejected before any run


def test_validate_names_a_file_that_is_not_a_mapping(tmp_path, capsys):
    listed = tmp_path / "list.yaml"
    listed.write_text("- schema_version: 1\n")
    assert main(["validate", str(listed)]) == 2
    assert capsys.readouterr().err == f"error: {listed}: document: expected a mapping\n"


def test_huge_attitude_gain_ends_in_non_finite_state(short_scenario, tmp_path, capsys):
    # k1 * dt = 5e106 rad: the increment's angle overflows the SO(3) series
    short_scenario.write_text(short_scenario.read_text().replace("k1: 2.0", "k1: 1.0e+108"))
    assert main(["run", str(short_scenario), "--out", str(tmp_path)]) == 2
    assert "error: non-finite pose increment at t=0.0" in capsys.readouterr().err


def test_large_gain_ends_in_non_finite_state(tmp_path, capsys):
    # k3 * dt = 5e3 multiplies the position error each step until it overflows
    text = (SCENARIO_DIR / "fig3_noisefree.yaml").read_text()
    text = text.replace("duration: 20.0", "duration: 1.0").replace("k3: 12.0", "k3: 1.0e+6")
    path = tmp_path / "big_gain.yaml"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: non-finite" in capsys.readouterr().err


def _edit(path, edits):
    text = path.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    path.write_text(text)


# A start 1e308 m out among landmarks as far on either side: the far side's
# measured directions overflow to infinity, in true and in reconstructed mode.
FAR_GEOMETRY = [
    ("initial_position: [2.0, 0.0, 0.5]", "initial_position: [1.0e+308, 0.0, 0.5]"),
    ("- [-3.156, -3.241, 3.121]", "- [1.0e+308, 3.0, 0.0]"),
    ("- [4.233, -2.234, 3.198]", "- [1.0e+308, 0.0, 3.0]"),
    ("- [3.899, 0.130, -2.550]", "- [1.0e+308, -3.0, 1.0]"),
    ("- [3.242, -2.862, 2.415]", "- [-1.0e+308, 0.0, 0.0]"),
]

# Documents that validate but overflow numpy inside the step loop, and the
# error each ends in: a landmark 1e300 m out whose rate overflows under a huge
# k1, a far position estimate or start whose innovations overflow their sum,
# and the far geometry, whose measurements overflow.
STEP_OVERFLOWS = {
    "landmark_rates": (
        [("- [-3.156, -3.241, 3.121]", "- [1.0e+300, 0.0, 0.0]"), ("k1: 2.0", "k1: 1.0e+10")],
        "non-finite state after step at t=0.0",
    ),
    "position_offset": (
        [("position_offset: [0.8, -0.5, 0.4]", "position_offset: [1.0e+308, -0.5, 0.4]")],
        "non-finite pose increment at t=0.0",
    ),
    "initial_position": (
        [("initial_position: [2.0, 0.0, 0.5]", "initial_position: [1.7e+308, 0.0, 0.5]")],
        "non-finite pose increment at t=0.0",
    ),
    "far_geometry": (FAR_GEOMETRY, "non-finite pose increment at t=0.0"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edits, message", STEP_OVERFLOWS.values(), ids=list(STEP_OVERFLOWS))
def test_step_overflow_exits_2_with_warnings_as_errors(short_scenario, tmp_path, capsys, edits, message):
    # the step's finiteness checks report the blow-up, so a RuntimeWarning
    # turned into an error must not cut in first with a traceback
    _edit(short_scenario, edits)
    assert main(["run", str(short_scenario), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def _offset(value):
    return [("position_offset: [0.8, -0.5, 0.4]", f"position_offset: [{value}, -0.5, 0.4]")]


NON_FINITE_DIRECTION = "direction vector with a non-finite or overflowing norm"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "edits, reason",
    [
        (_offset("1.0e+150"), "fewer than 2 non-collinear datum directions"),
        (_offset("1.0e+308"), NON_FINITE_DIRECTION),
        (FAR_GEOMETRY, NON_FINITE_DIRECTION),
    ],
    ids=["collinear", "overflowing", "far_geometry"],
)
def test_reconstructed_first_step_names_the_estimate(tmp_path, capsys, edits, reason):
    # with no earlier solve to fall back on, a far position estimate makes every
    # datum direction point the same way, or at 1e308 m overflows their norms,
    # and the far geometry's measured directions overflow in measure; the solve
    # rejects them (not an overflow warning or numpy's LinAlgError), and the
    # message says where the datum directions come from
    path = tmp_path / "short_reconstructed.yaml"
    path.write_text((SCENARIO_DIR / "reconstructed.yaml").read_text())
    _edit(path, [("duration: 20.0", "duration: 0.05"), *edits])
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert (
        f"error: attitude solve at t=0.0: {reason}; "
        "the datum directions are the estimated landmarks seen from the estimated position"
    ) in capsys.readouterr().err


INITIAL_NOT_FINITE = "initial_estimate: initial position or map is not finite"

# Documents that validate but overflow numpy outside the step, and the error
# each ends in: an initial estimate that sums past float range (the position,
# truth plus offset, or the first landmark's estimate), a helix whose truth
# overflows mid-run, and a landmark so far out that V overflows at t = 0.
OUTSIDE_STEP_OVERFLOWS = {
    "position": (
        [
            ("initial_position: [2.0, 0.0, 0.5]", "initial_position: [1.0e+308, 0.0, 0.5]"),
            ("position_offset: [0.8, -0.5, 0.4]", "position_offset: [1.0e+308, 0.0, 0.0]"),
        ],
        INITIAL_NOT_FINITE,
    ),
    "map": (
        [
            ("- [0.0, 0.0, 0.0]", "- [1.7e+308, 1.7e+308, 1.7e+308]"),
            ("landmark_offset_scale: 1.0", "landmark_offset_scale: 8.0e+307"),
        ],
        INITIAL_NOT_FINITE,
    ),
    "helix_truth": (
        [
            ("family: circle", "family: helix\n  vertical_rate: 1.0e+308"),
            ("duration: 1.0", "duration: 2.0"),
        ],
        "non-finite ground-truth position at t=1.8",
    ),
    "far_landmark": (
        [("- [-3.156, -3.241, 3.121]", "- [1.0e+200, 2.0, 3.0]")],
        "non-finite error metric at t=0.0",
    ),
}


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize(
    "edits, message", OUTSIDE_STEP_OVERFLOWS.values(), ids=list(OUTSIDE_STEP_OVERFLOWS)
)
def test_overflowing_initial_estimate_exits_2(short_scenario, tmp_path, capsys, edits, message, action):
    # whether or not a RuntimeWarning is an error, the run's own check names the blow-up
    _edit(short_scenario, edits)
    assert main(["validate", str(short_scenario)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code = main(["run", str(short_scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{path}", "--decimate", "0"],
        ["run", "{path}", "--seed", "-1"],
        ["sweep", "{path}", "--param", "gains.k1", "--values", "1.0", "--decimate", "0"],
    ],
)
def test_bad_integer_arguments_are_usage_errors(short_scenario, tmp_path, capsys, argv):
    argv = [a.format(path=short_scenario) for a in argv] + ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "must be >=" in err


TINY = """\
schema_version: 1
name: tiny
duration: 0.1
dt: 0.05
gains: {k1: 1.0, k2: 1.0, k3: 1.0}
trajectory: {family: circle, radius: 1.0, angular_rate: 0.5}
landmarks: {count: 3, box: {min: [-1, -1, -1], max: [1, 1, 1]}}
"""


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory of tiny scenario files, the fuzz test's working directory:
    ``run`` writes its outputs to the current directory unless --out is given."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    (root / "tiny.yaml").write_text(TINY)
    (root / "reconstructed.yaml").write_text(
        TINY.replace("name: tiny", "name: recon") + "attitude_mode: reconstructed\n"
    )
    (root / "huge_box.yaml").write_text(
        TINY.replace("name: tiny", "name: huge_box").replace("max: [1, 1, 1]", "max: [1.0e+200, 1, 1]")
    )
    (root / "huge_helix.yaml").write_text(
        TINY.replace("name: tiny", "name: huge_helix")
        .replace("duration: 0.1", "duration: 2.0")
        .replace("family: circle, radius: 1.0, angular_rate: 0.5", "family: helix, vertical_rate: 1.0e+308")
    )
    (root / "bad.yaml").write_text(TINY.replace("schema_version: 1", "schema_version: 2"))
    (root / "garbage.yaml").write_text("{[: not yaml")
    (root / "a_file").write_text("")
    (root / "a_dir").mkdir()
    return root


# Argument vectors built from pools of valid and invalid tokens; free text
# stands in for anything else a shell can pass (no NUL, no lone surrogates).
FREE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6
)
COMMANDS = st.sampled_from(["run", "sweep", "validate", "bogus"])
FILES = st.sampled_from(
    [
        "tiny.yaml", "reconstructed.yaml", "huge_box.yaml", "huge_helix.yaml", "bad.yaml",
        "garbage.yaml", "missing.yaml", "a_dir",
    ]
)
OPTIONS = st.sampled_from(["--out", "--seed", "--decimate", "--param", "--values", "--help"])
VALUES = st.sampled_from(
    [
        "out", "a_file", "0", "1", "3", "-1", "1.5", "x", "99999999999999999999", "gains.k1",
        "dt", "duration", "seed", "landmarks.count", "noise.omega.scale", "name", "gains.k9",
        "1,2", "0.5,2", "nan", "inf,1", "1e400", ",", "-3",
    ]
) | FREE_TEXT


@st.composite
def argument_vectors(draw):
    argv = [draw(COMMANDS)] + draw(st.lists(FILES, max_size=2))
    for option, value in draw(st.lists(st.tuples(OPTIONS, VALUES), max_size=3)):
        argv += [option, value]
    return argv + draw(st.lists(VALUES, max_size=1))


@settings(max_examples=150, deadline=None)
@given(argument_vectors())
def test_cli_fuzz_exits_0_or_2(fuzz_dir, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
