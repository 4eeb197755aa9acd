import contextlib
import io
import os
import shutil

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


def test_run_rejects_duplicate_names(short_scenario, tmp_path, capsys):
    copy = tmp_path / "copy.yaml"
    shutil.copy(short_scenario, copy)
    out = tmp_path / "out"
    assert main(["run", str(short_scenario), str(copy), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "share the name 'fig3_noisefree'" in err
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
    stdout = capsys.readouterr().out
    assert "seed=1e+06: " in stdout and "seed=1000001: " in stdout


def test_sweep_rejects_repeated_value(short_scenario, tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", str(short_scenario), "--param", "gains.k1", "--values", "1,2,1.0"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "error: --values repeats a value" in capsys.readouterr().err
    assert not out.exists()  # rejected before any run


def test_sweep_unknown_param(short_scenario, capsys, tmp_path):
    code = main(
        ["sweep", str(short_scenario), "--param", "gains.k9", "--values", "1.0", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_bad_values(short_scenario, capsys, tmp_path):
    code = main(
        ["sweep", str(short_scenario), "--param", "gains.k1", "--values", "a,b", "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("dt: 0.05", "dt: .nan", "dt: must be finite"),
        ("duration: 1.0", "duration: .inf", "duration: must be finite"),
        ("angular_rate: 0.5", "angular_rate: .nan", "trajectory: angular_rate must be finite"),
        (
            "landmark: {family: none}",
            "landmark: {family: gaussian, scale: .nan}",
            "noise.landmark.scale: must be finite",
        ),
    ],
    ids=["dt", "duration", "angular_rate", "landmark_scale"],
)
def test_run_rejects_non_finite_field(short_scenario, tmp_path, capsys, old, new, message):
    text = short_scenario.read_text()
    assert old in text
    short_scenario.write_text(text.replace(old, new))
    assert main(["run", str(short_scenario), "--out", str(tmp_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


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
    assert f"error: {message}" in capsys.readouterr().err


def test_sweep_rejects_non_finite_value(short_scenario, tmp_path, capsys):
    code = main(
        ["sweep", str(short_scenario), "--param", "dt", "--values", "nan", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "error: dt: must be finite" in capsys.readouterr().err


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
    assert "error: duration/dt: 2e+13 steps exceed the limit of 1000000" in capsys.readouterr().err


def test_validate_rejects_too_many_landmarks(short_scenario, capsys):
    text = short_scenario.read_text()
    start = text.index("landmarks:")
    end = text.index("noise:")
    layout = "landmarks:\n  count: 1000000000\n  box: {min: [-1, -1, -1], max: [1, 1, 1]}\n\n"
    short_scenario.write_text(text[:start] + layout + text[end:])
    assert main(["validate", str(short_scenario)]) == 2
    err = capsys.readouterr().err
    assert "error: landmarks.count: 1000000000 landmarks exceed the limit of 10000" in err


def test_huge_attitude_gain_ends_in_non_finite_state(short_scenario, tmp_path, capsys):
    # k1 * dt = 5e106 rad: the increment's angle overflows the SO(3) series
    short_scenario.write_text(short_scenario.read_text().replace("k1: 2.0", "k1: 1.0e+108"))
    assert main(["run", str(short_scenario), "--out", str(tmp_path)]) == 2
    assert "error: non-finite pose increment at t=0.0" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_large_gain_ends_in_non_finite_state(tmp_path, capsys):
    # k3 * dt = 5e3 multiplies the position error each step until it overflows
    text = (SCENARIO_DIR / "fig3_noisefree.yaml").read_text()
    text = text.replace("duration: 20.0", "duration: 1.0").replace("k3: 12.0", "k3: 1.0e+6")
    path = tmp_path / "big_gain.yaml"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: non-finite" in capsys.readouterr().err


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
    ["tiny.yaml", "reconstructed.yaml", "bad.yaml", "garbage.yaml", "missing.yaml", "a_dir"]
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
