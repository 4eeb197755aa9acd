import shutil

import pytest

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
