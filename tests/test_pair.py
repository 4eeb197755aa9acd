"""The paired benchmark's statistics and run order (``scripts/pair.py``), on stub jobs."""

from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import SCENARIO_DIR, load_file_module

pair = load_file_module("pair", SCENARIO_DIR.parent / "scripts" / "pair.py")


def jobs_of(values, metric="job_s"):
    """Two correct job records per pair: values is a list of (parent, change) values."""
    return [
        {"pair": i, "side": side, "correct": True, metric: x}
        for i, both in enumerate(values)
        for side, x in zip(pair.SIDES, both)
    ]


def test_paired_ratio_quartiles_and_wins():
    jobs = jobs_of([(1.0, 0.8), (2.0, 1.8), (1.0, 1.0), (2.0, 2.2), (1.0, 1.2)])
    m = pair.paired(jobs, "job_s")
    assert m["ratio"]["median"] == pytest.approx(1.0)
    assert (m["ratio"]["q1"], m["ratio"]["q3"]) == pytest.approx((0.9, 1.1))
    assert m["ratio"]["iqr"] == pytest.approx(0.2)
    assert m["won"] == 2  # a tie counts for neither side
    assert m["pairs"] == 5
    assert m["parent"]["median"] == 1.0 and m["change"]["median"] == 1.2


def test_an_incorrect_job_drops_its_pair():
    jobs = jobs_of([(1.0, 0.5), (1.0, 0.5)])
    failed = [
        {"pair": 2, "side": "parent", "correct": True, "job_s": 1.0},
        {"pair": 2, "side": "change", "correct": False, "job_s": 100.0},
    ]
    assert pair.paired(jobs + failed, "job_s") == pair.paired(jobs, "job_s")


def test_step_us_pairs_per_run_call():
    jobs = jobs_of([([1.0, 2.0], [2.0, 2.0]), ([4.0, 4.0], [2.0, 4.0])], metric="step_us")
    m = pair.paired(jobs, "step_us")
    assert m["pairs"] == 4
    assert m["won"] == 1
    assert m["ratio"]["median"] == pytest.approx(1.0)


@pytest.mark.parametrize("values, complete", [([], 0), ([(1.0, 2.0)], 1)])
def test_fewer_than_two_complete_pairs_give_only_the_count(values, complete):
    lone_parent = [{"pair": 9, "side": "parent", "correct": True, "job_s": 1.0}]
    assert pair.paired(jobs_of(values) + lone_parent, "job_s") == {"pairs": complete}


def test_neither_side_loads_from_the_checkouts_src(tmp_path):
    dirs = pair.copy_trees("HEAD", tmp_path)
    src = pair.ROOT / "src"
    for package in dirs.values():
        assert package.is_relative_to(tmp_path) and not package.is_relative_to(src)
        assert (package / "__init__.py").is_file()
    copied = {p.name: p.read_bytes() for p in dirs["change"].glob("*.py")}
    assert copied == {p.name: p.read_bytes() for p in (src / "se3slam").glob("*.py")}


@pytest.mark.parametrize("first", pair.SIDES)
def test_each_side_runs_first_in_half_the_pairs_of_an_interpreter(first, monkeypatch, tmp_path):
    monkeypatch.setattr(pair, "WORKDIR", tmp_path)
    loaded = []

    def load_tree(alias, path):
        loaded.append((alias, path))
        return SimpleNamespace(run=None), None

    monkeypatch.setattr(pair, "load_tree", load_tree)
    record = {"problems": [], "correct": True, "job_s": 1.0, "step_us": [1.0]}
    monkeypatch.setattr(pair, "attempt", lambda *args: dict(record))
    indices = [0, 2, 4, 6] if first == "parent" else [1, 3, 5, 7]
    dirs = {side: tmp_path / side / "se3slam" for side in pair.SIDES}
    measured = pair.measure_half(dirs, first, indices)
    second = next(side for side in pair.SIDES if side != first)
    assert loaded == [(f"se3slam_{side}", dirs[side]) for side in (first, second)]
    assert measured  # one list of jobs per workload
    for jobs in measured.values():
        assert [job["pair"] for job in jobs] == [i for i in indices for _ in pair.SIDES]
        ran_first = [job["side"] for job in jobs[::2]]
        assert Counter(ran_first) == {"parent": 2, "change": 2}
        assert [job["ran_first"] for job in jobs] == [side for side in ran_first for _ in pair.SIDES]
        assert all(job["first_loaded"] == first for job in jobs)


@pytest.mark.parametrize("pairs", [0, 2, 6, 10])
def test_pairs_must_be_a_multiple_of_4(pairs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        pair.main(["--parent", "HEAD", "--pairs", str(pairs), "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert "multiple of 4" in capsys.readouterr().err
