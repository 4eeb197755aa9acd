"""The CSV's number text: ``csvtext.csv_text`` against ``'%.17g' % x``."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, load_file_module
from se3slam import csvtext, runner
from se3slam.metrics import ErrorRecord
from se3slam.runner import run, write_csv
from se3slam.scenario import load_scenario, parse_scenario

OUTPUT_DIGEST = SCENARIO_DIR.parent / "scripts" / "output_digest.py"


def oracle(values: np.ndarray) -> bytes:
    """The CSV lines of a (rows, columns) block by one format call per value."""
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in values.tolist()).encode()


def as_block(values) -> np.ndarray:
    """The values as one CSV row."""
    return np.asarray(values, dtype=float).reshape(1, -1)


def exact_exponent(x: float) -> int:
    """e with 10**e <= |x| < 10**(e + 1), exactly."""
    f = abs(Fraction(x))
    e = math.floor(math.log10(abs(x)))
    e += f >= Fraction(10) ** (e + 1)
    e -= f < Fraction(10) ** e
    return e


def scaled(x: float) -> Fraction:
    """X = |x| * 10**(16 - e), in [1e16, 1e17), exactly."""
    return abs(Fraction(x)) * Fraction(10) ** (16 - exact_exponent(x))


def powers_of_ten() -> list[float]:
    """The double nearest 10**e and both its neighbours, e = -35 ... 35, both signs."""
    near = [float(f"1e{e}") for e in range(-35, 36)]
    values = [y for p in near for y in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
    return values + [-y for y in values]


def ties() -> list[float]:
    """Odd multiples m * 2**-(17 - e) between 10**e and 10**(e + 1): their X is
    an exact half-integer, so their 17th digit is a round-half-even tie. Such
    values exist for e = -7 ... 15."""
    values = []
    for e in range(-7, 16):
        j = 17 - e
        lo = math.ceil(Fraction(10) ** e * 2**j)
        hi = min(math.ceil(Fraction(10) ** (e + 1) * 2**j), 2**53)
        mid = (lo + hi) // 2
        for m in {*range(lo, lo + 20), *range(mid, mid + 20), *range(hi - 20, hi)}:
            if m % 2 and lo <= m < hi:
                values.append(math.ldexp(m, -j))
    return sorted(values)


def carries() -> list[float]:
    """Short decimals k / 100 and powers of ten: among them, values whose 17
    truncated digits end in 9 and round up into trailing zeros, and 1e-14,
    which rounds up to 10**17 at its exponent, -15."""
    return [float(f"{k}e-2") for k in range(1, 1000)] + [1e-14, math.nextafter(1e-14, 0.0)]


def range_edges() -> list[float]:
    values = []
    for edge in (1e-30, 1e30):
        values += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    return values + [-x for x in values]


def big_integers() -> list[float]:
    values = [1e16, 1e16 + 2, 2.0**53, 2.0**53 + 2, 2.0**60 + 256, 99999999999999999.0, 1e17]
    values += [12345678901234567890.0, 1e22, 1e23, 2.0**70, 123456789012345678901234567.0]
    return values + [-x for x in values]


def specials() -> list[float]:
    """Zeros, non-finite values, subnormals and the extremes: all fall back."""
    values = [0.0, math.nan, math.inf, 5e-324, 2.0**-1030, 2.2250738585072014e-308, 1e-300, 1e300]
    return values + [-x for x in values] + [1.7976931348623157e308, -1.7976931348623157e308]


EDGE_CASES = {
    "powers_of_ten": powers_of_ten(),
    "ties": ties(),
    "carries": carries(),
    "range_edges": range_edges(),
    "big_integers": big_integers(),
    "specials": specials(),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_edge_cases_match_percent_g(name):
    values = as_block(EDGE_CASES[name])
    assert csvtext.csv_text(values) == oracle(values)


def test_edge_table_holds_what_it_claims():
    # every tie is an exact half-integer X, about half of them round up, and
    # some short decimals carry through trailing 9s
    assert len(EDGE_CASES["ties"]) > 400
    tie_scaled = [scaled(x) for x in EDGE_CASES["ties"]]
    assert all(s.denominator == 2 for s in tie_scaled)
    assert sum(math.floor(s) % 2 == 1 for s in tie_scaled) > 100
    carried = [x for x in EDGE_CASES["carries"] if math.floor(scaled(x)) % 10 == 9 and round(scaled(x)) % 10 == 0]
    assert len(carried) > 20
    assert f"{1e-14:.17g}" == "1e-14" and f"{1e-06:.17g}" == "9.9999999999999995e-07"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=60), st.integers(1, 4))
def test_arbitrary_floats_match_percent_g(values, rows):
    # NaN, both infinities, both zeros and subnormals included
    values = np.array(values * rows).reshape(rows, -1)
    assert csvtext.csv_text(values) == oracle(values)


@pytest.mark.parametrize("seed", range(3))
def test_random_bit_patterns_match_percent_g(seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 40000, dtype=np.uint64).view(np.float64)
    spread = rng.standard_normal(40000) * 10.0 ** rng.integers(-32, 32, 40000)
    for values in (bits, spread):
        values = values.reshape(200, -1)
        assert csvtext.csv_text(values) == oracle(values)


def test_successive_blocks_of_other_shapes():
    a, b = np.array([[0.1, 2.5]]), np.array([[1e-7], [3.0]])
    assert csvtext.csv_text(a) == b"0.10000000000000001,2.5\n"
    assert csvtext.csv_text(b) == b"9.9999999999999995e-08\n3\n"
    assert csvtext.csv_text(a) == b"0.10000000000000001,2.5\n"


@pytest.fixture(scope="module")
def fig3_records():
    return run(load_scenario(SCENARIO_DIR / "fig3_noisy.yaml")[0]).records


@pytest.fixture(scope="module")
def dense_records():
    """One run of the benchmark's generated dense scenario at seed 0."""
    text = load_file_module("output_digest", OUTPUT_DIGEST).DENSE_SCENARIO
    return run(parse_scenario(yaml.safe_load(text.format(seed=0)))).records


def counted_exact_text(monkeypatch):
    """A list that grows by the value of each call of csvtext.exact_text."""
    calls, exact_text = [], csvtext.exact_text

    def counted(x):
        calls.append(x)
        return exact_text(x)

    monkeypatch.setattr(csvtext, "exact_text", counted)
    return calls


@pytest.mark.parametrize("records", ["fig3_records", "dense_records"])
def test_only_t0_falls_back(records, request, tmp_path, monkeypatch):
    records = request.getfixturevalue(records)
    calls = counted_exact_text(monkeypatch)
    write_csv(records, tmp_path / "out.csv")
    assert calls == [0.0]


@pytest.mark.parametrize("x", [1e-06, 1e-14], ids=["power_of_ten_neighbour", "rounds_to_1e17"])
def test_first_guess_off_by_one_falls_back(x, monkeypatch):
    # floor(log10(x)) is one too high for the double nearest 1e-06; at the
    # exponent below, 1e-14's 17 digits round up to 10**17
    calls = counted_exact_text(monkeypatch)
    for sign in (1.0, -1.0):
        values = as_block([sign * x])
        assert csvtext.csv_text(values) == oracle(values)
    assert calls == [x, -x]


def test_fallback_alone_gives_the_same_bytes(fig3_records, tmp_path, monkeypatch):
    # a certificate that rejects every value sends each one to '%.17g' % x
    write_csv(fig3_records, tmp_path / "fast.csv")
    calls = counted_exact_text(monkeypatch)
    monkeypatch.setattr(csvtext, "TIE_MARGIN", 1.0)
    write_csv(fig3_records, tmp_path / "fallback.csv")
    assert len(calls) == fig3_records.map_error.size * 2 + len(fig3_records) * 5
    assert (tmp_path / "fallback.csv").read_bytes() == (tmp_path / "fast.csv").read_bytes()


def test_a_certificate_that_accepts_ties_fails_them(monkeypatch):
    values = as_block(EDGE_CASES["ties"])
    monkeypatch.setattr(csvtext, "TIE_MARGIN", -1.0)
    got = csvtext.csv_text(values).split(b",")
    want = oracle(values).split(b",")
    assert sum(g != w for g, w in zip(got, want)) > 100


def synthetic_record(rows: int, landmarks: int) -> ErrorRecord:
    """A record of the given size with values spread over many decades."""
    rng = np.random.default_rng(rows * 1000 + landmarks)

    def spread(*shape):
        return rng.random(shape) * 10.0 ** rng.integers(-12, 3, shape)

    return ErrorRecord(
        time=np.arange(rows) * 0.005,
        lyapunov=spread(rows),
        attitude_error_angle=spread(rows),
        position_error=spread(rows),
        map_error=spread(rows, landmarks),
        relative_map_error=spread(rows, landmarks),
        attitude_source_ok=np.ones(rows, bool),
    )


def write_csv_peak(records, path) -> int:
    write_csv(records, path)  # first call: any lazy imports and caches
    tracemalloc.start()
    try:
        write_csv(records, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows, landmarks", [(4001, 8), (101, 256)])
def test_write_csv_memory_is_bounded_by_the_block(rows, landmarks, tmp_path):
    # a block of CSV_BLOCK_VALUES values costs about 170 bytes per value (its
    # slots, its text and the formatter's scratch arrays); the record's size
    # does not enter
    budget = runner.CSV_BLOCK_VALUES * 256
    peak = write_csv_peak(synthetic_record(rows, landmarks), tmp_path / "a.csv")
    doubled = write_csv_peak(synthetic_record(2 * rows, landmarks), tmp_path / "b.csv")
    assert peak < budget and doubled < budget
    assert doubled < peak + 16 * 1024
