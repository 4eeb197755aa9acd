from pathlib import Path

import numpy as np
import pytest

from se3slam.liegroup import exp_so3
from se3slam.metrics import ErrorRecord

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_so3(axis * rng.uniform(0.0, max_angle))


def stack_records(records) -> ErrorRecord:
    """One stacked ErrorRecord from single-instant records, row i from records[i]."""
    return ErrorRecord(*map(np.array, zip(*(r.columns() for r in records))))
