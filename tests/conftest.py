from fractions import Fraction

import pytest

from swapalg.circle import PointConfig


@pytest.fixture
def grid_config():
    """Ten evenly spaced labeled points."""
    config = PointConfig()
    points = [config.point(f"p{i}", Fraction(i, 10)) for i in range(10)]
    return config, points
