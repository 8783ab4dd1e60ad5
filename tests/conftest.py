import math

import pytest

from affinevis.linalg2 import AffineMap2, Mat2
from affinevis.scenarios import carpet_ifs, positive_cone_ifs
from affinevis.symbolic import IFS


@pytest.fixture(scope="session")
def carpet():
    """Three-map carpet with linear part diag(1/3, 1/2)."""
    return carpet_ifs()


@pytest.fixture(scope="session")
def positive_pair():
    """Two positive matrices (scaled to contractions) sharing an invariant cone."""
    return positive_cone_ifs()


@pytest.fixture(scope="session")
def rotation_pair():
    """Rotation by pi/2 mixed with a diagonal map; destroys domination."""
    d = Mat2.diag(0.5, 0.25)
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    r = Mat2(c, -s, s, c) @ d
    return IFS((AffineMap2(r, (0.0, 0.0)), AffineMap2(d, (0.5, 0.5))))


@pytest.fixture(scope="session")
def single_map():
    return IFS((AffineMap2(Mat2.diag(1.0 / 3.0, 0.5), (0.2, 0.4)),))
