import numpy as np
import pytest

import richlines as rl
from richlines.numberfield import Element
from richlines.geometry import Point

# every basis of the arithmetic acceptance criteria, degree 4 included
ARITH_BASES = (
    rl.build_integers_basis(),
    rl.build_quadratic_basis(2),
    rl.build_quadratic_basis(5),
    rl.build_quadratic_basis(-1),
    rl.build_power_basis([-2, 0, 0]),
    rl.build_power_basis([-1, -1, 0, 0]),
)

# each threshold of numberfield._exact_dtype: the largest bound its dtype
# holds, that dtype, and the dtype one step past it
DTYPE_THRESHOLDS = (
    (127, np.int8, np.int16),
    (2**15 - 1, np.int16, np.int32),
    (2**31 - 1, np.int32, np.int64),
    (2**63 - 1, np.int64, object),
)


@pytest.fixture(scope="session")
def integers():
    return rl.build_integers_basis()


@pytest.fixture(scope="session")
def sqrt2():
    return rl.build_quadratic_basis(2)


@pytest.fixture(scope="session")
def cbrt2():
    return rl.build_power_basis([-2, 0, 0])


def make_point(basis, xcoords, ycoords):
    return Point(Element(basis, xcoords), Element(basis, ycoords))


def int_point(basis, x, y):
    """Degree-1 convenience: a point (x, y) over the integers basis."""
    return Point(Element(basis, (x,)), Element(basis, (y,)))
