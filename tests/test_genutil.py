import random

import numpy as np
import pytest

from genutil import random_persymmetric
from palinfrac.jacobi import is_persymmetric


def test_random_persymmetric_draws_separated_mirrors():
    rng = random.Random(5)
    for size in range(2, 11):
        h = random_persymmetric(rng, size)
        assert is_persymmetric(h, 0.0)
        assert np.diff(np.linalg.eigvalsh(h.dense())).min() >= 1e-3


def test_random_persymmetric_gives_up_past_its_draws():
    # at 40 sites no draw of 2000 passed the default gap: the rejection
    # loop ran for good
    with pytest.raises(ValueError, match=r"40 sites with eigenvalue gaps >= 0\.001 in 1000 draws"):
        random_persymmetric(random.Random(7), 40)
