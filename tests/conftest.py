"""Shared fixtures and independent reference oracles for the test suite."""

import numpy as np
import pytest

from qstoch.quaternion import Quaternion


def left_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of left multiplication by q.

    Independent formulation of the Hamilton product used as an oracle: the
    product q*r equals left_mult_matrix(q) @ r.as_array().
    """
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ])


def ref_mul(q: Quaternion, r: Quaternion) -> Quaternion:
    return Quaternion(*(left_mult_matrix(q) @ r.as_array()))


def qdiag(entries) -> np.ndarray:
    """The (n, n, 4) array of the diagonal matrix with these quaternions."""
    n = len(entries)
    out = np.zeros((n, n, 4))
    out[np.arange(n), np.arange(n)] = [q.as_array() for q in entries]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240819)


@pytest.fixture
def random_quaternion(rng):
    def draw(unit=False):
        v = rng.standard_normal(4)
        if unit:
            v /= np.linalg.norm(v)
        return Quaternion(*v)
    return draw


@pytest.fixture
def small_entry_witness():
    """A 3x3 bistochastic matrix with entries near 2e-4 that is not
    orthostochastic, while its n = 3 quartic residual is only 3e-11."""
    w = 1.98798764e-04
    return np.array([
        [1.0 - w, w, 0.0],
        [0.0, 1.0 - 0.972075668 - w, 0.972075668 + w],
        [w, 0.972075668, 1.0 - 0.972075668 - w],
    ])
