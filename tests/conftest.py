"""Shared fixtures and independent reference oracles for the test suite."""

import numpy as np
import pytest


def left_mult_matrix(q) -> np.ndarray:
    """The 4x4 real matrices of left multiplication by (...,4) quaternions q.

    Independent formulation of the Hamilton product used as an oracle: the
    product q*r equals left_mult_matrix(q) @ r.
    """
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        np.stack([w, -x, -y, -z], axis=-1),
        np.stack([x, w, -z, y], axis=-1),
        np.stack([y, z, w, -x], axis=-1),
        np.stack([z, -y, x, w], axis=-1),
    ], axis=-2)


def ref_mul(q, r) -> np.ndarray:
    """q*r for (...,4) arrays, broadcasting, through left_mult_matrix."""
    return (left_mult_matrix(q) @ np.asarray(r, dtype=float)[..., None])[..., 0]


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
        return v
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
