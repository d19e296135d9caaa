"""The H^3 extension sweep against its loop and broadcast references.

The sweep folds the stabilizer moves and the conjugations into the probe
and builds the special families in batches; tests/oracles.py keeps the
broadcast prefilter, the per-candidate scan and the one-member-at-a-time
family builder that it replaced.
"""

import math

import numpy as np
import pytest
from oracles import (MOVES, broadcast_prefilter, ellipse_point,
                     extend_search_loop, left_move, special3_scalar,
                     special_family_points_loop)

from qstoch import hadamard, mub
from qstoch.errors import NoRealSolution
from qstoch.qmatrix import fourier, identity
from qstoch.quaternion import Quaternion

R32 = math.sqrt(3.0) / 2.0
COARSE_TOL = 1e-3 + 1e-9


def cube_root(theta: float) -> Quaternion:
    return Quaternion(-0.5, R32 * math.cos(theta), R32 * math.sin(theta), 0.0)


def make_set(kind: str, grid: int) -> mub.MubSet:
    if kind == "one_param":
        return mub.one_param_h3(R32 * math.cos(0.7), R32 * math.sin(0.7))
    if kind == "three_param":
        return mub.three_param_h3(*(cube_root(2 * math.pi * k / 3)
                                    for k in range(3)))
    if kind == "pair":
        return mub.MubSet(3, (identity(3), fourier(3)))
    # the third basis at an angle of the sweep's grid
    th = 2 * math.pi / grid
    return mub.MubSet(3, mub.one_param_h3(R32 * math.cos(th),
                                          R32 * math.sin(th)).bases[:3])


@pytest.mark.parametrize("kind", ["one_param", "three_param", "pair", "prefix3"])
@pytest.mark.parametrize("grid,conj_grid", [(6, 4), (8, 16)])
def test_prefilter_survivors_match_broadcast(kind, grid, conj_grid):
    targets = [b.data for b in make_set(kind, grid).bases]
    probe = targets[2][:, 0, :] if len(targets) > 2 else targets[1][:, 0, :]
    transforms = mub._conj_transforms(conj_grid)
    fold = mub._fold_probe(probe, transforms)
    total = 0
    for _fam, batch in mub._family_batches(grid):
        got = np.argwhere(mub._prefilter(batch, fold, COARSE_TOL))
        _, want = broadcast_prefilter(batch, probe, transforms, COARSE_TOL)
        assert np.array_equal(got, want)
        total += len(want)
    assert total > 0


def test_moved_frames_match_left_moves():
    batch = hadamard.special_family_points("s5", 6)
    for mv, (shift, zpow) in enumerate(MOVES):
        got = mub._moved_frames(batch, np.arange(len(batch)),
                                np.full(len(batch), mv))
        assert np.array_equal(got, left_move(batch, shift, zpow))


@pytest.mark.parametrize("family", ["s1", "s2", "s3", "s4", "s5"])
@pytest.mark.parametrize("resolution", [6, 8, 13])
def test_special_families_match_scalar_loop(family, resolution):
    got = hadamard.special_family_points(family, resolution)
    want = special_family_points_loop(family, resolution)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def test_ellipse_solution_matches_scalar_completion():
    rng = np.random.default_rng(4)
    b0 = rng.normal(0.0, 0.8, (200, 4))
    bw = rng.normal(0.0, 1.0, (200, 4, 2))
    psi = rng.uniform(0.0, 2 * np.pi, 200)
    given = rng.uniform(size=200) < 0.9
    got, ok = hadamard._ellipse_solution(b0, bw, psi, given)
    solved = 0
    for row in range(200):
        want = ellipse_point(b0[row], bw[row], psi[row]) if given[row] else None
        assert ok[row] == (want is not None)
        if want is not None:
            solved += 1
            assert np.max(np.abs(got[row] - want)) <= 1e-12
    assert 0 < solved < given.sum()


def test_special3_is_one_row_of_the_batch():
    rng = np.random.default_rng(3)
    variants = {"s1": 1, "s2": 2, "s3": 2, "s4": 8, "s5": 16}
    infeasible = 0
    for family, count in variants.items():
        for _ in range(40):
            params = list(rng.uniform(0.0, 2 * np.pi, 1 if family == "s4" else 2))
            if family == "s5":
                params[0] = rng.uniform(-0.7, 1.2)
            variant = int(rng.integers(count))
            want = special3_scalar(family, params, variant)
            if want is None:
                infeasible += 1
                with pytest.raises(NoRealSolution):
                    hadamard.special3(family, params, variant)
                continue
            got = hadamard.special3(family, params, variant).data
            assert np.max(np.abs(got - want)) <= 1e-12
    assert infeasible > 0


@pytest.mark.parametrize("kind", ["pair", "prefix3"])
def test_extend_search_matches_scan(kind):
    s = make_set(kind, 8)
    state = mub._SearchState()
    found = mub.extend_search(s, 8, 16, state=state)
    want, checked, near = extend_search_loop(s, 8, 16)
    assert found is not None and want is not None
    assert np.max(np.abs(found.data - want)) <= 1e-12
    assert (state.checked, state.near_misses) == (checked, near)


@pytest.mark.parametrize("kind", ["one_param", "three_param"])
def test_exhausted_sweep_counts_match_scan(kind):
    s = make_set(kind, 8)
    state = mub._SearchState()
    assert mub.extend_search(s, 8, 16, state=state) is None
    want, checked, near = extend_search_loop(s, 8, 16)
    assert want is None
    assert (state.checked, state.near_misses) == (checked, near)
