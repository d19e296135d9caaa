import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (alpha_coeffs, circle_point, generic3_scan,
                     mub3_system_broadcast, phi_circle_roots_scan, phi_value,
                     system_dets_arr, unbiased_system)
from qstoch.errors import BadParams, DegenerateP, NoRealSolution
from qstoch.hadamard import (OMEGA, Generic4Params, Special4Params,
                             alphas_arr, family3_matrix, generic3, generic4,
                             mub3_system_arr, p_value, phi_circle_roots_arr,
                             read_family3, special3, special4,
                             special_family_points, verify_family3)
from qstoch.qmatrix import fourier, qmat_adjoint, qmat_mul, qnormsq
from qstoch.quaternion import I as QI
from qstoch.quaternion import J as QJ
from qstoch.quaternion import K as QK
from qstoch.quaternion import ONE, Quaternion

F3 = fourier(3)


def unbiased_to_fourier_dev(m) -> float:
    gram = qmat_mul(qmat_adjoint(F3.data), m.data / math.sqrt(3))
    return float(np.max(np.abs(qnormsq(gram) - 1.0 / 3.0)))


def random_unit(rng) -> Quaternion:
    v = rng.standard_normal(4)
    return Quaternion(*(v / np.linalg.norm(v)))


class TestSpecial4:
    def test_real_point_is_hadamard4(self):
        h = special4(Special4Params(ONE, ONE))
        expect = np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                           [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
        assert np.max(np.abs(h.data[..., 0] - expect)) < 1e-15
        assert h.max_imag() == 0.0

    def test_witness_point(self):
        b = Quaternion(1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0)
        h = special4(Special4Params(QI, b))
        assert h.is_hadamard(1e-12)

    def test_grid_members_are_hadamard(self, rng):
        for _ in range(60):
            al, be = rng.uniform(0, 2 * np.pi, 2)
            a = Quaternion(math.cos(al), math.sin(al), 0, 0)
            b = Quaternion(math.cos(be), 0, math.sin(be), 0)
            assert special4(Special4Params(a, b)).is_hadamard(1e-10)

    def test_rejects_bad_span(self):
        with pytest.raises(BadParams):
            Special4Params(QJ, ONE)
        with pytest.raises(BadParams):
            Special4Params(ONE, Quaternion(0.6, 0.8, 0, 0))


class TestGeneric4:
    def test_b_formula_matches_closed_form(self, rng):
        # b = -(1 + a_hat)^2 / |1 + a_hat|^2
        for _ in range(30):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            a = Quaternion(v[0], v[1], v[2], 0)
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            x = Quaternion(0, u[0], u[1], 0)
            m = generic4(Generic4Params(a, x))
            ahat = Quaternion(a.w, a.x, 0, 0)
            one_plus = ONE + ahat
            closed = -(one_plus * one_plus) / one_plus.norm_sq()
            assert m.entry(1, 2).approx_eq(closed, 1e-12)

    def test_members_are_hadamard_with_unit_closing_column(self, rng):
        for _ in range(60):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            a = Quaternion(v[0], v[1], v[2], 0)
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            x = Quaternion(0, u[0], u[1], 0)
            m = generic4(Generic4Params(a, x))
            assert m.is_hadamard(1e-9)
            assert m.entry(1, 3).norm() == pytest.approx(1.0, abs=1e-9)

    def test_pole_rejected(self):
        with pytest.raises(BadParams):
            Generic4Params(Quaternion(-1, 0, 0, 0), QI)


class TestScalarInvariants:
    def test_p_value_examples(self):
        assert p_value(ONE, 0.3, 0.2) == 0.0
        assert p_value(QK, math.sqrt(3) / 2, 0.0) == pytest.approx(math.sqrt(3) / 2)
        assert p_value(OMEGA, 0.1, 0.7) == 0.0

    def test_phi_value_examples(self):
        assert phi_value(ONE, 0.5, 0.5) == 0.0
        # at a = -1 the alphas collapse to (2, 0, 2)
        assert alpha_coeffs(Quaternion(-1, 0, 0, 0)) == (2.0, 0.0, 2.0)
        for s, t in ((0.1, 0.2), (0.5, -0.3)):
            assert phi_value(Quaternion(-1, 0, 0, 0), s, t) == \
                pytest.approx(8 * s * s + 2)


class TestUnbiasedSystem:
    def test_determinant_identity_d5(self, rng):
        for _ in range(200):
            a = random_unit(rng)
            s, t = circle_point(rng.uniform(0, 2 * np.pi))
            _, _, dets = unbiased_system(a, s, t)
            assert dets[4] == pytest.approx(3 * p_value(a, s, t) ** 2, abs=1e-9)

    def test_determinant_identity_sum_squares(self, rng):
        for _ in range(200):
            a = random_unit(rng)
            s, t = circle_point(rng.uniform(0, 2 * np.pi))
            _, _, d = unbiased_system(a, s, t)
            lhs = 8 * (d[0] ** 2 + d[1] ** 2 + d[2] ** 2 + d[3] ** 2 - d[4] ** 2)
            rhs = 9 * d[4] * phi_value(a, s, t)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_a_one_degenerates(self):
        _, _, dets = unbiased_system(ONE, math.sqrt(3) / 2, 0.0)
        assert abs(dets[4]) < 1e-12

    def test_rejects_off_circle(self):
        with pytest.raises(BadParams):
            unbiased_system(ONE, 0.5, 0.5)

    def test_vectorized_matches_scalar(self, rng):
        a_arr = rng.standard_normal((20, 4))
        a_arr /= np.linalg.norm(a_arr, axis=1, keepdims=True)
        th = rng.uniform(0, 2 * np.pi, 20)
        zeta = np.zeros((20, 4))
        zeta[:, 0] = -0.5
        zeta[:, 1] = (math.sqrt(3) / 2) * np.cos(th)
        zeta[:, 2] = (math.sqrt(3) / 2) * np.sin(th)
        b_arr, v_arr = mub3_system_arr(a_arr, zeta)
        d_arr = system_dets_arr(b_arr, v_arr)
        for k in range(20):
            b_s, v_s, d_s = unbiased_system(Quaternion(*a_arr[k]),
                                            zeta[k, 1], zeta[k, 2])
            assert np.max(np.abs(b_arr[k] - b_s)) < 1e-12
            assert np.max(np.abs(v_arr[k] - v_s)) < 1e-12
            assert np.max(np.abs(d_arr[k] - np.array(d_s))) < 1e-10


    def test_closed_form_matches_broadcast(self, rng):
        a = rng.standard_normal((500, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        th = rng.uniform(0, 2 * np.pi, 500)
        zeta = np.zeros((500, 4))
        zeta[:, 0] = -0.5
        zeta[:, 1] = (math.sqrt(3) / 2) * np.cos(th)
        zeta[:, 2] = (math.sqrt(3) / 2) * np.sin(th)
        b_arr, v_arr = mub3_system_arr(a, zeta)
        b_ref, v_ref = mub3_system_broadcast(a, zeta)
        assert np.max(np.abs(b_arr - b_ref)) <= 1e-14
        assert np.max(np.abs(v_arr - v_ref)) <= 1e-14


def _outcome(build):
    try:
        m = build()
    except DegenerateP:
        return "degenerate"
    return "none" if m is None else np.asarray(getattr(m, "data", m))


def _assert_same_outcome(a, scan_roots):
    for branch in "+-":
        got = _outcome(lambda: generic3(a, branch))
        want = _outcome(lambda: generic3_scan(a, branch, scan_roots))
        if isinstance(want, str):
            assert isinstance(got, str) and got == want, (a, branch)
        else:
            assert not isinstance(got, str), (a, branch, got)
            assert np.max(np.abs(got - want)) <= 1e-12, (a, branch)


# A unit a from four coordinates, kept only where the 720-point scan can
# resolve phi's roots: each root at least two scan cells from the next and
# from the scan's endpoint angle 0 (closer or tangent roots show no sign
# change), and phi either exactly zero or above rounding level on the circle
_SCAN_CELL = 2 * np.pi / 720
unit_quaternions = st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(
    lambda v: Quaternion(*(np.array(v) / np.linalg.norm(v))))


class TestGeneric3:
    def test_matches_scan_oracle(self, rng):
        for _ in range(2000):
            a = rng.standard_normal(4)
            a = Quaternion(*(a / np.linalg.norm(a)))
            _assert_same_outcome(a, phi_circle_roots_scan(a))

    @settings(max_examples=60, deadline=None)
    @given(unit_quaternions)
    def test_matches_scan_oracle_on_drawn_points(self, a):
        alphas = np.abs(alphas_arr(a.as_array()))
        assume(alphas.max() == 0.0 or alphas.max() > 1e-12)
        thetas, valid = phi_circle_roots_arr(a.as_array()[None, :])
        marks = np.sort(np.concatenate([thetas[valid], [0.0, 2 * np.pi]]))
        assume(np.min(np.diff(marks)) > 2 * _SCAN_CELL)
        _assert_same_outcome(a, phi_circle_roots_scan(a))

    def test_members_hadamard_and_unbiased(self, rng):
        produced = 0
        while produced < 15:
            a = random_unit(rng)
            try:
                m = generic3(a, "+")
            except DegenerateP:
                continue
            if m is None:
                continue
            produced += 1
            assert m.is_hadamard(1e-9)
            assert unbiased_to_fourier_dev(m) < 1e-9
            _, b, _ = read_family3(m)
            assert b.norm() == pytest.approx(1.0, abs=1e-9)
            assert verify_family3(m, "generic", 1e-7)
            a_read, _, zeta = read_family3(m)
            assert a_read.approx_eq(a, 1e-12)
            assert zeta.x ** 2 + zeta.y ** 2 == pytest.approx(0.75, abs=1e-9)

    def test_branches_pick_different_roots(self, rng):
        for _ in range(50):
            a = random_unit(rng)
            roots = phi_circle_roots_scan(a)
            if len(roots) < 2:
                continue
            try:
                mp = generic3(a, "+")
                mm = generic3(a, "-")
            except DegenerateP:
                continue
            if mp is None or mm is None:
                continue
            assert not mp.approx_eq(mm, 1e-6)
            break

    def test_a_one_is_degenerate(self):
        with pytest.raises(DegenerateP):
            generic3(ONE, "+")

    def test_analytic_roots_match_scan(self, rng):
        for _ in range(40):
            a = random_unit(rng)
            scan = sorted(phi_circle_roots_scan(a))
            thetas, valid = phi_circle_roots_arr(a.as_array()[None, :])
            analytic = sorted(set(np.round(thetas[0][valid[0]], 9) % (2 * np.pi)))
            if not scan:
                assert not valid[0].any() or all(
                    abs(phi_value(a, *circle_point(th))) < 1e-7
                    for th in thetas[0][valid[0]])
                continue
            assert len(analytic) >= len(scan)
            for r in scan:
                assert min(abs(r - x) for x in analytic) < 1e-6


class TestSpecial3:
    def test_each_family_constructs_valid_members(self, rng):
        specs = [("s1", lambda: (rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0, 2 * np.pi)), 1),
                 ("s2", lambda: (rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0, 2 * np.pi)), 2),
                 ("s3", lambda: (rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0, 2 * np.pi)), 2),
                 ("s4", lambda: (rng.uniform(0, 2 * np.pi),), 8),
                 ("s5", lambda: (rng.uniform(-0.45, 0.95),
                                 rng.uniform(0, 2 * np.pi)), 16)]
        for family, draw, variants in specs:
            produced = 0
            while produced < 8:
                try:
                    m = special3(family, draw(), int(rng.integers(variants)))
                except NoRealSolution:
                    continue
                produced += 1
                assert m.is_hadamard(1e-9), family
                assert unbiased_to_fourier_dev(m) < 1e-9, family
                assert verify_family3(m, family, 1e-7), family

    def test_s4_forces_s_zero(self):
        m = special3("s4", (1.2,), 2)
        _, _, zeta = read_family3(m)
        assert abs(zeta.x) < 1e-12
        assert abs(abs(zeta.y) - math.sqrt(3) / 2) < 1e-12

    def test_s5_infeasible_signs_rejected(self):
        hits = 0
        for variant in range(16):
            try:
                special3("s5", (0.2, 1.3), variant)
            except NoRealSolution:
                hits += 1
        assert 0 < hits < 16

    def test_cross_family_verification_fails(self):
        m = special3("s1", (0.3, 1.1))
        assert not verify_family3(m, "s2", 1e-9)
        assert not verify_family3(m, "s4", 1e-9)

    def test_fourier_variant_is_family1(self):
        # a = 1, b = omega, zeta = omega satisfies the family 1 restrictions
        m = family3_matrix(ONE, OMEGA, OMEGA)
        assert verify_family3(m, "s1", 1e-12)

    def test_unknown_family(self):
        with pytest.raises(BadParams):
            special3("s9", (0.0,))


class TestFamilySweeps:
    def test_special_points_unbiased(self):
        for family in ("s1", "s2", "s3", "s4", "s5"):
            pts = special_family_points(family, 6)
            assert pts.shape[0] > 0
            gram = qmat_mul(qmat_adjoint(F3.data)[None], pts / math.sqrt(3))
            assert np.max(np.abs(qnormsq(gram) - 1.0 / 3.0)) < 5e-7

    def test_generic_chunks_unbiased(self):
        from qstoch.hadamard import generic_family_chunks
        total = 0
        for batch in generic_family_chunks(6):
            total += batch.shape[0]
            gram = qmat_mul(qmat_adjoint(F3.data)[None], batch / math.sqrt(3))
            assert np.max(np.abs(qnormsq(gram) - 1.0 / 3.0)) < 1e-7
        assert total > 0
