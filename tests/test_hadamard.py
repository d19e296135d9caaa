import ast
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (alpha_coeffs, circle_point, generic3_scan,
                     mub3_system_broadcast, phi_circle_roots_scan, phi_value,
                     system_dets_arr, unbiased_system)
import qstoch
from qstoch import hadamard
from qstoch.errors import DegenerateP, NoRealSolution, QStochError
from qstoch.hadamard import (OMEGA, R32, Generic4Params, Special4Params,
                             alphas_arr, family3_matrix_arr, generic3,
                             generic4, mub3_system_arr, on_zeta_circle, p_arr,
                             phi_circle_roots_arr, read_family3, special3,
                             special4, special_family_points,
                             special_family_rows, verify_family3)
from qstoch.qmatrix import QMatrix, fourier, qmat_adjoint, qmat_mul
from qstoch.quaternion import I as QI
from qstoch.quaternion import J as QJ
from qstoch.quaternion import K as QK
from qstoch.quaternion import ONE, Quaternion, qnorm, qnormsq

from conftest import ref_mul

F3 = fourier(3)


def unbiased_to_fourier_dev(m) -> float:
    gram = qmat_mul(qmat_adjoint(F3.data), m.data / math.sqrt(3))
    return float(np.max(np.abs(qnormsq(gram) - 1.0 / 3.0)))


# SHA-256 of mub3_system_arr(a, zeta), matrices then sides, for Gaussian a
# and zeta of shape shape + (4,) drawn in that order from default_rng(seed)
MUB3_SYSTEM_SHA256 = {
    (0, (5,)): "0e19f6036a71acf0e8b351231260ece1e44f6a5a3dea6225267456fe74570c7c",
    (1, (3, 7)): "df5d25f40afa524bc5cbe96fa7ad9007f5f5e3a209ca1b1dd244bab29f4eaa74",
    (2, ()): "22eb3050aff7a7108b22ac2ca86a8f8d953fa9df95ab3022045b1633e2bc1059",
}


def random_unit(rng) -> np.ndarray:
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


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
        with pytest.raises(QStochError, match="a must lie in span"):
            Special4Params(QJ, ONE)
        with pytest.raises(QStochError, match="b must lie in span"):
            Special4Params(ONE, Quaternion(0.6, 0.8, 0, 0))

    def test_rejects_nan(self):
        with pytest.raises(QStochError, match="a and b must be unit"):
            Special4Params(Quaternion(float("nan"), 0, 0, 0), ONE)


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
            one_plus = np.array([1 + a.w, a.x, 0, 0])
            closed = -ref_mul(one_plus, one_plus) / (one_plus @ one_plus)
            assert qnorm(m.data[1, 2] - closed) <= 1e-12

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
            assert qnorm(m.data[1, 3]) == pytest.approx(1.0, abs=1e-9)

    def test_pole_rejected(self):
        with pytest.raises(QStochError, match="pole of the family"):
            Generic4Params(Quaternion(-1, 0, 0, 0), QI)

    def test_rejects_nan(self):
        with pytest.raises(QStochError, match="a and x must be unit"):
            Generic4Params(Quaternion(float("nan"), 0, 0, 0), QI)


class TestScalarInvariants:
    def test_p_value_examples(self):
        assert p_arr(ONE.as_array(), 0.3, 0.2) == 0.0
        assert p_arr(QK.as_array(), math.sqrt(3) / 2, 0.0) == \
            pytest.approx(math.sqrt(3) / 2)
        assert p_arr(OMEGA, 0.1, 0.7) == 0.0

    def test_phi_value_examples(self):
        assert phi_value(ONE.as_array(), 0.5, 0.5) == 0.0
        # at a = -1 the alphas collapse to (2, 0, 2)
        assert alpha_coeffs(-ONE.as_array()) == (2.0, 0.0, 2.0)
        for s, t in ((0.1, 0.2), (0.5, -0.3)):
            assert phi_value(-ONE.as_array(), s, t) == \
                pytest.approx(8 * s * s + 2)


class TestUnbiasedSystem:
    @pytest.mark.parametrize("seed,shape", sorted(MUB3_SYSTEM_SHA256))
    def test_system_bits_are_pinned(self, seed, shape):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape + (4,))
        zeta = rng.standard_normal(shape + (4,))
        mat, v = mub3_system_arr(a, zeta)
        digest = hashlib.sha256(mat.tobytes() + v.tobytes()).hexdigest()
        assert digest == MUB3_SYSTEM_SHA256[seed, shape]

    def test_conjugation_has_one_owner(self):
        """Conjugation is qconj: no module in src/qstoch spells out the sign
        vector (1, -1, -1, -1) as a list."""
        found = []
        for path in sorted(Path(qstoch.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.List) and len(node.elts) == 4:
                    try:
                        values = ast.literal_eval(node)
                    except ValueError:
                        continue
                    if values == [1, -1, -1, -1]:
                        found.append(f"{path.name}:{node.lineno}")
        assert found == []
        assert not hasattr(hadamard, "_SIGNS")
    def test_determinant_identity_d5(self, rng):
        for _ in range(200):
            a = random_unit(rng)
            s, t = circle_point(rng.uniform(0, 2 * np.pi))
            _, _, dets = unbiased_system(a, s, t)
            assert dets[4] == pytest.approx(3 * p_arr(a, s, t) ** 2, abs=1e-9)

    def test_determinant_identity_sum_squares(self, rng):
        for _ in range(200):
            a = random_unit(rng)
            s, t = circle_point(rng.uniform(0, 2 * np.pi))
            _, _, d = unbiased_system(a, s, t)
            lhs = 8 * (d[0] ** 2 + d[1] ** 2 + d[2] ** 2 + d[3] ** 2 - d[4] ** 2)
            rhs = 9 * d[4] * phi_value(a, s, t)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_a_one_degenerates(self):
        _, _, dets = unbiased_system(ONE.as_array(), math.sqrt(3) / 2, 0.0)
        assert abs(dets[4]) < 1e-12

    def test_rejects_off_circle(self):
        with pytest.raises(QStochError, match="must satisfy s"):
            unbiased_system(ONE.as_array(), 0.5, 0.5)

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
            b_s, v_s, d_s = unbiased_system(a_arr[k], zeta[k, 1], zeta[k, 2])
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
        got = _outcome(lambda: generic3(Quaternion(*a), branch))
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
    lambda v: np.array(v) / np.linalg.norm(v))


class TestGeneric3:
    def test_matches_scan_oracle(self, rng):
        for _ in range(2000):
            a = random_unit(rng)
            _assert_same_outcome(a, phi_circle_roots_scan(a))

    @settings(max_examples=60, deadline=None)
    @given(unit_quaternions)
    def test_matches_scan_oracle_on_drawn_points(self, a):
        alphas = np.abs(alphas_arr(a))
        assume(alphas.max() == 0.0 or alphas.max() > 1e-12)
        thetas, valid = phi_circle_roots_arr(a[None, :])
        marks = np.sort(np.concatenate([thetas[valid], [0.0, 2 * np.pi]]))
        assume(np.min(np.diff(marks)) > 2 * _SCAN_CELL)
        _assert_same_outcome(a, phi_circle_roots_scan(a))

    def test_members_hadamard_and_unbiased(self, rng):
        produced = 0
        while produced < 15:
            a = random_unit(rng)
            try:
                m = generic3(Quaternion(*a), "+")
            except DegenerateP:
                continue
            if m is None:
                continue
            produced += 1
            assert m.is_hadamard(1e-9)
            assert unbiased_to_fourier_dev(m) < 1e-9
            _, b, _ = read_family3(m)
            assert qnorm(b) == pytest.approx(1.0, abs=1e-9)
            assert verify_family3(m, "generic", 1e-7)
            a_read, _, zeta = read_family3(m)
            assert qnorm(a_read - a) <= 1e-12
            assert zeta[1] ** 2 + zeta[2] ** 2 == pytest.approx(0.75, abs=1e-9)

    def test_branches_pick_different_roots(self, rng):
        for _ in range(50):
            a = random_unit(rng)
            roots = phi_circle_roots_scan(a)
            if len(roots) < 2:
                continue
            try:
                mp = generic3(Quaternion(*a), "+")
                mm = generic3(Quaternion(*a), "-")
            except DegenerateP:
                continue
            if mp is None or mm is None:
                continue
            assert np.max(qnorm(mp.data - mm.data)) > 1e-6
            break

    def test_rejects_nan(self):
        with pytest.raises(QStochError, match="a must be a unit quaternion"):
            generic3(Quaternion(1, 0, 0, float("nan")))

    def test_a_one_is_degenerate(self):
        with pytest.raises(DegenerateP):
            generic3(ONE, "+")

    def test_analytic_roots_match_scan(self, rng):
        for _ in range(40):
            a = random_unit(rng)
            scan = sorted(phi_circle_roots_scan(a))
            thetas, valid = phi_circle_roots_arr(a[None, :])
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
        assert abs(zeta[1]) < 1e-12
        assert abs(abs(zeta[2]) - math.sqrt(3) / 2) < 1e-12

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
        assert not verify_family3(m, "s5", 1e-9)

    def test_fourier_variant_is_family1(self):
        # a = 1, b = omega, zeta = omega satisfies the family 1 restrictions
        m = QMatrix(family3_matrix_arr(
            np.stack([ONE.as_array(), OMEGA, OMEGA])))
        assert verify_family3(m, "s1", 1e-12)

    def test_unknown_family(self):
        with pytest.raises(QStochError, match="unknown special family"):
            special3("s9", (0.0,))


# the sign bits of each special family, and a parameter row it accepts
SIGN_BITS = {"s1": 0, "s2": 1, "s3": 1, "s4": 3, "s5": 4}
PARAMS = {"s1": (0.3, 0.4), "s2": (0.3, 1.1), "s3": (0.3, 1.1), "s4": (1.2,),
          "s5": (0.2, 1.3)}


class TestSpecialVariants:
    @pytest.mark.parametrize("family", sorted(SIGN_BITS))
    def test_variant_outside_the_sign_bits_rejected(self, family):
        bound = 1 << SIGN_BITS[family]
        for variant in (-1, bound):
            with pytest.raises(QStochError, match=re.escape(
                    f"variant must be in [0, {bound})")):
                special3(family, PARAMS[family], variant)

    @pytest.mark.parametrize("family", sorted(SIGN_BITS))
    def test_sweep_spans_every_variant(self, family, monkeypatch):
        seen = []
        batch = hadamard.special3_arr

        def record(family_id, params, variants):
            seen.append(np.asarray(variants))
            return batch(family_id, params, variants)

        monkeypatch.setattr(hadamard, "special3_arr", record)
        special_family_rows(family, 6)
        (variants,) = seen
        values, counts = np.unique(variants, return_counts=True)
        assert values.tolist() == list(range(1 << SIGN_BITS[family]))
        assert len(set(counts.tolist())) == 1

    def test_family_ids_have_one_owner(self):
        """Only qstoch.hadamard spells out a special-family id; every other
        module reads them from hadamard.FAMILY_IDS."""
        assert hadamard.FAMILY_IDS == ("generic", *SIGN_BITS)
        found = []
        for path in sorted(Path(qstoch.__file__).parent.glob("*.py")):
            if path.name == "hadamard.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and node.value in SIGN_BITS:
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
        assert found == []

    def test_omega_powers_have_one_owner(self):
        """One statement in src/qstoch multiplies OMEGA: the one that builds
        hadamard.OMEGA_POWERS, which the 3x3 system, the s3 check and the
        sweep read."""
        found = []
        for path in sorted(Path(qstoch.__file__).parent.glob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                if any(isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "qmul"
                       and "OMEGA" in ast.unparse(node)
                       for node in ast.walk(stmt)):
                    found.append(f"{path.name}:{stmt.lineno}")
        assert len(found) == 1 and found[0].startswith("hadamard.py:"), found
        assert np.array_equal(hadamard.OMEGA_POWERS, [
            ONE.as_array(), OMEGA, ref_mul(OMEGA, OMEGA)])


class TestZetaCircle:
    def test_bounds_the_three_quantities(self):
        zeta = np.array([-0.5, R32 * math.cos(0.3), R32 * math.sin(0.3), 0.0])
        off = [[0, 0, 0, 0], [0, 0, 0, 2e-9], [2e-9, 0, 0, 0],
               [0, 2e-9, 0, 0], [0, 0, math.nan, 0], [math.nan, 0, 0, 0],
               [0, 0, 0, math.nan], [0, math.inf, 0, 0], [0, 1e200, 0, 0]]
        assert on_zeta_circle(zeta + np.array(off)).tolist() == [
            True] + [False] * (len(off) - 1)

    def test_is_the_one_reader_of_its_tolerance(self):
        """The zeta circle rule has one owner: no other function in
        src/qstoch reads ZETA_CIRCLE."""
        readers = set()
        for path in sorted(Path(qstoch.__file__).parent.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(node, ast.Name) and node.id == "ZETA_CIRCLE"
                        for node in ast.walk(fn)):
                    readers.add(f"{path.name}:{fn.name}")
        assert readers == {"hadamard.py:on_zeta_circle"}


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
