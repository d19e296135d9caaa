import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstoch.quaternion import (I, J, K, ONE, Quaternion, format_quaternion,
                               parse_quaternion, qconj, qmul, qnorm, qnormsq)

from conftest import ref_mul
from oracles import aligning_conjugator

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite_floats, finite_floats,
                        finite_floats, finite_floats)
arrays = quaternions.map(Quaternion.as_array)
ONE_, I_, J_, K_ = (q.as_array() for q in (ONE, I, J, K))


def close(q, r, tol=1e-9):
    return qnorm(np.subtract(q, r)) <= tol


class TestMul:
    def test_defining_relations(self):
        assert close(qmul(I_, J_), K_)
        assert close(qmul(J_, K_), I_)
        assert close(qmul(K_, I_), J_)
        assert close(qmul(I_, I_), -ONE_)
        assert close(qmul(J_, J_), -ONE_)
        assert close(qmul(K_, K_), -ONE_)
        assert close(qmul(qmul(I_, J_), K_), -ONE_)

    def test_one_plus_i_times_one_minus_i(self):
        assert close(qmul(np.array([1.0, 1, 0, 0]), np.array([1.0, -1, 0, 0])),
                     [2, 0, 0, 0])

    def test_not_commutative(self):
        assert not close(qmul(I_, J_), qmul(J_, I_))

    @given(arrays, arrays)
    def test_matches_reference_oracle(self, q, r):
        assert close(qmul(q, r), ref_mul(q, r),
                     1e-6 * max(1.0, qnorm(q) * qnorm(r)))

    def test_broadcasts_like_the_reference(self, rng):
        a = rng.standard_normal((5, 1, 4))
        b = rng.standard_normal((3, 4))
        prod = qmul(a, b)
        assert prod.shape == (5, 3, 4)
        assert np.max(qnorm(prod - ref_mul(a, b))) <= 1e-12

    @given(arrays, arrays, arrays)
    def test_associative(self, p, q, r):
        lhs = qmul(qmul(p, q), r)
        rhs = qmul(p, qmul(q, r))
        scale = max(1.0, qnorm(p) * qnorm(q) * qnorm(r))
        assert qnorm(lhs - rhs) <= 1e-12 * scale

    @given(arrays, arrays)
    def test_conj_antihomomorphism(self, q, r):
        lhs = qconj(qmul(q, r))
        rhs = qmul(qconj(r), qconj(q))
        assert qnorm(lhs - rhs) <= 1e-12 * max(1.0, qnorm(q) * qnorm(r))

    @given(arrays, arrays)
    def test_norm_multiplicative(self, q, r):
        assert qnorm(qmul(q, r)) == pytest.approx(qnorm(q) * qnorm(r), rel=1e-12)

    @given(arrays)
    def test_conj_times_self_is_norm_sq(self, q):
        prod = qmul(qconj(q), q)
        pure = math.hypot(*prod[1:])
        assert pure <= 1e-12 * max(1.0, qnormsq(q))
        assert prod[0] == pytest.approx(qnormsq(q), rel=1e-12, abs=1e-12)


class TestConjugateBy:
    """Conjugation x*q*x^-1 by a unit x, whose inverse is qconj(x)."""

    def test_half_turn_example(self):
        # x = (1+i)/sqrt(2) rotates j onto k; cross-checked with the oracle
        x = np.array([1.0, 1.0, 0.0, 0.0]) * (1 / math.sqrt(2))
        expected = ref_mul(ref_mul(x, J_), qconj(x))
        assert close(expected, K_, 1e-12)
        assert close(qmul(qmul(x, J_), qconj(x)), K_, 1e-12)

    def test_preserves_norm_and_scalar_part(self, random_quaternion):
        for _ in range(100):
            q = random_quaternion()
            x = random_quaternion(unit=True)
            r = qmul(qmul(x, q), qconj(x))
            assert qnorm(r) == pytest.approx(qnorm(q), rel=1e-12)
            assert r[0] == pytest.approx(q[0], rel=1e-12, abs=1e-12)


class TestAligningConjugator:
    """The rotation of the reference n = 3 pattern rule in tests/oracles.py."""

    def test_makes_entries_complex(self, random_quaternion):
        for _ in range(100):
            q = random_quaternion()
            x = aligning_conjugator(q)
            assert abs(qnorm(x) - 1) < 1e-12
            r = ref_mul(ref_mul(x, q), qconj(x))
            assert abs(r[2]) < 1e-9 and abs(r[3]) < 1e-9
            assert r[1] >= -1e-12

    def test_real_input_untouched(self):
        assert np.array_equal(aligning_conjugator(np.array([3.0, 0, 0, 0])),
                              ONE_)

    def test_antipodal_direction(self):
        q = np.array([0.0, -2, 0, 0])
        x = aligning_conjugator(q)
        assert close(ref_mul(ref_mul(x, q), qconj(x)), [0, 2, 0, 0], 1e-12)


class TestValueType:
    @pytest.mark.parametrize("coords,unit", [
        ((1, 0, 0, 0), True), ((0.6, 0, 0.8, 0), True), ((2, 0, 0, 0), False),
        ((1 + 2e-9, 0, 0, 0), False), ((float("nan"), 0, 0, 0), False),
        ((float("inf"), 0, 0, 0), False), ((1e308, 1e308, 0, 0), False)])
    def test_is_unit(self, coords, unit):
        assert Quaternion(*coords).is_unit() == unit

    def test_array_round_trip(self):
        q = Quaternion(1.5, -0.0, 2.0, -3.0)
        assert Quaternion(*q.as_array()) == q
        assert math.copysign(1.0, q.as_array()[1]) == -1.0


class TestTextFormat:
    def test_parse_examples(self):
        assert parse_quaternion("(1,2,3,4)") == Quaternion(1, 2, 3, 4)
        assert parse_quaternion("1,-2,0.5,3e-2") == Quaternion(1, -2, 0.5, 0.03)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_quaternion("(1,2,3)")

    @settings(max_examples=200)
    @given(quaternions)
    def test_round_trip_bit_exact(self, q):
        assert parse_quaternion(format_quaternion(q)) == q
