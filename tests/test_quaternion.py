import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstoch.quaternion import (I, J, K, ONE, Quaternion, format_quaternion,
                               parse_quaternion)

from conftest import ref_mul
from oracles import aligning_conjugator

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite_floats, finite_floats,
                        finite_floats, finite_floats)


def norm_floor(*qs):
    return all(q.norm() > 1e-3 for q in qs)


def close(q, r, tol=1e-9):
    return (q - r).norm() <= tol


class TestMul:
    def test_defining_relations(self):
        assert close(I * J, K)
        assert close(J * K, I)
        assert close(K * I, J)
        assert close(I * I, -ONE)
        assert close(J * J, -ONE)
        assert close(K * K, -ONE)
        assert close((I * J) * K, -ONE)

    def test_one_plus_i_times_one_minus_i(self):
        assert close(Quaternion(1, 1, 0, 0) * Quaternion(1, -1, 0, 0),
                     Quaternion(2, 0, 0, 0))

    def test_not_commutative(self):
        assert not close(I * J, J * I)

    @given(quaternions, quaternions)
    def test_matches_reference_oracle(self, q, r):
        assert close(q * r, ref_mul(q, r), 1e-6 * max(1.0, q.norm() * r.norm()))

    @given(quaternions, quaternions, quaternions)
    def test_associative(self, p, q, r):
        lhs = (p * q) * r
        rhs = p * (q * r)
        scale = max(1.0, p.norm() * q.norm() * r.norm())
        assert (lhs - rhs).norm() <= 1e-12 * scale

    @given(quaternions, quaternions)
    def test_conj_antihomomorphism(self, q, r):
        lhs = (q * r).conjugate()
        rhs = r.conjugate() * q.conjugate()
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, q.norm() * r.norm())

    @given(quaternions, quaternions)
    def test_norm_multiplicative(self, q, r):
        assert (q * r).norm() == pytest.approx(q.norm() * r.norm(), rel=1e-12)

    @given(quaternions)
    def test_conj_times_self_is_norm_sq(self, q):
        prod = q.conjugate() * q
        pure = math.hypot(prod.x, prod.y, prod.z)
        assert pure <= 1e-12 * max(1.0, q.norm_sq())
        assert prod.w == pytest.approx(q.norm_sq(), rel=1e-12, abs=1e-12)


class TestConjugateBy:
    """Conjugation x*q*x^-1 by a unit x, whose inverse is x.conjugate()."""

    def test_half_turn_example(self):
        # x = (1+i)/sqrt(2) rotates j onto k; cross-checked with the oracle
        x = Quaternion(1, 1, 0, 0) * (1 / math.sqrt(2))
        expected = ref_mul(ref_mul(x, J), x.conjugate())
        assert close(expected, K, 1e-12)
        assert close(x * J * x.conjugate(), K, 1e-12)

    def test_preserves_norm_and_scalar_part(self, random_quaternion):
        for _ in range(100):
            q = random_quaternion()
            x = random_quaternion(unit=True)
            r = x * q * x.conjugate()
            assert r.norm() == pytest.approx(q.norm(), rel=1e-12)
            assert r.w == pytest.approx(q.w, rel=1e-12, abs=1e-12)


class TestAligningConjugator:
    """The rotation of the reference n = 3 pattern rule in tests/oracles.py."""

    def test_makes_entries_complex(self, random_quaternion):
        for _ in range(100):
            q = random_quaternion()
            x = aligning_conjugator(q)
            assert abs(x.norm() - 1) < 1e-12
            r = x * q * x.conjugate()
            assert abs(r.y) < 1e-9 and abs(r.z) < 1e-9
            assert r.x >= -1e-12

    def test_real_input_untouched(self):
        assert aligning_conjugator(Quaternion(3, 0, 0, 0)) == ONE

    def test_antipodal_direction(self):
        x = aligning_conjugator(Quaternion(0, -2, 0, 0))
        r = x * Quaternion(0, -2, 0, 0) * x.conjugate()
        assert close(r, Quaternion(0, 2, 0, 0), 1e-12)


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
