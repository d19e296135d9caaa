import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstoch.errors import NonUnitConjugator, NotPure
from qstoch.quaternion import (I, J, K, ONE, Quaternion, aligning_conjugator,
                               conjugate_by, format_quaternion,
                               parse_quaternion, pure_dot_cross)

from conftest import ref_mul

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite_floats, finite_floats,
                        finite_floats, finite_floats)


def norm_floor(*qs):
    return all(q.norm() > 1e-3 for q in qs)


class TestMul:
    def test_defining_relations(self):
        assert (I * J).approx_eq(K)
        assert (J * K).approx_eq(I)
        assert (K * I).approx_eq(J)
        assert (I * I).approx_eq(-ONE)
        assert (J * J).approx_eq(-ONE)
        assert (K * K).approx_eq(-ONE)
        assert ((I * J) * K).approx_eq(-ONE)

    def test_one_plus_i_times_one_minus_i(self):
        assert (Quaternion(1, 1, 0, 0) * Quaternion(1, -1, 0, 0)).approx_eq(
            Quaternion(2, 0, 0, 0))

    def test_not_commutative(self):
        assert not (I * J).approx_eq(J * I)

    def test_inverse_law(self, random_quaternion):
        for _ in range(50):
            q = random_quaternion(unit=True)
            assert (q * q.inverse()).approx_eq(ONE, 1e-12)

    @given(quaternions, quaternions)
    def test_matches_reference_oracle(self, q, r):
        assert (q * r).approx_eq(ref_mul(q, r), 1e-6 * max(1.0, q.norm() * r.norm()))

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
        assert prod.pure_part().norm() <= 1e-12 * max(1.0, q.norm_sq())
        assert prod.w == pytest.approx(q.norm_sq(), rel=1e-12, abs=1e-12)


class TestPurePart:
    def test_examples(self):
        assert Quaternion(1, 2, 3, 4).pure_part() == Quaternion(0, 2, 3, 4)
        assert Quaternion(5, 0, 0, 0).pure_part() == Quaternion(0, 0, 0, 0)

    @given(quaternions)
    def test_pure_is_anti_self_conjugate(self, q):
        p = q.pure_part()
        assert (p + p.conjugate()).norm() == 0.0


class TestConjugateBy:
    def test_half_turn_example(self):
        # x = (1+i)/sqrt(2) rotates j onto k; cross-checked with the oracle
        x = Quaternion(1, 1, 0, 0) * (1 / math.sqrt(2))
        expected = ref_mul(ref_mul(x, J), x.inverse())
        assert expected.approx_eq(K, 1e-12)
        assert conjugate_by(J, x).approx_eq(K, 1e-12)

    def test_identity_conjugator(self, random_quaternion):
        q = random_quaternion()
        assert conjugate_by(q, ONE) == q

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitConjugator):
            conjugate_by(J, Quaternion(1, 1, 0, 0))

    def test_rejects_nan_conjugator(self):
        nan = float("nan")
        assert not Quaternion(nan, 0, 0, 0).is_unit()
        with pytest.raises(NonUnitConjugator):
            conjugate_by(J, Quaternion(nan, 0, 0, 0))

    def test_preserves_norm_and_scalar_part(self, random_quaternion):
        for _ in range(100):
            q = random_quaternion()
            x = random_quaternion(unit=True)
            r = conjugate_by(q, x)
            assert r.norm() == pytest.approx(q.norm(), rel=1e-12)
            assert r.w == pytest.approx(q.w, rel=1e-12, abs=1e-12)


class TestPureDotCross:
    def test_examples(self):
        dot, cross = pure_dot_cross(I, J)
        assert dot == 0.0 and cross.approx_eq(K)
        dot, cross = pure_dot_cross(I, I)
        assert dot == 1.0 and cross.norm() == 0.0

    def test_rejects_non_pure(self):
        with pytest.raises(NotPure):
            pure_dot_cross(ONE, I)

    def test_product_decomposition(self, random_quaternion):
        for _ in range(100):
            p = random_quaternion().pure_part()
            q = random_quaternion().pure_part()
            dot, cross = pure_dot_cross(p, q)
            reassembled = Quaternion(-dot, 0, 0, 0) + cross
            assert ref_mul(p, q).approx_eq(reassembled, 1e-9)


class TestAligningConjugator:
    def test_makes_entries_complex(self, random_quaternion):
        for _ in range(100):
            q = random_quaternion()
            x = aligning_conjugator(q)
            assert abs(x.norm() - 1) < 1e-12
            r = conjugate_by(q, x)
            assert abs(r.y) < 1e-9 and abs(r.z) < 1e-9
            assert r.x >= -1e-12

    def test_real_input_untouched(self):
        assert aligning_conjugator(Quaternion(3, 0, 0, 0)) == ONE

    def test_antipodal_direction(self):
        r = conjugate_by(Quaternion(0, -2, 0, 0), aligning_conjugator(Quaternion(0, -2, 0, 0)))
        assert r.approx_eq(Quaternion(0, 2, 0, 0), 1e-12)


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
