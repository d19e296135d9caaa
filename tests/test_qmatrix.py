import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qdiag
from oracles import (aligning_conjugator, entrywise_conjugate,
                     gram_schmidt_loop, hamilton_qmat_mul, splits_dfs)
import qstoch
from qstoch.errors import QStochError
from qstoch.qmatrix import (QMatrix, fourier, gram_schmidt_columns,
                            haar_unitary, identity, qmat_adjoint, qmat_mul,
                            qnorm, qnormsq, random_symplectic,
                            read_matrix_text, read_qmatrix_text, write_qmat,
                            write_rmat)
from qstoch.quaternion import I as QI
from qstoch.quaternion import J as QJ
from qstoch.quaternion import K as QK
from qstoch.quaternion import ONE, Quaternion
from qstoch.stochastic import permutation_array
from qstoch.tol import ZERO_ENTRY


def _permutation(perm) -> QMatrix:
    return QMatrix.from_real(permutation_array(perm))


def complex_fourier(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(qmat_adjoint(identity(3).data), identity(3).data)

    def test_involution(self, rng):
        m = rng.standard_normal((3, 5, 4))
        assert np.array_equal(qmat_adjoint(qmat_adjoint(m)), m)

    def test_fourier_unitarity_against_complex_oracle(self):
        f3 = fourier(3)
        oracle = complex_fourier(3)
        assert np.max(np.abs(f3.data[..., 0] + 1j * f3.data[..., 1] - oracle)) < 1e-15
        gram = QMatrix(qmat_mul(qmat_adjoint(f3.data), f3.data))
        assert np.max(qnorm(gram.data - identity(3).data)) <= 1e-12


class TestMatmul:
    def test_permutation_homomorphism(self, rng):
        for _ in range(20):
            s = tuple(int(v) for v in rng.permutation(5))
            t = tuple(int(v) for v in rng.permutation(5))
            st = tuple(s[t[j]] for j in range(5))
            lhs = qmat_mul(_permutation(s).data, _permutation(t).data)
            assert np.array_equal(lhs, _permutation(st).data)

    def test_quaternion_diagonals(self):
        prod = qmat_mul(qdiag([QI, QI]), qdiag([QJ, QJ]))
        assert np.array_equal(prod, qdiag([QK, QK]))

    def test_adjoint_antihomomorphism(self, rng):
        a = rng.standard_normal((3, 4, 4))
        b = rng.standard_normal((4, 2, 4))
        lhs = qmat_adjoint(qmat_mul(a, b))
        rhs = qmat_mul(qmat_adjoint(b), qmat_adjoint(a))
        assert np.max(qnorm(lhs - rhs)) <= 1e-12


# leading (batch) shapes of the two operands: none, one side batched, both
# batched alike, and both broadcast against each other
BATCH_SHAPES = [((), ()), ((3,), ()), ((), (2,)), ((4,), (4,)),
                ((2, 1), (3,)), ((1, 3), (2, 1))]


@st.composite
def product_operands(draw):
    r, m, k = (draw(st.integers(1, 8)) for _ in range(3))
    batch_a, batch_b = draw(st.sampled_from(BATCH_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return (scale * rng.standard_normal(batch_a + (r, m, 4)),
            rng.standard_normal(batch_b + (m, k, 4)))


class TestComplexAdjointKernel:
    @settings(max_examples=200, deadline=None)
    @given(product_operands())
    def test_qmat_mul_matches_hamilton_oracle(self, operands):
        a, b = operands
        got = qmat_mul(a, b)
        want = hamilton_qmat_mul(a, b)
        assert got.shape == want.shape
        # relative to sum_l |a_il| |b_lj|, the natural size of entry (i, j)
        bound = qnorm(a) @ qnorm(b)
        assert np.all(qnorm(got - want) <= 1e-12 * bound)

    def test_qmat_mul_accepts_views(self, rng):
        a = rng.standard_normal((5, 4, 4))
        b = rng.standard_normal((5, 3, 4))
        at = np.swapaxes(a, 0, 1)  # a non-contiguous (4, 5, 4) view
        assert np.max(np.abs(qmat_mul(at, b) - hamilton_qmat_mul(at, b))) < 1e-12

    @pytest.mark.parametrize("rows,cols", [(n, n) for n in range(1, 9)]
                             + [(5, 3), (8, 1)])
    def test_qr_retraction_matches_gram_schmidt(self, rows, cols):
        a = np.random.default_rng(rows * 10 + cols).standard_normal((rows, cols, 4))
        got = gram_schmidt_columns(a)
        assert np.max(np.abs(got - gram_schmidt_loop(a))) < 1e-12
        gram = QMatrix(hamilton_qmat_mul(qmat_adjoint(got), got))
        assert np.max(qnorm(gram.data - identity(cols).data)) <= 1e-12
        if rows == cols:
            assert QMatrix(got).is_symplectic(1e-12)

    def test_qr_retraction_keeps_orthonormal_input(self):
        w = random_symplectic(4, seed=3).data
        assert np.max(np.abs(gram_schmidt_columns(w) - w)) < 1e-12

    def test_odd_rows_have_one_owner(self):
        """qmatrix._odd_rows writes chi's odd rows (-conj z2, conj z1), for
        _chi and for the descent's buffer; no other module names the signs."""
        found = []
        for path in sorted(Path(qstoch.__file__).parent.glob("*.py")):
            if path.name == "qmatrix.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if "_ODD_ROW_SIGNS" in (getattr(node, "id", None),
                                        getattr(node, "attr", None),
                                        getattr(node, "name", None)):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


class TestPredicates:
    def test_symplectic_examples(self):
        assert identity(4).is_symplectic(1e-15)
        s = 1 / math.sqrt(2)
        one, i = ONE.as_array(), QI.as_array()
        h_i = QMatrix(np.array([[one, one], [i, -i]]) * s)
        assert h_i.is_symplectic(1e-12)
        ones = QMatrix.from_real(np.ones((2, 2)))
        assert not ones.is_symplectic(1e-9)

    def test_hadamard_examples(self):
        h2 = QMatrix.from_real(np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert h2.is_hadamard(1e-15)
        assert QMatrix(math.sqrt(3) * fourier(3).data).is_hadamard(1e-12)
        assert not identity(2).is_hadamard(1e-9)

    def test_splits_examples(self):
        assert identity(3).splits()
        assert not fourier(3).splits()
        arr = np.zeros((3, 3, 4))
        arr[0, 1, 0] = arr[1, 0, 0] = arr[2, 2, 0] = 1.0
        assert QMatrix(arr).splits()

    def test_splits_matches_depth_first_search(self, rng):
        # 2000 zero patterns per size, each with its own density
        outcomes = set()
        for n in range(1, 9):
            for _ in range(2000):
                keep = rng.random((n, n)) < rng.random()
                m = QMatrix(rng.standard_normal((n, n, 4)) * keep[..., None])
                expected = splits_dfs(m.norms() > ZERO_ENTRY)
                assert m.splits() == expected
                outcomes.add((n, expected))
        assert len(outcomes) == 16

    def test_splits_invariant_under_permutations(self, rng):
        m = random_symplectic(4, seed=11)
        base = m.splits()
        for _ in range(10):
            p = _permutation(rng.permutation(4))
            q = _permutation(rng.permutation(4))
            pmq = qmat_mul(qmat_mul(p.data, m.data), q.data)
            assert QMatrix(pmq).splits() == base


class TestDephase:
    def test_recovers_hadamard_from_diagonal_twist(self):
        h2 = QMatrix.from_real(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
        twisted = QMatrix(qmat_mul(qdiag([QI, QJ]), h2.data))
        dephased = twisted.dephase()
        assert np.max(qnorm(dephased.data - h2.data)) <= 1e-12

    def test_idempotent(self, rng):
        m = random_symplectic(3, seed=7)
        d1 = m.dephase()
        d2 = d1.dephase()
        assert np.max(qnorm(d2.data - d1.data)) <= 1e-12

    def test_frame_real_nonnegative(self, rng):
        arr = rng.standard_normal((4, 4, 4))
        arr /= qnorm(arr)[..., None]
        d = QMatrix(arr).dephase()
        assert np.max(np.abs(d.data[0, :, 1:])) < 1e-12
        assert np.max(np.abs(d.data[:, 0, 1:])) < 1e-12
        assert np.min(d.data[0, :, 0]) > 0
        assert np.min(d.data[:, 0, 0]) > 0
        assert d.entry(0, 0).w == pytest.approx(qnorm(arr[0, 0]), rel=1e-12)

    def test_zero_frame_rejected(self):
        with pytest.raises(QStochError, match="zero entry in the first column"):
            identity(3).dephase()


class TestEntrywiseConjugate:
    """The reference entrywise conjugation of tests/oracles.py."""

    def test_identity_conjugator(self, rng):
        m = random_symplectic(3, seed=3)
        assert np.array_equal(entrywise_conjugate(m, ONE.as_array()).data,
                              m.data)

    def test_preserves_hadamard_and_symplectic(self):
        h = QMatrix(math.sqrt(3) * fourier(3).data)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        assert entrywise_conjugate(h, x).is_hadamard(1e-12)
        w = random_symplectic(3, seed=9)
        assert entrywise_conjugate(w, x).is_symplectic(1e-9)

    def test_can_make_single_entry_complex(self):
        w = random_symplectic(3, seed=5)
        x = aligning_conjugator(w.data[1, 1])
        e = entrywise_conjugate(w, x).data[1, 1]
        assert abs(e[2]) < 1e-12 and abs(e[3]) < 1e-12


class TestFourier:
    def test_n2(self):
        expect = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        assert np.max(np.abs(fourier(2).data[..., 0] - expect)) < 1e-15
        assert fourier(2).max_imag() < 1e-15

    def test_n3_entry(self):
        # entry (2,3): omega^2 / sqrt(3)
        omega2 = complex(-0.5, -math.sqrt(3) / 2)
        f3 = fourier(3).data
        got = (f3[..., 0] + 1j * f3[..., 1])[1, 2] * math.sqrt(3)
        assert abs(got - omega2) < 1e-12

    def test_n5_symplectic(self):
        assert fourier(5).is_symplectic(1e-12)


class TestRandomSymplectic:
    def test_symplectic_and_deterministic(self):
        w1 = random_symplectic(3, seed=4)
        w2 = random_symplectic(3, seed=4)
        assert w1.is_symplectic(1e-10)
        assert np.array_equal(w1.data, w2.data)
        assert not np.array_equal(w1.data, random_symplectic(3, seed=5).data)

    def test_rows_and_columns_unit_norm(self):
        w = random_symplectic(5, seed=1)
        sq = qnormsq(w.data)
        assert np.max(np.abs(sq.sum(axis=0) - 1)) < 1e-10
        assert np.max(np.abs(sq.sum(axis=1) - 1)) < 1e-10

    def test_image_is_bistochastic(self):
        w = random_symplectic(4, seed=2)
        sq = qnormsq(w.data)
        assert np.max(np.abs(sq.sum(axis=0) - 1)) < 1e-10
        assert np.max(np.abs(sq.sum(axis=1) - 1)) < 1e-10
        assert sq.min() > -1e-12


# SHA-256 of haar_unitary(n, default_rng(seed)).tobytes(): its draws and
# its QR phase fix, bit for bit (haar_orthogonal's bits are pinned through
# the distance-j3 golden rows)
HAAR_UNITARY_SHA256 = {
    (1, 0): "502ba4364a9aa9811d555f610d25e3a5690289ff32a8d500311ab2349d3d42ef",
    (2, 0): "9bb84431b750301fb6e1aa6471bc7c56c1c85f5b0bd599445778aa251c76964d",
    (3, 1): "9f91e17868dbceb4dfaec541c2704a41db0249a5a5853479df72c911cac0e4bb",
    (4, 2): "ad71a9edf5cdec2435086a67b6a87b8c5108a4aaa0aa888a48f68c27c98a6571",
    (6, 3): "8f3ea85b83ca0807664bf79d4f18197f5b70ded37cdb32fda3cd35154f9fbe68",
}


class TestHaarSamplers:
    @pytest.mark.parametrize("n,seed", sorted(HAAR_UNITARY_SHA256))
    def test_haar_unitary_bits_are_pinned(self, n, seed):
        data = haar_unitary(n, np.random.default_rng(seed)).tobytes()
        assert hashlib.sha256(data).hexdigest() == HAAR_UNITARY_SHA256[n, seed]

    def test_haar_unitary_draw_order_is_pinned(self):
        """Five draws from one generator: each consumes the same numbers."""
        rng = np.random.default_rng(7)
        data = b"".join(haar_unitary(3, rng).tobytes() for _ in range(5))
        assert hashlib.sha256(data).hexdigest() == (
            "be382dd911a83a08636dd59b02a52dea82d8caf5871c65018cb8ba121d8365aa")

    def test_qr_has_one_owner(self):
        """np.linalg.qr is called in one place, the positive-diagonal QR
        that the Haar samplers and the Sp(n) retraction share."""
        found = []
        for path in sorted(Path(qstoch.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and node.attr == "qr"
                        and ast.unparse(node.value) == "np.linalg"):
                    found.append(f"{path.name}:{node.lineno}")
        assert len(found) == 1 and found[0].startswith("qmatrix.py:"), found


class TestLemmaColumnForm:
    def test_dephased_hadamard_columns(self):
        # dephased 4x4 Hadamard column (1, a, x, y): with h = x + (1+a)/2,
        # h is orthogonal to 1+a and 2|h| = |1-a|
        from qstoch.hadamard import (Generic4Params, Special4Params, generic4,
                                     special4)
        mats = [
            special4(Special4Params(Quaternion(0.6, 0.8, 0, 0),
                                    Quaternion(-0.28, 0, 0.96, 0))),
            generic4(Generic4Params(
                Quaternion(0.3, 0.4, math.sqrt(1 - 0.25), 0),
                Quaternion(0, 0.6, 0.8, 0))),
        ]
        one = ONE.as_array()
        for m in mats:
            for col in range(1, 4):
                a = m.data[1, col]
                if qnorm(a - one) < 1e-9:
                    continue
                h = m.data[2, col] + (one + a) * 0.5
                assert abs(h @ (one + a)) < 1e-9
                assert 2 * qnorm(h) == pytest.approx(qnorm(one - a), abs=1e-9)


class TestTextFormats:
    def test_qmat_round_trip_bit_exact(self, rng):
        m = random_symplectic(3, seed=12)
        kind, back = read_matrix_text(write_qmat(m))
        assert kind == "qmat"
        assert np.array_equal(back.data, m.data)

    def test_rmat_round_trip(self, rng):
        mat = rng.standard_normal((3, 5))
        kind, back = read_matrix_text(write_rmat(mat))
        assert kind == "rmat"
        assert np.array_equal(back, mat)

    def test_rmat_reads_as_real_qmatrix(self):
        m = read_qmatrix_text("rmat 2 2\n1 0\n0 1\n")
        assert np.array_equal(m.data, identity(2).data)

    def test_rejects_unknown_header(self):
        with pytest.raises(ValueError):
            read_matrix_text("xmat 2 2\n1 0 0 1\n")

    @pytest.mark.parametrize("text", [
        "qmat 1 2\n(1,0,0,0) (nan,0,0,0)\n",
        "qmat 1 1\n(0,0,inf,0)\n",
        "rmat 2 2\n1 0\n0 nan\n",
        "rmat 1 1\n-inf\n",
    ])
    def test_rejects_non_finite_entries(self, text):
        with pytest.raises(ValueError):
            read_matrix_text(text)


class TestEmptyMatrices:
    @pytest.mark.parametrize("shape", [(0, 0, 4), (0, 3, 4), (3, 0, 4)])
    def test_qmatrix_rejects_a_zero_dimension(self, shape):
        with pytest.raises(QStochError, match="rows, cols >= 1"):
            QMatrix(np.zeros(shape))

    def test_identity_of_size_zero_is_rejected(self):
        with pytest.raises(QStochError, match="rows, cols >= 1"):
            identity(0)


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_qmatrix_rejects(self, value):
        arr = np.zeros((2, 2, 4))
        arr[1, 0, 2] = value
        with pytest.raises(QStochError, match="NaN or infinite entry"):
            QMatrix(arr)
