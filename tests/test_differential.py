import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qdiag
from oracles import (generators_from_bases, jacobian_by_generators,
                     pattern_verdict_2x2, pattern_verdict_3x3_aligned, qexpm,
                     tangent_bases, tangent_generators,
                     zero_diagonal_orthogonal)
import qstoch
from qstoch.differential import (_pattern_verdict, _zero_mask_stable,
                                 b_coordinates, classify_point, jacobian,
                                 rank_report, shuffled_block_sum)
from qstoch import errors
from qstoch.errors import QStochError
from qstoch.qmatrix import (QMatrix, fourier, haar_orthogonal, haar_unitary,
                            identity, qmat_adjoint, qmat_mul, qmul, qnorm,
                            qnormsq, random_symplectic)
from qstoch.quaternion import Quaternion


# dim O(n), U(n) and Sp(n), the domains of the maps r, c and h
DOMAIN_DIM = {"r": lambda n: n * (n - 1) // 2, "c": lambda n: n * n,
              "h": lambda n: n * (2 * n + 1)}


class TestTangentBases:
    def test_counts(self):
        for n in (2, 3, 4):
            a, c, b = tangent_bases(n)
            assert len(a) == n * (n - 1) // 2
            assert len(c) == n * (n + 1) // 2
            assert len(b) == (n - 1) ** 2

    def test_n2_skew_generator(self):
        a, _, _ = tangent_bases(2)
        assert np.array_equal(a[0], [[0, 1], [-1, 0]])

    def test_structure(self):
        a_list, c_list, b_list = tangent_bases(3)
        for a in a_list:
            assert np.array_equal(a, -a.T)
        for c in c_list:
            assert np.array_equal(c, c.T)
        for b in b_list:
            assert abs(b.sum(axis=0)).max() == 0
            assert abs(b.sum(axis=1)).max() == 0

    def test_b_coordinates_reconstruct(self, rng):
        for n in (3, 4, 5):
            m = rng.standard_normal((n, n))
            m -= m.mean(axis=1, keepdims=True)
            m -= m.mean(axis=0, keepdims=True)
            _, _, b_list = tangent_bases(n)
            coords = b_coordinates(m)
            recon = sum(co * bb for co, bb in zip(coords, b_list))
            assert np.max(np.abs(recon - m)) < 1e-12

    def test_generator_counts_match_domain_dim(self):
        for mk in ("r", "c", "h"):
            for n in (2, 3, 4):
                assert len(tangent_generators(mk, n)) == DOMAIN_DIM[mk](n)

    def test_classify_reports_the_closed_form_dimensions(self, rng):
        """classify_point reads its dimensions from the Jacobian's shape;
        they are dim O(n), U(n), Sp(n) and (n-1)^2."""
        for n in range(2, 7):
            points = {"r": QMatrix.from_real(haar_orthogonal(n, rng)),
                      "c": QMatrix.from_complex(haar_unitary(n, rng)),
                      "h": random_symplectic(n, n)}
            for mk, p in points.items():
                res = classify_point(mk, p, cross_check=False)
                assert res.domain_dim == DOMAIN_DIM[mk](n)
                assert res.codomain_dim == (n - 1) ** 2

    def test_generators_match_dense_bases(self):
        for mk in ("r", "c", "h"):
            for n in range(2, 7):
                assert np.array_equal(tangent_generators(mk, n),
                                      np.array(generators_from_bases(mk, n)))

    def test_generators_skew_hermitian(self):
        for mk in ("r", "c", "h"):
            gens = tangent_generators(mk, 4)
            assert np.array_equal(qmat_adjoint(gens), -gens)

    def test_n1_raises_wrong_size(self):
        for mk in ("r", "c", "h"):
            with pytest.raises(QStochError, match="n must be >= 2"):
                tangent_generators(mk, 1)
            with pytest.raises(QStochError, match="n must be >= 2"):
                jacobian(mk, identity(1))


class TestJacobian:
    def test_identity_is_zero_for_r(self):
        j = jacobian("r", identity(3))
        assert j.shape == (4, 3)
        assert np.max(np.abs(j)) == 0.0
        assert rank_report(j)[0] == 0

    def test_generic_rotation_matches_displayed_form(self, rng):
        x = haar_orthogonal(3, rng)
        got = jacobian("r", QMatrix.from_real(x))
        expect = np.array([
            [x[0, 0] * x[1, 0], x[0, 0] * x[2, 0], 0.0],
            [x[0, 1] * x[1, 1], x[0, 1] * x[2, 1], 0.0],
            [-x[0, 0] * x[1, 0], 0.0, x[1, 0] * x[2, 0]],
            [-x[0, 1] * x[1, 1], 0.0, x[1, 1] * x[2, 1]],
        ])
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_diagonal_imaginary_columns_vanish_for_c(self, rng):
        z = QMatrix.from_complex(haar_unitary(3, rng))
        j = jacobian("c", z)
        # iC columns follow the 3 A columns; diagonal pairs sit at offsets 0, 3, 5
        for off in (0, 3, 5):
            assert np.max(np.abs(j[:, 3 + off])) < 1e-13

    def test_scalar_field_enforced(self, rng):
        z = QMatrix.from_complex(haar_unitary(3, rng))
        with pytest.raises(QStochError, match="map r needs a real matrix"):
            jacobian("r", z)
        w = random_symplectic(3, seed=8)
        with pytest.raises(QStochError, match="map c needs a complex matrix"):
            jacobian("c", w)

    def test_group_membership_enforced(self):
        with pytest.raises(QStochError, match="point is not in the group"):
            jacobian("r", QMatrix.from_real(np.ones((3, 3))))

    def test_rank_equality_c_h(self, rng):
        for n in (2, 3, 4):
            for _ in range(10):
                z = QMatrix.from_complex(haar_unitary(n, rng))
                assert rank_report(jacobian("c", z))[0] == \
                    rank_report(jacobian("h", z))[0]

    def test_finite_difference_consistency(self, rng):
        # the jacobian omits the constant factor 2 of the true derivative
        eps = 1e-6
        for mk in ("r", "c", "h"):
            for n in (2, 3, 4):
                for _ in range(3):
                    if mk == "r":
                        p = QMatrix.from_real(haar_orthogonal(n, rng))
                    elif mk == "c":
                        p = QMatrix.from_complex(haar_unitary(n, rng))
                    else:
                        p = random_symplectic(n, seed=int(rng.integers(1 << 30)))
                    gens = tangent_generators(mk, n)
                    coeffs = rng.standard_normal(len(gens))
                    direction = sum(c * g for c, g in zip(coeffs, gens))
                    plus = qmat_mul(qexpm(eps * direction), p.data)
                    minus = qmat_mul(qexpm(-eps * direction), p.data)
                    fd = b_coordinates((qnormsq(plus) - qnormsq(minus)) / (2 * eps))
                    jv = 2.0 * (jacobian(mk, p) @ coeffs)
                    assert np.linalg.norm(fd - jv) <= 1e-6 * np.linalg.norm(jv)


def _point(mk, kind, n, rng):
    """A point of the group of map mk: Haar, a split block sum, the
    identity, or the Fourier matrix (the identity for map r)."""
    if kind == "haar":
        if mk == "r":
            return QMatrix.from_real(haar_orthogonal(n, rng))
        if mk == "c":
            return QMatrix.from_complex(haar_unitary(n, rng))
        return random_symplectic(n, seed=int(rng.integers(1 << 30)))
    if kind == "split":
        k = int(rng.integers(1, n))
        return QMatrix.from_real(shuffled_block_sum(rng, (k, n - k)))
    if kind == "fourier" and mk != "r":
        return fourier(n)
    return identity(n)


def _unit_phases(mk, n, rng):
    """n unit scalars of the field of map mk: +-1 (r), unit complex (c) or
    unit quaternions (h), as an (n, 4) array."""
    if mk == "r":
        q = np.zeros((n, 4))
        q[:, 0] = rng.choice([-1.0, 1.0], size=n)
        return q
    q = rng.standard_normal((n, 4))
    if mk == "c":
        q[:, 2:] = 0.0
    return q / qnorm(q)[:, None]


def _skew_hermitian3(mk, rng, pure=False):
    """A random 3x3 skew-hermitian direction of map mk's group: a real skew
    part (none when pure) and real symmetric parts on i (map c) or on i, j
    and k (map h)."""
    x = np.zeros((3, 3, 4))
    if not pure:
        a = rng.standard_normal((3, 3))
        x[..., 0] = a - a.T
    for u in (1,) if mk == "c" else (1, 2, 3):
        s = rng.standard_normal((3, 3))
        x[..., u] = s + s.T
    return x


# inputs of the n = 3 pattern rule of maps c and h: Haar points of U(3) and
# Sp(3); O exp(eps X) with X pure, near the real points; Givens products with
# one zero entry, unit phases on both sides (critical but not split); and
# exp(eps X) near the identity, whose frames reach the zero band.  eps is
# log-uniform in [1e-11, 1e-1]; rows and columns are permuted at random.
N3_KINDS = ("haar", "near_real", "givens", "near_identity")


def n3_input(mk, kind, rng) -> QMatrix:
    eps = 10.0 ** rng.uniform(-11.0, -1.0)
    if kind == "haar":
        data = (QMatrix.from_complex(haar_unitary(3, rng)).data if mk == "c"
                else random_symplectic(3, int(rng.integers(1 << 30))).data)
    elif kind == "near_real":
        o = QMatrix.from_real(haar_orthogonal(3, rng)).data
        data = qmat_mul(o, qexpm(eps * _skew_hermitian3(mk, rng, pure=True)))
    elif kind == "givens":
        angles = rng.uniform(0.1, 1.5, 2)
        (c1, c2), (s1, s2) = np.cos(angles), np.sin(angles)
        # the rotation in the (1, 2) plane times the one in the (2, 3) plane
        g = np.array([[c1, -s1 * c2, s1 * s2], [s1, c1 * c2, -c1 * s2],
                      [0.0, s2, c2]])
        data = qmul(qmul(_unit_phases(mk, 3, rng)[:, None, :],
                         QMatrix.from_real(g).data),
                    _unit_phases(mk, 3, rng)[None, :, :])
    else:
        data = qexpm(eps * _skew_hermitian3(mk, rng))
    return QMatrix(data[np.ix_(rng.permutation(3), rng.permutation(3))])


class TestJacobianOracle:
    """The two-row columns against the dense generator-by-generator loop."""

    @settings(max_examples=150, deadline=None)
    @given(mk=st.sampled_from("rch"), n=st.integers(2, 8),
           kind=st.sampled_from(("haar", "split", "identity", "fourier")),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_generators(self, mk, n, kind, seed):
        p = _point(mk, kind, n, np.random.default_rng(seed))
        got = jacobian(mk, p)
        want = jacobian_by_generators(mk, p)
        assert np.array_equal(got, want)
        if mk != "h":
            # the rmat text of maps r and c keeps even the signs of zeros
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestNumericalRank:
    def test_zero_matrix(self):
        assert rank_report(np.zeros((4, 6)))[0] == 0

    def test_gap_for_full_rank(self):
        rank, svals, gap = rank_report(np.eye(3))
        assert rank == 3 and gap > 1e9

    def test_threshold_scaling(self, rng):
        m = np.diag([1.0, 1e-3, 1e-14])
        assert rank_report(m, tol=1e-10)[0] == 2


class TestClassification:
    def test_rotation_regular_n2(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        rot = QMatrix.from_real(np.array([[c, -s], [s, c]]))
        res = classify_point("r", rot)
        assert res.verdict == "regular"
        assert res.pattern_verdict == "regular"
        # the whole differential is the 1x1 matrix [x11 * x21]
        j = jacobian("r", rot)
        assert j.shape == (1, 1)
        assert j[0, 0] == pytest.approx(c * s)

    def test_eight_exceptional_points_n2(self):
        for d in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            res = classify_point("r", QMatrix.from_real(np.diag(d)))
            assert res.verdict == "singular"
            anti = np.array([[0.0, d[0]], [d[1], 0.0]])
            res = classify_point("r", QMatrix.from_real(anti))
            assert res.verdict == "singular"

    def test_split_matrices_singular_all_maps(self, rng):
        for sizes in ((1, 2), (2, 2), (1, 3)):
            x = shuffled_block_sum(rng, sizes)
            n = sum(sizes)
            res = classify_point("r", QMatrix.from_real(x))
            assert res.verdict == "singular"
            for mk in ("c", "h"):
                res = classify_point(mk, QMatrix.from_real(x))
                assert res.verdict == "critical"

    def test_zero_diagonal_o4_singular_with_vanishing_minors(self, rng):
        for _ in range(5):
            x = zero_diagonal_orthogonal(rng)
            res = classify_point("r", QMatrix.from_real(x))
            assert res.verdict == "singular"
            assert res.pattern_verdict == "singular"
            for i in range(4):
                keep = [k for k in range(4) if k != i]
                assert abs(np.linalg.det(x[np.ix_(keep, keep)])) < 1e-9

    def test_haar_o3_regular_for_r(self, rng):
        for _ in range(20):
            x = QMatrix.from_real(haar_orthogonal(3, rng))
            assert classify_point("r", x).verdict == "regular"

    def test_fourier_regular_for_c(self):
        res = classify_point("c", fourier(3))
        assert res.verdict == "regular"
        assert res.rank == (3 - 1) ** 2

    def test_real_orthogonal_critical_for_c_and_h(self, rng):
        x = QMatrix.from_real(haar_orthogonal(3, rng))
        for mk in ("c", "h"):
            res = classify_point(mk, x)
            assert res.verdict == "critical"
            assert res.pattern_verdict == "critical"

    def test_equivalent_to_real_detected_through_disguise(self, rng):
        # twist a real orthogonal matrix by monomial moves and an entrywise
        # conjugation; the pattern check must still see it as critical
        from qstoch.qmatrix import qconj, qmat_mul
        from qstoch.stochastic import permutation_array
        x = QMatrix.from_real(haar_orthogonal(3, rng))
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        moved = qmat_mul(qmat_mul(
            QMatrix.from_real(permutation_array((1, 2, 0))).data,
            qdiag([Quaternion(0, 0, 1, 0), Quaternion(1, 0, 0, 0),
                   Quaternion(0, 0.6, 0.8, 0)])), x.data)
        twisted = QMatrix(qmul(qmul(q, moved), qconj(q)))
        res = classify_point("h", twisted)
        assert res.verdict == "critical"
        assert res.pattern_verdict == "critical"

    def test_rank_and_pattern_disagreement_raises(self):
        # a ratio of 0.5 leaves a zero-free O(3) point rank 0, so the rank
        # verdict is singular while its zero pattern reads regular
        p = QMatrix.from_real(haar_orthogonal(3, np.random.default_rng(3)))
        with pytest.raises(QStochError, match="pattern verdict regular"):
            classify_point("r", p, tol=0.5)

    def test_generic_symplectic_regular_for_h(self):
        w = random_symplectic(3, seed=21)
        res = classify_point("h", w)
        assert res.verdict == "regular"

    def test_unsupported_size_skips_pattern_check(self):
        # the pattern rules decide maps c and h up to n = 3 only, so
        # classify skips them at n = 4
        w = random_symplectic(4, seed=3)
        assert classify_point("h", w).pattern_verdict is None

    def test_pattern_sizes_have_one_owner(self):
        """classify_point alone reads _PATTERN_SIZES; the one pattern rule
        it calls checks no size and raises no size error of its own."""
        assert "_PATTERN_SIZES" not in inspect.getsource(_pattern_verdict)
        assert not hasattr(errors, "UnsupportedSize")

    def test_replaced_rule_names_stay_gone(self):
        """The n = 3 rule reads the dephased matrix: the corner loop, the
        aligning rotation and the per-map rules it replaced are named
        nowhere in src/qstoch (their reference lives in tests/oracles.py)."""
        gone = re.compile(r"\b(aligning_conjugator|entrywise_conjugate"
                          r"|NonUnitConjugator|_reduce_to_complex|_PERMS3"
                          r"|_pattern_verdict_r|_pattern_verdict_ch"
                          r"|pure_norm)\b")
        src = Path(qstoch.__file__).parent
        found = [f"{path.name}:{no}: {line.strip()}"
                 for path in sorted(src.glob("*.py"))
                 for no, line in enumerate(path.read_text().splitlines(), 1)
                 if gone.search(line)]
        assert found == []

    def test_n2_rules_match_mask_oracle(self, rng):
        """The n = 2 verdicts through splits against the zero-mask rules, on
        2000 Haar points of each group and on rotations at the edges of the
        zero band, each also twisted by quaternionic row phases."""
        points = []
        for _ in range(2000):
            points += [("r", QMatrix.from_real(haar_orthogonal(2, rng))),
                       ("c", QMatrix.from_complex(haar_unitary(2, rng))),
                       ("h", random_symplectic(2, int(rng.integers(1 << 30))))]
        phases = np.array([[0.6, 0.0, 0.8, 0.0], [0.0, 0.6, 0.0, 0.8]])
        for base in (0.0, np.pi / 2):
            for angle in (0.0, 1e-12, 1e-9, 2e-9, 1e-6):
                c, s = np.cos(base + angle), np.sin(base + angle)
                rot = QMatrix.from_real([[c, -s], [s, c]])
                twisted = QMatrix(qmul(phases[:, None, :], rot.data))
                points += [(kind, rot) for kind in "rch"]
                points += [("c", twisted), ("h", twisted)]
        verdicts = set()
        for kind, p in points:
            mask = _zero_mask_stable(p.norms())
            got = _pattern_verdict(kind, p)
            if kind == "r":
                expected = "undecided" if mask is None else \
                    pattern_verdict_2x2(mask, "singular")
            else:
                expected = "undecided" if mask is None else \
                    pattern_verdict_2x2(mask, "critical")
            assert got == expected, (kind, p.data)
            verdicts.add(got)
        assert verdicts == {"regular", "singular", "critical", "undecided"}

    def test_report_line_format(self):
        res = classify_point("r", identity(3))
        line = res.report_line()
        assert line.startswith("map=r n=3 rank=0 ")
        assert "verdict=singular" in line


class TestPatternVerdict3x3:
    """The n = 3 rule of maps c and h, which reads the pure parts of the
    dephased matrix, against the reference that searched every permutation
    pair for its corner and rotated the (2,2) entry onto the i axis."""

    def test_matches_aligned_reference(self):
        rng = np.random.default_rng(2023)
        verdicts = {"c": set(), "h": set()}
        for mk in "ch":
            for kind in N3_KINDS:
                for _ in range(375):
                    p = n3_input(mk, kind, rng)
                    want = pattern_verdict_3x3_aligned(p)
                    assert _pattern_verdict(mk, p) == want, (mk, kind, p.data)
                    verdicts[mk].add(want)
        assert verdicts == {mk: {"regular", "critical", "undecided"}
                            for mk in "ch"}

    def test_off_plane_residue_leaves_the_verdict_undecided(self):
        """A j coordinate added to one entry of a complex point leaves a
        pure part off the plane of the others: above REDUCED_ZERO it stops
        the verdict, far below it the point stays regular."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = QMatrix.from_complex(haar_unitary(3, rng)).data
            i, j = rng.integers(3, size=2)
            for delta, want in ((1e-5, "undecided"), (1e-10, "regular")):
                q = p.copy()
                q[i, j, 2] += delta
                q = QMatrix(q)
                assert _pattern_verdict("h", q) == want
                assert pattern_verdict_3x3_aligned(q) == want


class TestClassifySymmetries:
    @settings(max_examples=150, deadline=None)
    @given(mk=st.sampled_from("rch"), n=st.integers(2, 4),
           kind=st.sampled_from(("haar", "split")),
           seed=st.integers(0, 2**32 - 1))
    def test_monomial_moves_keep_the_verdict(self, mk, n, kind, seed):
        """The verdict, rank and pattern verdict of classify_point do not
        move under P -> D1 Pi1 P Pi2 D2, for permutations Pi and unit
        diagonals D in the map's field, on Haar and split points."""
        rng = np.random.default_rng(seed)
        p = _point(mk, kind, n, rng)
        moved = p.data[np.ix_(rng.permutation(n), rng.permutation(n))]
        moved = qmul(qmul(_unit_phases(mk, n, rng)[:, None, :], moved),
                     _unit_phases(mk, n, rng)[None, :, :])
        a = classify_point(mk, p)
        b = classify_point(mk, QMatrix(moved))
        assert (b.verdict, b.rank, b.pattern_verdict) == \
            (a.verdict, a.rank, a.pattern_verdict)

    def test_phased_monomial_meets_the_rank_noise_defect(self):
        """The Jacobian of map h at the identity times unit quaternion row
        phases is zero up to rounding noise (1.4e-17).  A threshold relative
        to the largest singular value gave that noise full rank, and classify
        raised; RANK_FLOOR reads it as rank 0, as at the identity."""
        rng = np.random.default_rng(0)
        phases = _unit_phases("h", 2, rng)
        p = QMatrix(qmul(phases[:, None, :], identity(2).data))
        assert 0.0 < np.max(np.abs(jacobian("h", p))) < 1e-16
        got = classify_point("h", p)
        assert (got.rank, got.verdict, got.pattern_verdict) == \
            (0, "critical", "critical")
        assert classify_point("h", identity(2)).rank == 0
