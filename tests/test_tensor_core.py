import numpy as np
import pytest

from mcpca import (
    AsymmetricInputError,
    CovarianceTensor,
    DimensionMismatchError,
    contract_mode3,
    extract_subspace,
    flatten,
    stack_covariances,
    tensor_from_factors,
)
from mcpca.decompose import _unfoldings


def _random_factors(p, k, r, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, r))
    A /= np.linalg.norm(A, axis=0)
    B = np.abs(rng.standard_normal((k, r)))
    return A, B


class TestStackCovariances:
    def test_identity_slices(self):
        t = stack_covariances([np.eye(2), np.eye(2)])
        assert t.p == 2 and t.k == 2
        np.testing.assert_array_equal(t.slices[0], np.eye(2))
        np.testing.assert_array_equal(t.slices[1], np.eye(2))

    def test_slice_order_preserved(self):
        s1 = np.array([[2.0, 0.0], [0.0, 0.0]])
        s2 = np.array([[0.0, 0.0], [0.0, 2.0]])
        t = stack_covariances([s1, s2])
        np.testing.assert_array_equal(t.slices[0], s1)
        np.testing.assert_array_equal(t.slices[1], s2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            stack_covariances([np.eye(2), np.eye(3)])

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(AsymmetricInputError):
            stack_covariances([bad])

    def test_tiny_asymmetry_symmetrized(self):
        s = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        t = stack_covariances([s])
        np.testing.assert_array_equal(t.slices[0], t.slices[0].T)


class TestFlatten:
    def test_identity_blocks(self):
        t = stack_covariances([np.eye(2), np.eye(2)])
        np.testing.assert_allclose(flatten(t)[0], [np.sqrt(2), np.sqrt(2)])

    def test_single_diagonal_slice(self):
        t = stack_covariances([np.diag([3.0, 1.0])])
        np.testing.assert_allclose(flatten(t)[0], [3.0, 1.0])

    def test_planted_rank_three_has_three_singular_values(self):
        # Oracle: the flattening of a tensor built from 3 generic rank-one
        # terms has rank 3, read off its SVD directly.
        A, B = _random_factors(5, 4, 3, seed=7)
        t = tensor_from_factors(A, B)
        sv = flatten(t)[0]
        assert np.count_nonzero(sv > 1e-9 * sv[0]) == 3

    def test_generic_rank_r_flattening(self):
        for r in (1, 2, 4):
            A, B = _random_factors(6, 5, r, seed=10 + r)
            sv = flatten(tensor_from_factors(A, B))[0]
            assert np.count_nonzero(sv > 1e-9 * sv[0]) == r


    def test_slices_cannot_be_made_writable(self):
        # flatten caches the SVD on the tensor, so the slices it was taken
        # from must stay fixed: re-enabling writes has to fail.
        A, B = _random_factors(5, 3, 2, seed=7)
        t = tensor_from_factors(A, B)
        singular_values = flatten(t)[0].copy()
        with pytest.raises(ValueError):
            t.slices.setflags(write=True)
        with pytest.raises(ValueError):
            t.slices[0, 0, 0] = 1.0
        np.testing.assert_array_equal(flatten(t)[0], singular_values)


class TestContractMode3:
    def test_linearity_on_identities(self):
        t = stack_covariances([np.eye(2), np.eye(2)])
        np.testing.assert_allclose(contract_mode3(t, [1.0, 1.0]), 2 * np.eye(2))

    def test_unit_vector_selects_slice(self):
        s1 = np.array([[2.0, 1.0], [1.0, 3.0]])
        s2 = np.array([[1.0, 0.0], [0.0, 5.0]])
        t = stack_covariances([s1, s2])
        np.testing.assert_array_equal(contract_mode3(t, [1.0, 0.0]), s1)

    def test_matches_factor_oracle(self):
        # Oracle: brute-force sum over rank-one terms.
        A, B = _random_factors(5, 4, 3, seed=3)
        t = tensor_from_factors(A, B)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(4)
        expected = np.zeros((5, 5))
        for j in range(3):
            expected += (B[:, j] @ v) * np.outer(A[:, j], A[:, j])
        np.testing.assert_allclose(contract_mode3(t, v), expected, atol=1e-10)

    def test_result_symmetric(self):
        A, B = _random_factors(6, 4, 3, seed=5)
        t = tensor_from_factors(A, B)
        rng = np.random.default_rng(6)
        for _ in range(5):
            m = contract_mode3(t, rng.standard_normal(4))
            assert np.abs(m - m.T).max() <= 1e-12 * max(1.0, np.abs(m).max())

    def test_linear_in_v(self):
        A, B = _random_factors(4, 3, 2, seed=8)
        t = tensor_from_factors(A, B)
        rng = np.random.default_rng(9)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        lhs = contract_mode3(t, 0.3 * u + 1.7 * v)
        rhs = 0.3 * contract_mode3(t, u) + 1.7 * contract_mode3(t, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_length_mismatch(self):
        t = stack_covariances([np.eye(2), np.eye(2)])
        with pytest.raises(DimensionMismatchError):
            contract_mode3(t, [1.0, 0.0, 0.0])


def _subspace_from_pairs(pairs, p, k):
    """(p, k*r) unfolding of the working subspace of the tensor whose
    slices are sum_j b_j[i] a_j a_j^T: the span of the vec(a_j (x) b_j)."""
    A = np.column_stack([a for a, _ in pairs])
    B = np.column_stack([b for _, b in pairs])
    rows = extract_subspace(tensor_from_factors(A, B), len(pairs))
    unfold, _ = _unfoldings(rows, p, k)
    return rows, unfold


def _contract_pair(unfold, a, b):
    """Entry l is a^T D_l b for the l-th basis element D_l, read through
    the (p, k*r) unfolding the power iterations contract."""
    return (a @ unfold).reshape(b.shape[0], -1).T @ b


class TestContractPair:
    def test_unit_projection_of_basis_element(self):
        rng = np.random.default_rng(11)
        a0 = rng.standard_normal(5)
        a0 /= np.linalg.norm(a0)
        b0 = rng.standard_normal(3)
        b0 /= np.linalg.norm(b0)
        _, unfold = _subspace_from_pairs([(a0, b0)], 5, 3)
        np.testing.assert_allclose(abs(_contract_pair(unfold, a0, b0)[0]), 1.0, atol=1e-12)

    def test_orthogonal_direction_gives_zero(self):
        rng = np.random.default_rng(12)
        a0 = rng.standard_normal(5)
        a0 /= np.linalg.norm(a0)
        b0 = rng.standard_normal(3)
        b0 /= np.linalg.norm(b0)
        perp = rng.standard_normal(5)
        perp -= (perp @ a0) * a0
        perp /= np.linalg.norm(perp)
        _, unfold = _subspace_from_pairs([(a0, b0)], 5, 3)
        np.testing.assert_allclose(_contract_pair(unfold, perp, b0), [0.0], atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(13)
        pairs = []
        for _ in range(3):
            a = rng.standard_normal(6)
            b = rng.standard_normal(4)
            pairs.append((a / np.linalg.norm(a), b / np.linalg.norm(b)))
        rows, unfold = _subspace_from_pairs(pairs, 6, 4)
        a = rng.standard_normal(6)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(4)
        b /= np.linalg.norm(b)
        # Oracle: explicit double sum over every entry of each basis row,
        # entry j*p + i holding variable i of context j.
        expected = np.zeros(3)
        for ell in range(3):
            for i in range(6):
                for j in range(4):
                    expected[ell] += a[i] * rows[ell, j * 6 + i] * b[j]
        np.testing.assert_allclose(_contract_pair(unfold, a, b), expected, atol=1e-12)
