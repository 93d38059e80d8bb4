import numpy as np
import pytest

from circfreg import (
    CoefVector,
    design_matrix,
    function_eval,
    weighted_inner,
    weighted_norm_sq,
)

SQRT2 = np.sqrt(2.0)


class TestDesignMatrix:
    # column j - 1 of design_matrix holds phi_j
    def test_constant_function(self):
        assert design_matrix(1, 0.37)[0, 0] == 1.0

    def test_cosine_at_zero(self):
        assert design_matrix(2, 0.0)[0, 1] == pytest.approx(SQRT2, abs=1e-15)

    def test_sine_quarter_period(self):
        assert design_matrix(3, 0.25)[0, 2] == pytest.approx(SQRT2, abs=1e-15)

    def test_point_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            design_matrix(2, 1.5)

    def test_vectorized_matches_scalar(self):
        # a scalar t gives one row, that of t in the vectorized matrix
        t = np.linspace(0.0, 1.0, 11)
        rows = [design_matrix(9, ti) for ti in t]
        assert all(row.shape == (1, 9) for row in rows)
        assert np.allclose(design_matrix(9, t), np.vstack(rows), atol=1e-15)


class TestFunctionEval:
    def test_single_constant_coefficient(self):
        assert function_eval(CoefVector([1.0]), 0.9) == 1.0

    def test_reduces_to_one_basis_function(self):
        assert function_eval(CoefVector([0.0, 1.0, 0.0]), 0.0) == pytest.approx(SQRT2)

    def test_hand_evaluation(self):
        # 1 + sqrt(2) cos(pi) = 1 - sqrt(2)
        got = function_eval(CoefVector([1.0, 1.0]), 0.5)
        assert got == pytest.approx(1.0 - SQRT2, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            function_eval(CoefVector([1.0]), -0.1)


class TestWeightedOps:
    def test_norm_of_zero_vector(self):
        assert weighted_norm_sq(CoefVector([0.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_norm_hand_sum(self):
        assert weighted_norm_sq(CoefVector([1.0, 2.0]), np.array([1.0, 4.0])) == 17.0
        # a zero coefficient adds 0 even where its weight overflowed to inf
        assert weighted_norm_sq(CoefVector([1.0, 0.0]), np.array([1.0, np.inf])) == 1.0

    def test_norm_single_term(self):
        assert weighted_norm_sq(CoefVector([3.0]), np.array([1.0])) == 9.0

    def test_inner_hand_sum(self):
        f = CoefVector([1.0, 1.0])
        assert weighted_inner(f, f, np.array([1.0, 1.0])) == 2.0
        f = CoefVector([1.0, 0.0])
        assert weighted_inner(f, f, np.array([1.0, np.inf])) == 1.0

    def test_inner_disjoint_support(self):
        assert weighted_inner(CoefVector([1.0, 0.0]), CoefVector([0.0, 1.0]),
                              np.array([1.0, 5.0])) == 0.0

    def test_inner_single_product(self):
        assert weighted_inner(CoefVector([2.0]), CoefVector([3.0]), np.array([1.0])) == 6.0

    def test_zero_padding_mismatched_lengths(self):
        # shorter vector behaves as if padded with zeros
        f = CoefVector([1.0, 2.0, 5.0])
        w = np.array([1.0, 4.0])
        assert len(f) == 3 and len(w) == 2
        assert weighted_norm_sq(f, w) == 17.0
        assert weighted_inner(f, CoefVector([1.0]), w) == 1.0


class TestProperties:
    def test_orthonormality_riemann(self):
        # (1/G) sum_g phi_i(g/G) phi_j(g/G) = delta_ij for i, j <= 9, G = 1024
        grid_size = 1024
        t = np.arange(grid_size) / grid_size
        design = design_matrix(9, t)
        gram = design.T @ design / grid_size
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10

    def test_parseval_against_quadrature(self):
        rng = np.random.default_rng(101)
        grid_size = 4096
        t = np.arange(grid_size) / grid_size
        for _ in range(20):
            size = int(rng.integers(1, 40))
            f = CoefVector(rng.normal(size=size))
            ones = np.ones(size)
            quad = float(np.mean(function_eval(f, t) ** 2))
            norm = weighted_norm_sq(f, ones)
            assert norm == pytest.approx(quad, rel=1e-6)

    def test_inner_symmetry_and_bilinearity_exact(self):
        # integer-valued inputs keep every float product exact
        rng = np.random.default_rng(7)
        for _ in range(50):
            size = int(rng.integers(1, 12))
            f = rng.integers(-6, 7, size).astype(float)
            g = rng.integers(-6, 7, size).astype(float)
            h = rng.integers(-6, 7, size).astype(float)
            w = np.ones(size)
            w[1:] = rng.integers(1, 5, size - 1)
            a, b = float(rng.integers(-4, 5)), float(rng.integers(-4, 5))
            assert weighted_inner(f, g, w) == weighted_inner(g, f, w)
            assert weighted_inner(a * f + b * g, h, w) == (
                a * weighted_inner(f, h, w) + b * weighted_inner(g, h, w)
            )

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            size = int(rng.integers(1, 30))
            f = rng.normal(size=size)
            g = rng.normal(size=size)
            w = np.ones(size)
            w[1:] = rng.uniform(0.2, 5.0, size - 1)
            lhs = weighted_inner(f, g, w) ** 2
            rhs = weighted_norm_sq(f, w) * weighted_norm_sq(g, w)
            assert lhs <= rhs * (1.0 + 1e-12)


class TestValidation:
    def test_coef_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            CoefVector([])

    def test_coef_vector_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CoefVector([1.0, np.nan])

    def test_design_matrix_needs_a_basis_function(self):
        with pytest.raises(ValueError, match="n_basis must be >= 1, got 0"):
            design_matrix(0, 0.5)

    def test_immutable_after_construction(self):
        f = CoefVector([1.0, 2.0])
        with pytest.raises(ValueError):
            f.coefs[0] = 5.0
