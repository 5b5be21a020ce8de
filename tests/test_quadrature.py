"""Gauss-Laguerre synthesis and adaptive integration checks.

The quadrature rules are validated two independent ways: against the
closed-form low-order rules (order 1 and 2 have algebraic node/weight
expressions) and against numpy's own Laguerre rule generator, which uses a
different construction path. Exactness on monomials pins the rules to the
moments d! of the e^(-x) weight.
"""
import math

import numpy as np
import pytest

from fblfas.errors import NumericError
from fblfas.quadrature import (
    MAX_ORDER,
    _golub_welsch,
    gauss_laguerre,
    gauss_legendre,
    integrate_adaptive,
)


class TestGaussLaguerre:
    def test_order_one_closed_form(self):
        rule = gauss_laguerre(1)
        assert rule.nodes[0] == pytest.approx(1.0, abs=1e-14)
        assert rule.weights[0] == pytest.approx(1.0, abs=1e-14)

    def test_order_two_closed_form(self):
        rule = gauss_laguerre(2)
        root2 = math.sqrt(2.0)
        np.testing.assert_allclose(rule.nodes, [2.0 - root2, 2.0 + root2], atol=1e-12)
        np.testing.assert_allclose(
            rule.weights, [(2.0 + root2) / 4.0, (2.0 - root2) / 4.0], atol=1e-12
        )

    def test_monomial_exactness(self):
        # an order-n rule integrates x^d exactly for d <= 2n-1, giving d!
        for order in range(1, 21):
            rule = gauss_laguerre(order)
            for d in range(2 * order):
                got = float(np.dot(rule.weights, rule.nodes**d))
                assert got == pytest.approx(math.factorial(d), rel=1e-10), (
                    f"order={order} degree={d}"
                )

    def test_weights_sum_to_one(self):
        for order in (1, 8, 32, 64, MAX_ORDER):
            rule = gauss_laguerre(order)
            assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-12)
            # far-tail weights underflow to exactly 0 at high order; the
            # mass-carrying leading nodes must stay strictly positive
            assert np.all(rule.weights >= 0.0)
            assert np.all(rule.weights[: order // 4 + 1] > 0.0)

    def test_nodes_positive_increasing(self):
        for order in (3, 32, 128):
            rule = gauss_laguerre(order)
            assert rule.nodes[0] > 0.0
            assert np.all(np.diff(rule.nodes) > 0.0)

    def test_interlacing(self):
        # roots of consecutive Laguerre polynomials interlace
        for order in (2, 7, 31):
            lo = gauss_laguerre(order).nodes
            hi = gauss_laguerre(order + 1).nodes
            assert np.all(hi[:-1] < lo)
            assert np.all(lo < hi[1:])

    def test_matches_numpy_rule(self):
        for order in (5, 32, 64):
            rule = gauss_laguerre(order)
            x_np, w_np = np.polynomial.laguerre.laggauss(order)
            np.testing.assert_allclose(rule.nodes, x_np, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(rule.weights, w_np, rtol=1e-9, atol=1e-14)

    def test_rejects_bad_order(self):
        for bad in (0, -3, MAX_ORDER + 1):
            with pytest.raises(ValueError):
                gauss_laguerre(bad)
        with pytest.raises(ValueError):
            gauss_laguerre(2.5)

    def test_jacobi_matrix_recurrence(self):
        # the nodes are the eigenvalues of the Laguerre Jacobi matrix,
        # alpha_n = 2n + 1 on the diagonal and sqrt(beta_n) = n off it
        from scipy.linalg import eigvalsh_tridiagonal

        want = eigvalsh_tridiagonal([1.0, 3.0, 5.0, 7.0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(gauss_laguerre(4).nodes, want, rtol=1e-13)


class TestGolubWelsch:
    def test_matches_scipy_tridiagonal_solver(self):
        # the helper runs numpy's dense eigh, so the reference is scipy's
        # tridiagonal solver (LAPACK stemr), a different algorithm
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(3)
        d = rng.normal(size=12)
        e = rng.normal(size=11)
        rule = _golub_welsch(12, d, e, 3.0)
        want_vals, want_vecs = eigh_tridiagonal(d, e)
        assert rule.order == 12
        np.testing.assert_allclose(rule.nodes, want_vals, atol=1e-12)
        # weights are the moment times the squared first components of the
        # unit eigenvectors, so they sum to the moment
        assert float(np.sum(rule.weights)) == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(rule.weights, 3.0 * want_vecs[0, :] ** 2, atol=1e-10)

    def test_checks_node_order_and_weight_sum(self):
        # a repeated eigenvalue gives nodes that do not strictly increase
        with pytest.raises(NumericError, match="strictly increase"):
            _golub_welsch(2, np.array([1.0, 1.0]), np.array([0.0]), 1.0)
        # weights that are not finite fail the weight-sum check
        with pytest.raises(NumericError, match="sum to nan"):
            _golub_welsch(2, np.array([1.0, 3.0]), np.array([1.0]), math.nan)


class TestGaussLegendre:
    def test_matches_numpy_rule(self):
        for order in (1, 2, 5, 16, 64):
            rule = gauss_legendre(order)
            nodes, weights = np.polynomial.legendre.leggauss(order)
            np.testing.assert_allclose(rule.nodes, nodes, atol=1e-13)
            np.testing.assert_allclose(rule.weights, weights, atol=1e-13)

    def test_monomial_exactness(self):
        # an order-n rule integrates x^d over [-1, 1] exactly for d <= 2n-1
        for order in (1, 3, 8, 16):
            rule = gauss_legendre(order)
            for degree in range(2 * order):
                want = 0.0 if degree % 2 else 2.0 / (degree + 1)
                got = float(rule.weights @ rule.nodes**degree)
                assert got == pytest.approx(want, abs=1e-13), (order, degree)

    def test_jacobi_matrix_recurrence(self):
        # the nodes are the eigenvalues of the Legendre Jacobi matrix,
        # alpha_n = 0 and sqrt(beta_n) = n / sqrt(4n^2 - 1)
        from scipy.linalg import eigvalsh_tridiagonal

        want = eigvalsh_tridiagonal([0.0, 0.0, 0.0],
                                    [1.0 / math.sqrt(3.0), 2.0 / math.sqrt(15.0)])
        np.testing.assert_allclose(gauss_legendre(3).nodes, want, atol=1e-15)

    def test_rejects_bad_order(self):
        for bad in (0, MAX_ORDER + 1, 2.5, True):
            with pytest.raises(ValueError):
                gauss_legendre(bad)


class TestIntegrateExpWeight:
    # a Gauss-Laguerre rule integrates against e^(-x) as sum_i w_i f(x_i)
    def test_polynomial_is_exact(self):
        rule = gauss_laguerre(4)
        got = rule.weights @ (rule.nodes**3 - 2.0 * rule.nodes + 5.0)
        assert got == pytest.approx(6.0 - 2.0 + 5.0, rel=1e-12)

    def test_converges_with_order(self):
        # int_0^inf e^(-x) sin(x) dx = 1/2
        r32, r8 = gauss_laguerre(32), gauss_laguerre(8)
        err32 = abs(r32.weights @ np.sin(r32.nodes) - 0.5)
        err8 = abs(r8.weights @ np.sin(r8.nodes) - 0.5)
        assert err32 < err8
        assert err32 < 1e-10


class TestIntegrateAdaptive:
    def test_smooth_integrand(self):
        res = integrate_adaptive(lambda x: x * x, 0.0, 1.0, tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_integrable_singularity(self):
        res = integrate_adaptive(lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), 0.0, 1.0)
        assert abs(res.value - 2.0) < 1e-7

    def test_semi_infinite_tail_folding(self):
        res = integrate_adaptive(lambda x: np.exp(-x), 0.0, math.inf, tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-11)
        res = integrate_adaptive(lambda x: np.exp(-0.5 * x) * 0.5, 2.0, math.inf, tol=1e-12)
        assert res.value == pytest.approx(math.exp(-1.0), rel=1e-11)

    def test_error_estimate_is_honest(self):
        res = integrate_adaptive(lambda x: np.cos(10.0 * x), 0.0, 3.0, tol=1e-12)
        true = math.sin(30.0) / 10.0
        assert abs(res.value - true) <= max(res.error_estimate, 1e-12)

    def test_reports_non_convergence(self):
        wild = lambda x: np.sin(1000.0 * x) * 1000.0
        res = integrate_adaptive(wild, 0.0, 10.0, tol=1e-14, max_panels=8)
        assert not res.converged
        assert res.error_estimate > 1e-14

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.exp, math.inf, 1.0)
        with pytest.raises(ValueError):
            integrate_adaptive(np.exp, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_adaptive(np.exp, 0.0, 1.0, tol=0.0)

    def test_rejects_non_finite_integrand(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericError):
                integrate_adaptive(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)
