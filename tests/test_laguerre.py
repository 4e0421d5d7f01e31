import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from oracle_helpers import fsum_empirical_coeffs, matrix_phi_univariate, stdout_per_blas_threads
from thorin.ggc import GgcModel
from thorin.laguerre import (
    _CHUNK,
    _GRID_ROWS,
    CoeffTensor,
    _phi_far,
    density_grid,
    empirical_coeffs,
    l2_norm_sq,
    phi,
    phi_univariate,
    theoretical_coeffs,
    validate_samples,
)
from thorin.oracle import coeffs_from_moments, model_coeffs
from thorin.validate import bench_pdf

SQRT2 = math.sqrt(2.0)


def phi_binomial_sum(k: int, x: float) -> float:
    # defining sum, usable as an oracle for small k only (it cancels
    # catastrophically for large k)
    acc = 0.0
    for l in range(k + 1):
        acc += math.comb(k, l) * (-2.0 * x) ** l / math.factorial(l)
    return SQRT2 * math.exp(-x) * acc


class TestPhi:
    def test_at_origin(self):
        assert phi((0,), (0.0,)) == pytest.approx(SQRT2, rel=1e-15)
        assert phi((7,), (0.0,)) == pytest.approx(SQRT2, rel=1e-15)

    def test_first_order_value(self):
        assert phi((1,), (1.0,)) == pytest.approx(-SQRT2 / math.e, rel=1e-14)
        assert phi((1,), (1.0,)) == pytest.approx(phi_binomial_sum(1, 1.0), rel=1e-14)

    def test_tensor_product(self):
        x = (0.3, 1.7)
        assert phi((2, 5), x) == pytest.approx(
            phi((2,), (0.3,)) * phi((5,), (1.7,)), rel=1e-13
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            phi((1,), (-0.1,))

    def test_recurrence_matches_binomial_sum(self):
        # the sum itself cancels once (2x)^l/l! grows large, so the
        # comparison stays where the oracle is trustworthy
        rng = np.random.default_rng(0)
        xs_small = rng.uniform(0, 15, 50)
        mat = phi_univariate(5, xs_small)
        for k in (0, 1, 2, 5):
            for i, x in enumerate(xs_small):
                assert mat[k, i] == pytest.approx(
                    phi_binomial_sum(k, x), rel=1e-9, abs=1e-9
                )
        xs = rng.uniform(0, 6, 50)
        mat = phi_univariate(20, xs)
        for k in (11, 16, 20):
            for i, x in enumerate(xs):
                assert mat[k, i] == pytest.approx(
                    phi_binomial_sum(k, x), rel=1e-6, abs=1e-6
                )

    def test_uniform_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            k = tuple(int(v) for v in rng.integers(0, 51, d))
            xs = rng.uniform(0, 50, (100, d))
            mats = [phi_univariate(k[j], xs[:, j]) for j in range(d)]
            vals = np.ones(100)
            for j in range(d):
                vals = vals * mats[j][k[j]]
            assert np.all(np.abs(vals) <= SQRT2 ** d + 1e-9)

    def test_far_tail_matches_mp_oracle(self):
        # beyond x = 700, L_k(2x) may overflow and e^{-x} underflows: the
        # values are the true tiny ones (zero once they underflow), never NaN
        xs = np.concatenate([[650.0, 699.0, 701.0, 750.0, 900.0, 1100.0],
                             np.logspace(3.2, 300, 12), [1e20, 9e21]])
        kmax = 60
        got = phi_univariate(kmax, xs)
        with mpmath.workdps(40):
            for i, x in enumerate(xs):
                X = mpmath.mpf(x)
                for k in range(kmax + 1):
                    ref = float(mpmath.sqrt(2) * mpmath.exp(-X) * mpmath.laguerre(k, 0, 2 * X))
                    if abs(ref) >= 1e-300:
                        assert got[k, i] == pytest.approx(ref, rel=1e-12), (k, x)
                    else:
                        assert abs(got[k, i] - ref) <= 1e-300, (k, x)

    def test_scaled_in_place(self):
        # the e^{-x} factor scales the recurrence's output where it lies:
        # no second (kmax+1) x N matrix
        xs = np.linspace(0.0, 30.0, 100_000)
        tracemalloc.start()
        try:
            out = phi_univariate(20, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 8 * xs.nbytes

    def test_far_rows_scaled_in_place(self):
        # beyond x = 700 each row is scaled as soon as the recurrence is past
        # it, and the binary exponents are one vector: no second matrix
        xs = np.linspace(701.0, 3000.0, 4096)
        tracemalloc.start()
        try:
            out = _phi_far(300, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 8 * xs.nbytes

    def test_orthonormality_by_quadrature(self):
        for j in range(0, 11, 2):
            for k in range(j, 11, 3):
                val, _ = quad(
                    lambda x, j=j, k=k: phi_univariate(max(j, k), np.array([x]))[j, 0]
                    * phi_univariate(max(j, k), np.array([x]))[k, 0],
                    0.0,
                    80.0,
                    limit=200,
                )
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-8)

    @pytest.mark.parametrize("k, x", [((1, 2), [1.0]), ((1,), [1.0, 2.0])])
    def test_index_and_point_of_other_dimensions(self, k, x):
        with pytest.raises(ValueError, match="index and point must have the same dimension"):
            phi(k, x)


class TestEmpiricalCoeffs:
    def test_single_sample_at_origin(self):
        ct = empirical_coeffs(np.zeros((1, 1)), (3,))
        assert np.allclose(ct.a, SQRT2)

    def test_heavy_tail_maximum_contributes_zero(self):
        # a Pareto(0.25) sample of 1e5 reaches ~1e20, where L_21(2x)
        # overflows in doubles
        ct = empirical_coeffs(np.array([[1.4e20], [0.5]]), (21,))
        assert np.array_equal(ct.a, phi_univariate(21, [0.5])[:, 0] / 2)

    def test_single_sample_equals_phi(self):
        x = np.array([[0.7, 2.1]])
        ct = empirical_coeffs(x, (2, 2))
        for k in np.ndindex(3, 3):
            assert ct[k] == pytest.approx(phi(k, x[0]), rel=1e-12)

    def test_zero_box_is_mean_weight(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(0, 3, (500, 2))
        ct = empirical_coeffs(xs, (0, 0))
        expected = 2.0 * np.mean(np.exp(-xs.sum(axis=1)))
        assert ct[(0, 0)] == pytest.approx(expected, rel=1e-12)

    def test_exponential_monte_carlo(self):
        rng = np.random.default_rng(3)
        xs = rng.exponential(1.0, 1_000_000)
        m = (4,)
        ct = empirical_coeffs(xs, m)
        mats = phi_univariate(4, xs)
        se = mats.std(axis=1) / math.sqrt(xs.size)
        assert abs(ct[(0,)] - 1 / SQRT2) <= 3 * se[0]
        for k in range(1, 5):
            assert abs(ct[(k,)]) <= 3 * se[k]

    def test_bound_respected(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 10, (2000, 1))
        ct = empirical_coeffs(xs, (6,))
        assert np.all(np.abs(ct.a) <= SQRT2 + 1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            empirical_coeffs(np.array([[0.1], [-0.2]]), (2,))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sum_matches_fsum(self, d):
        # chunked summation over ~1e5 samples, 25 whole chunks and one
        # sample more, stays within 1e-14 of exact summation, below the
        # ~1e-14 accuracy of the model kernel
        rng = np.random.default_rng(8)
        xs = rng.exponential(1.0, (25 * _CHUNK + 1, d))
        ct = empirical_coeffs(xs, (3,) * d)
        assert np.abs(ct.a - fsum_empirical_coeffs(xs, (3,) * d)).max() <= 1e-14

    def test_bits_do_not_depend_on_blas_threads(self):
        code = (
            "import sys, numpy as np\n"
            "from thorin.laguerre import empirical_coeffs\n"
            "xs = np.random.default_rng(9).exponential(1.0, (100_000, 2))\n"
            "for m in ((20,), (20, 20)):\n"
            "    a = empirical_coeffs(xs[:, :len(m)], m).a\n"
            "    sys.stdout.write(a.tobytes().hex() + '\\n')\n"
        )
        out = stdout_per_blas_threads(code)
        assert len(out[0]) == 2 and out[0] == out[1]


class TestStreamedBasis:
    """The in-place rows against the matrix form, byte for byte, and the
    chunked contraction against exact summation."""

    @pytest.mark.parametrize("kmax", [0, 1, 5, 21, 300])
    def test_rows_equal_the_matrix(self, kmax):
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.exponential(3.0, 500), [0.0, 700.0, 700.5, 1e4, 1e20]])
        assert phi_univariate(kmax, xs).tobytes() == matrix_phi_univariate(kmax, xs).tobytes()

    @pytest.mark.parametrize("N", [1, 8193, 100_000])
    @pytest.mark.parametrize("m", [(20,), (20, 20), (3, 3, 3), (0, 5), (5, 0), (4, 0, 3)])
    def test_equals_full_matrix_contraction(self, m, N):
        rng = np.random.default_rng(N + len(m))
        xs = rng.exponential(2.0, (N, len(m)))
        xs[::97, 0] = rng.uniform(700.0, 3000.0, xs[::97, 0].shape)  # far columns on axis 0
        if len(m) > 1:
            xs[1::89, -1] = 1e20
        got = empirical_coeffs(xs, m).a
        assert np.abs(got - fsum_empirical_coeffs(xs, m)).max() <= 1e-14

    @pytest.mark.parametrize("N", [100_000, 400_000, 1_000_000])
    def test_memory_is_one_basis_matrix(self, N):
        # one chunk's basis matrices, (m_j + 1) _CHUNK doubles per axis, and
        # a few chunk vectors, whatever N is: the samples' validation makes
        # no N x d temporary either
        m = (20, 20)
        xs = np.random.default_rng(9).exponential(1.0, (N, 2))
        tracemalloc.start()
        try:
            empirical_coeffs(xs, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _CHUNK * (sum(m) + len(m) + 8)


class TestQuadratureBlocks:
    @pytest.mark.parametrize(
        "name, params, m",
        [
            ("lognormal", {}, 100),  # level 8, 5841 nodes
            ("lognormal", {}, 300),  # level 10, 23350 nodes
            ("pareto", {"k": 2.5, "xm": 2.0}, 300),  # level 10 with a jump, 30197 nodes
        ],
    )
    def test_memory_is_a_few_row_blocks(self, name, params, m):
        # in d = 1 the basis is built one block of _GRID_ROWS nodes at a
        # time, so the scratch is a few (m + 1) x _GRID_ROWS matrices (the
        # block, its weighted copy and the far nodes' matrix), whatever the
        # number of nodes
        pdf, jumps = bench_pdf(name, params)
        tracemalloc.start()
        try:
            theoretical_coeffs(pdf, (m,), jumps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _GRID_ROWS * 8 * (m + 1)


class TestCoeffsFromMoments:
    def test_exponential_moments(self):
        # E[e^-X] = 1/2, E[X e^-X] = 1/4 for a unit exponential
        mu = np.array([0.5, 0.25])
        ct = coeffs_from_moments(mu, (1,))
        assert ct[(0,)] == pytest.approx(SQRT2 / 2, rel=1e-14)
        assert ct[(1,)] == pytest.approx(0.0, abs=1e-15)

    def test_linearity_zero(self):
        ct = coeffs_from_moments(np.zeros((3, 2)), (2, 1))
        assert np.allclose(ct.a, 0.0)

    def test_bivariate_zero_order_scale(self):
        mu = np.array([[0.37]])
        ct = coeffs_from_moments(mu, (0, 0))
        assert ct[(0, 0)] == pytest.approx(2 * 0.37, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            coeffs_from_moments(np.zeros((3,)), (4,))


class TestDensityGrid:
    def test_exponential_reconstruction(self):
        a = np.zeros(6)
        a[0] = 1 / SQRT2
        ct = CoeffTensor((5,), a)
        assert density_grid(ct, [(1.0,)])[0] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_zero_coeffs(self):
        ct = CoeffTensor((4,), np.zeros(5))
        assert np.array_equal(density_grid(ct, [0.0, 0.5, 3.0]), np.zeros(3))

    def test_gamma_reconstruction_truncated(self):
        model = GgcModel([2.0], [[1.0]])
        ct = model_coeffs(model, (40,)).coeffs
        assert density_grid(ct, [(1.0,)])[0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_raw_values_can_be_negative(self):
        a = np.zeros(3)
        a[1] = 1.0  # phi_1 goes negative on (0.5, inf)
        ct = CoeffTensor((2,), a)
        assert density_grid(ct, [(2.0,)])[0] < 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_pointwise_sum(self, d):
        rng = np.random.default_rng(5)
        m = (4, 3, 2)[:d]
        ct = CoeffTensor(m, rng.normal(size=tuple(k + 1 for k in m)))
        pts = rng.uniform(0, 4, (20, d))
        grid = density_grid(ct, pts)
        assert grid.shape == (20,)
        for i in range(20):
            want = sum(ct[k] * phi(k, pts[i]) for k in np.ndindex(ct.a.shape))
            assert grid[i] == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_domain_error(self):
        ct = CoeffTensor((2,), np.zeros(3))
        with pytest.raises(ValueError, match="non-negative"):
            density_grid(ct, [(-1.0,)])

    def test_dimension_mismatch(self):
        ct = CoeffTensor((2, 2), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="dimension"):
            density_grid(ct, [(1.0, 1.0, 1.0)])


class TestL2Norm:
    def test_single_mode(self):
        a = np.zeros(4)
        a[0] = 1 / SQRT2
        assert l2_norm_sq(CoeffTensor((3,), a)) == pytest.approx(0.5, rel=1e-15)

    def test_zeros(self):
        assert l2_norm_sq(CoeffTensor((2, 2), np.zeros((3, 3)))) == 0.0

    def test_gamma_norm(self):
        # ||x e^-x||_2^2 = 1/4
        model = GgcModel([2.0], [[1.0]])
        ct = model_coeffs(model, (60,)).coeffs
        assert l2_norm_sq(ct) == pytest.approx(0.25, abs=1e-8)

    def test_parseval_monotone_and_bounded(self):
        model = GgcModel([2.0], [[1.0]])
        norms = [l2_norm_sq(model_coeffs(model, (m,)).coeffs) for m in (1, 3, 8, 20)]
        assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 0.25 + 1e-12

    @pytest.mark.parametrize(
        "name, params, ms, bound",
        [
            # int f^2 = k^2 / ((2k + 1) x_m): in L2 for every tail exponent k > 0
            ("pareto", {"k": 0.25, "xm": 1.0}, (2, 20, 100), 0.25**2 / 1.5),
            # int f^2 = k Gamma(2 - 1/k) / 2^(2 - 1/k), finite only for k > 1/2,
            # as f ~ k x^(k-1) at the origin
            ("weibull", {"k": 0.6}, (4, 40), 0.6 * math.gamma(2 - 1 / 0.6) / 2 ** (2 - 1 / 0.6)),
            ("weibull", {"k": 0.4}, (4, 40), math.inf),
        ],
    )
    def test_bessel_sums_of_quadrature_targets(self, name, params, ms, bound):
        pdf, jumps = bench_pdf(name, params)
        sums = [l2_norm_sq(theoretical_coeffs(pdf, (m,), jumps)) for m in ms]
        assert all(a < b < bound for a, b in zip(sums, sums[1:]))
        if bound == math.inf:
            assert sums[-1] > 2.0 * sums[0]  # 1.20 at m = 4, 2.53 at m = 40


class TestCoeffTensor:
    def test_json_round_trip(self):
        rng = np.random.default_rng(6)
        ct = CoeffTensor((2, 3), rng.normal(size=(3, 4)))
        back = CoeffTensor.from_json(ct.to_json())
        assert back.m == ct.m
        assert np.array_equal(back.a, ct.a)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CoeffTensor((2,), np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CoeffTensor((1,), np.array([1.0, np.inf]))

    def test_mpf_entries_rounded_once_to_float64(self):
        with mpmath.workprec(256):
            vals = [mpmath.mpf(1) / 3, -mpmath.sqrt(2) * 10**40, mpmath.exp(-720), mpmath.pi]
        ct = CoeffTensor((1, 1), np.array(vals, dtype=object).reshape(2, 2))
        assert ct.a.dtype == np.float64
        expected = np.array([float(v) for v in vals]).reshape(2, 2)
        assert np.array_equal(ct.a.view(np.int64), expected.view(np.int64))
        assert ct.as_float() is ct.a

    @pytest.mark.parametrize("bad", [mpmath.inf, -mpmath.inf, mpmath.nan])
    def test_rejects_non_finite_mpf(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            CoeffTensor((1,), np.array([mpmath.mpf(1), bad], dtype=object))


class TestValidateSamples:
    def test_promotes_vector(self):
        arr = validate_samples([1.0, 2.0])
        assert arr.shape == (2, 1)

    def test_reports_position(self):
        with pytest.raises(ValueError, match="row 1, column 0"):
            validate_samples(np.array([[0.5, 0.5], [-1.0, 0.2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nan(self, bad):
        # whichever entry is not finite, and among finite ones
        with pytest.raises(ValueError, match="non-finite"):
            validate_samples(np.array([[bad]]))
        with pytest.raises(ValueError, match="non-finite"):
            validate_samples(np.array([[0.5, 2.0], [bad, 1.0]]))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_rejects_empty(self, shape):
        with pytest.raises(ValueError, match="N x d matrix"):
            validate_samples(np.empty(shape))
