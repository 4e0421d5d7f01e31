import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from mpmath import mpf
from scipy.stats import gamma as gamma_dist
from scipy.stats import kendalltau

from oracle_helpers import brute_force_moments, full_box_batch_coeffs, stdout_per_blas_threads
from thorin.estimator import _decode, _init_particles
from thorin.ggc import (
    _KERNEL_BYTES,
    GgcModel,
    _block_rows,
    _fft_len,
    _plan,
    batch_coeffs,
    cgf,
    concatenate,
    float_coeffs,
    gd1_coeffs,
    gd1_invert,
    linear_combination,
    marginal,
    moschopoulos_density,
    sample,
    simplex_scales,
)
from thorin.laguerre import empirical_coeffs, phi_univariate
from thorin.numkit import box_shape, iterate_box
from thorin.oracle import (
    PrecisionContext,
    coeffs_from_moments,
    cumulants_to_moments,
    model_coeffs,
    shifted_cumulants,
)

SQRT2 = math.sqrt(2.0)


def random_model(rng, n=None, d=None, smax=5.0):
    n = n or int(rng.integers(1, 5))
    d = d or int(rng.integers(1, 4))
    alpha = rng.uniform(0.2, 3.0, n)
    scales = rng.uniform(0.0, smax, (n, d))
    for i in range(n):
        if scales[i].sum() == 0:
            scales[i, rng.integers(0, d)] = rng.uniform(0.1, smax)
    return GgcModel(alpha, scales)


class TestModelValidation:
    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            GgcModel([0.0], [[1.0]])

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            GgcModel([1.0], [[-0.5]])

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            GgcModel([1.0, 1.0], [[1.0, 0.0], [0.0, 0.0]])

    def test_json_round_trip(self):
        m = GgcModel([1.0, 2.5], [[1.0, 0.0], [0.3, 2.0]])
        back = GgcModel.from_json(m.to_json())
        assert np.array_equal(back.alpha, m.alpha)
        assert np.array_equal(back.scales, m.scales)


class TestCgf:
    def test_exponential_point(self):
        m = GgcModel([1.0], [[1.0]])
        assert cgf(m, (-1.0,)) == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_zero_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = random_model(rng)
            assert cgf(m, np.zeros(m.d)) == pytest.approx(0.0, abs=1e-15)

    def test_bivariate_value_and_monte_carlo(self):
        m = GgcModel([2.0], [[1.0, 3.0]])
        val = cgf(m, (-1.0, -1.0))
        assert val == pytest.approx(-2.0 * math.log(5.0), rel=1e-14)
        xs = sample(m, 200_000, seed=11)
        w = np.exp(-xs.sum(axis=1))
        se = w.std() / math.sqrt(w.size)
        assert math.exp(val) == pytest.approx(w.mean(), abs=4 * se)

    def test_domain_error_on_real_axis(self):
        m = GgcModel([1.0], [[1.0]])
        with pytest.raises(ValueError):
            cgf(m, (1.0,))

    def test_complex_argument(self):
        m = GgcModel([1.5], [[2.0]])
        t = np.array([-0.3 + 0.4j])
        val = cgf(m, t)
        expected = -1.5 * np.log(1 - 2.0 * t[0])
        assert val == pytest.approx(expected, rel=1e-14)


class TestSimplexScales:
    def test_examples(self):
        assert simplex_scales(GgcModel([1.0], [[1.0]]))[0, 0] == pytest.approx(0.5)
        np.testing.assert_allclose(
            simplex_scales(GgcModel([1.0], [[1.0, 3.0]]))[0], [0.2, 0.6]
        )
        np.testing.assert_allclose(
            simplex_scales(GgcModel([1.0], [[0.0, 0.25]]))[0], [0.0, 0.2]
        )

    def test_inverse_recovers_scales(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_model(rng)
            x = simplex_scales(m)
            s_back = x / (1.0 - x.sum(axis=1, keepdims=True))
            np.testing.assert_allclose(s_back, m.scales, rtol=1e-12, atol=1e-14)
            assert np.all(x.sum(axis=1) < 1.0)


class TestShiftedCumulants:
    def test_exponential_sequence(self):
        m = GgcModel([1.0], [[1.0]])
        kap = shifted_cumulants(m, (3,))
        expected = [-math.log(2.0), 0.5, 0.25, 0.25]
        for k, e in enumerate(expected):
            assert float(kap[(k,)]) == pytest.approx(e, rel=1e-14)

    def test_bivariate_cross_term(self):
        m = GgcModel([1.0], [[1.0, 1.0]])
        kap = shifted_cumulants(m, (1, 1))
        assert float(kap[(1, 1)]) == pytest.approx(1.0 / 9.0, rel=1e-14)

    @pytest.mark.parametrize("m", [(3,), (1, 1, 1)])
    def test_box_of_wrong_dimension(self, m):
        # kappa_0 sums whole rows, so a box over some of the axes would
        # mix the model with its marginal
        with pytest.raises(ValueError, match="dimension"):
            shifted_cumulants(GgcModel([1.0, 2.0], [[1.0, 0.5], [0.2, 3.0]]), m)

    def test_against_finite_differences_of_cgf(self):
        # central differences of the defining cgf at t = -1, taken in
        # extended precision, confirm the atomic formula for |k| <= 3
        rng = np.random.default_rng(2)
        with mpmath.workprec(160):
            h = mpf("1e-6")

            def K(model, t):
                acc = mpf(0)
                for a, row in zip(model.alpha, model.scales):
                    acc -= mpf(a) * mpmath.log(
                        1 - mpmath.fsum(mpf(sij) * tj for sij, tj in zip(row, t))
                    )
                return acc

            m1 = GgcModel(rng.uniform(0.5, 2.0, 2), rng.uniform(0.2, 3.0, (2, 1)))
            kap = shifted_cumulants(m1, (3,), PrecisionContext(160))
            f = lambda e: K(m1, [mpf(-1) + e * h])
            fd = {
                1: (f(1) - f(-1)) / (2 * h),
                2: (f(1) - 2 * f(0) + f(-1)) / h**2,
                3: (f(2) - 2 * f(1) + 2 * f(-1) - f(-2)) / (2 * h**3),
            }
            for order, val in fd.items():
                assert abs(kap[(order,)] - val) <= abs(val) * mpf("1e-6")

            m2 = GgcModel(rng.uniform(0.5, 2.0, 2), rng.uniform(0.2, 2.0, (2, 2)))
            kap2 = shifted_cumulants(m2, (1, 1), PrecisionContext(160))
            g = lambda e1, e2: K(m2, [mpf(-1) + e1 * h, mpf(-1) + e2 * h])
            fd11 = (g(1, 1) - g(1, -1) - g(-1, 1) + g(-1, -1)) / (4 * h**2)
            assert abs(kap2[(1, 1)] - fd11) <= abs(fd11) * mpf("1e-6")


class TestCumulantsToMoments:
    def test_classical_univariate_identities(self):
        rng = np.random.default_rng(3)
        kap = rng.uniform(-0.8, 0.8, 4)
        mu = cumulants_to_moments(kap, (3,))
        mu0 = math.exp(kap[0])
        assert mu[1] == pytest.approx(mu0 * kap[1], rel=1e-13)
        assert mu[2] == pytest.approx(mu0 * (kap[2] + kap[1] ** 2), rel=1e-13)
        assert mu[3] == pytest.approx(
            mu0 * (kap[3] + 3 * kap[1] * kap[2] + kap[1] ** 3), rel=1e-13
        )

    def test_exponential_shifted_moments(self):
        kap = np.array([-math.log(2.0), 0.5, 0.25])
        mu = cumulants_to_moments(kap, (2,))
        np.testing.assert_allclose(mu, [0.5, 0.25, 0.25], rtol=1e-14)

    def test_bivariate_cross_moment(self):
        m = GgcModel([1.0], [[1.0, 1.0]])
        kap = shifted_cumulants(m, (1, 1))
        mu = cumulants_to_moments(kap, (1, 1))
        assert float(mu[(1, 1)]) == pytest.approx(2.0 / 27.0, rel=1e-13)

    def test_brute_force_bell_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            if rng.random() < 0.5:
                m = (int(rng.integers(1, 6)),)
            else:
                m1 = int(rng.integers(1, 4))
                m = (m1, int(rng.integers(1, 6 - m1)))
            kap = rng.uniform(-0.7, 0.7, box_shape(m))
            mu = cumulants_to_moments(kap, m)
            oracle = brute_force_moments(kap, m)
            np.testing.assert_allclose(mu, oracle, rtol=1e-12, atol=1e-12)


class TestModelCoeffs:
    @pytest.mark.parametrize("m", [(3,), (1, 1, 1)])
    def test_box_of_wrong_dimension(self, m):
        with pytest.raises(ValueError, match="dimension"):
            model_coeffs(GgcModel([1.0, 2.0], [[1.0, 0.5], [0.2, 3.0]]), m)

    def test_unit_exponential_is_single_mode(self):
        mc = model_coeffs(GgcModel([1.0], [[1.0]]), (5,))
        a = mc.coeffs.as_float().ravel()
        assert a[0] == pytest.approx(1 / SQRT2, abs=1e-12)
        assert np.all(np.abs(a[1:]) <= 1e-12)

    def test_side_products_consistent(self):
        kappa = shifted_cumulants(GgcModel([1.0], [[1.0]]), (3,))
        mu = cumulants_to_moments(kappa, (3,))
        assert float(mu[(0,)]) == pytest.approx(0.5, rel=1e-14)
        assert float(kappa[(1,)]) == pytest.approx(0.5, rel=1e-14)
        # mu_0 = exp(kappa_0) exactly at the producing precision
        with mpmath.workprec(256):
            assert mpmath.exp(kappa[(0,)]) == mu[(0,)]

    def test_matches_single_atom_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            alpha = float(rng.uniform(0.3, 4.0))
            s = rng.uniform(0.0, 3.0, d)
            if s.sum() == 0:
                s[0] = 1.0
            m = (2,) * d
            exact = gd1_coeffs(alpha, s, m)
            rec = model_coeffs(GgcModel([alpha], s[None, :]), m).coeffs
            np.testing.assert_allclose(
                rec.as_float(), exact.a, rtol=1e-10, atol=1e-12
            )

    def test_kernel_equals_chain(self):
        # the double kernel agrees with the extended-precision chain
        # shifted_cumulants -> cumulants_to_moments -> coeffs_from_moments
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            model = random_model(rng, n=n, d=d)
            if d == 1:
                m = (int(rng.integers(1, 13)),)
            elif d == 2:
                m = tuple(int(v) for v in rng.integers(1, 4, 2))
            else:
                m = tuple(int(v) for v in rng.integers(1, 3, 3))
            kap = shifted_cumulants(model, m)
            chain = coeffs_from_moments(cumulants_to_moments(kap, m), m)
            np.testing.assert_allclose(
                float_coeffs(model, m).a, chain.as_float(), rtol=0, atol=1e-13
            )

    def test_deep_box_matches_single_exponential_closed_form(self):
        # one exponential atom: a_k = sqrt(2) r^k / (1 + s), r = (1-s)/(1+s);
        # the binomial weights of the recursion pass 2^53 from degree 58 on
        s = 1e3
        r = (1.0 - s) / (1.0 + s)
        exact = SQRT2 * r ** np.arange(61) / (1.0 + s)
        model = GgcModel([1.0], [[s]])
        for bits in (256, 2048):
            a = model_coeffs(model, (60,), PrecisionContext(bits)).coeffs.as_float()
            np.testing.assert_allclose(a, exact, rtol=1e-12)
        np.testing.assert_allclose(float_coeffs(model, (60,)).a, exact, rtol=0, atol=1e-15)

    def test_precision_escalation_reports_bits(self):
        # factorial growth in the cumulants trips the overflow guard for
        # deep boxes, doubling the working precision
        mc = model_coeffs(GgcModel([2.0], [[2.0]]), (40,))
        assert mc.bits_used == 512
        assert np.all(np.isfinite(mc.coeffs.as_float()))
        mc2 = model_coeffs(GgcModel([2.0], [[2.0]]), (5,))
        assert mc2.bits_used == 256

    def test_two_atom_reference_reconstructs_lognormal(self):
        # the published two-atom approximation of LN(0, 0.83): its
        # truncated reconstruction tracks the true density pointwise
        from scipy.stats import norm

        from thorin.laguerre import density_grid

        ref = GgcModel([0.5458, 2.4539], [[1.6283], [0.1999]])
        ct = model_coeffs(ref, (40,)).coeffs
        grid = np.linspace(0.01, 8.0, 800)
        rec = density_grid(ct, grid)
        ln_pdf = norm.pdf(np.log(grid) / 0.83) / (0.83 * grid)
        assert np.abs(rec - ln_pdf).max() < 0.05

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(7)
        cases = [
            (random_model(rng, n=2, d=1, smax=3.0), (8,)),
            (random_model(rng, n=3, d=1, smax=3.0), (6,)),
            (random_model(rng, n=2, d=2, smax=2.0), (2, 2)),
        ]
        N = 1_000_000
        for model, m in cases:
            xs = sample(model, N, seed=101)
            emp = empirical_coeffs(xs, m)
            ref = model_coeffs(model, m).coeffs.as_float()
            # per-entry Monte-Carlo standard errors from the phi products
            mats = [phi_univariate(m[j], xs[:, j]) for j in range(model.d)]
            sums = np.zeros(box_shape(m))
            sq = np.zeros(box_shape(m))
            step = 65_536
            for lo in range(0, N, step):
                chunk = mats[0][:, lo : lo + step]
                for j in range(1, model.d):
                    chunk = chunk[..., None, :] * mats[j][:, lo : lo + step]
                sums += chunk.sum(axis=-1)
                sq += (chunk**2).sum(axis=-1)
            se = np.sqrt(np.maximum(sq / N - (sums / N) ** 2, 1e-30) / N)
            assert np.all(np.abs(emp.a - ref) <= 5.0 * se + 1e-12)

    def test_convolution_closure_via_moments(self):
        # moments of an independent sum are the binomial convolution of
        # the operand moments
        rng = np.random.default_rng(8)
        for d, m in [(1, (5,)), (2, (2, 2))]:
            a = random_model(rng, n=2, d=d, smax=2.0)
            b = random_model(rng, n=1, d=d, smax=2.0)
            both = concatenate(a, b)
            mu_a = cumulants_to_moments(shifted_cumulants(a, m), m)
            mu_b = cumulants_to_moments(shifted_cumulants(b, m), m)
            mu_ab = cumulants_to_moments(shifted_cumulants(both, m), m)
            from thorin.numkit import binom_prod

            with mpmath.workprec(256):
                for k in iterate_box(m):
                    conv = mpf(0)
                    for l in iterate_box(k):
                        kl = tuple(x - y for x, y in zip(k, l))
                        conv += binom_prod(k, l) * mu_a[l] * mu_b[kl]
                    assert abs(mu_ab[k] - conv) <= abs(conv) * mpf("1e-60") + mpf("1e-70")


class TestBatchCoeffs:
    """The double kernel against the 256-bit reference over swarm-reachable
    particles and single atoms at the extremes of shape and scale."""

    @staticmethod
    def max_error(alpha, simplex, m):
        got = batch_coeffs(alpha, simplex, m)
        d = len(m)
        err = 0.0
        for p in range(alpha.shape[0]):
            model = GgcModel(alpha[p], simplex[p, :, :d] / simplex[p, :, d:])
            ref = model_coeffs(model, m).coeffs.as_float().ravel()
            err = max(err, float(np.abs(got[p] - ref).max()))
        return err

    @pytest.mark.parametrize("m", [(60,), (20, 20), (3, 3, 3)])
    def test_swarm_particles(self, m):
        rng = np.random.default_rng(12)
        d, n, P = len(m), 3, 3
        init = _init_particles(rng, P, n, d)
        uniform = rng.uniform(-18.0, 0.0, size=(P, n * (d + 2)))
        uniform[:, :n] = rng.uniform(math.log(1e-2), math.log(1e2), size=(P, n))
        for params in (init, uniform):
            alpha, simplex = _decode(params, d)
            assert self.max_error(alpha, simplex, m) <= 1e-13

    @pytest.mark.parametrize("m", [(60,), (6, 6)])
    def test_single_atom_extremes(self, m):
        d = len(m)
        for a in (0.01, 1.0, 50.0, 80.0, 100.0):
            for s in (1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e12):
                row = np.full(d, s)
                simplex = np.append(row, 1.0) / (1.0 + row.sum())
                assert self.max_error(np.array([[a]]), simplex[None, None], m) <= 1e-13

    T, H = 1e-12, 1e12

    @pytest.mark.parametrize("m, alpha, scales", [
        ((8, 8), (0.01, 0.02, 100.0, 1.0), ((T, H), (H, T), (T, T), (T, 1.0))),
        ((8, 8), (0.05, 50.0, 0.01, 0.03), ((H, H), (T, T), (T, H), (H, T))),
        ((8, 8), (0.01, 3.0, 20.0), ((H, T), (T, T), (T, 1e-6))),
        ((3, 3, 3), (0.01, 0.02, 0.03, 100.0), ((T, H, T), (H, T, T), (T, T, H), (T, T, T))),
        ((3, 3, 3), (0.05, 0.01, 50.0, 1.0), ((H, H, T), (T, H, H), (T, T, T), (T, 1.0, T))),
        ((3, 3, 3), (0.02, 10.0, 0.01), ((H, T, H), (T, T, T), (T, H, T))),
    ])
    def test_multi_atom_extremes(self, m, alpha, scales):
        # rows mixing 1e-12 and 1e12 put x_ij near 0 and 1 in one atom;
        # the atoms with the large scales carry small shapes, so the
        # coefficients stay of order one
        alpha, scales = np.array(alpha), np.array(scales)
        simplex = np.hstack([scales, np.ones((len(alpha), 1))]) / (1.0 + scales.sum(axis=1)[:, None])
        assert self.max_error(alpha[None], simplex[None], m) <= 1e-13

    @pytest.mark.parametrize("m, counts", [((4, 4), [3, 1]), ((3, 3, 3), [7, 3, 1])])
    def test_stencil_is_the_monomials_of_R(self, m, counts):
        # every multilinear monomial z^S with S != 0 on the axes from j on
        axes = _plan(m)[1]
        assert [len(ax.terms) for ax in axes] == counts
        for ax in axes:
            assert all(not any(S[: ax.j]) and any(S) and set(S) <= {0, 1} for S in ax.terms)
            assert len(set(ax.terms)) == len(ax.terms)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            batch_coeffs(np.ones((1, 1)), np.full((1, 1, 3), 1 / 3), (4,))


def swarm_particles(P, n, m, seed=3):
    rng = np.random.default_rng(seed)
    return _decode(_init_particles(rng, P, n, len(m)), len(m))


class TestKernelBlocks:
    """Particle blocks bound the kernel's memory and change no bit."""

    def test_memory_is_bounded(self):
        alpha, simplex = swarm_particles(1000, 20, (20, 20))
        tracemalloc.start()
        try:
            out = batch_coeffs(alpha, simplex, (20, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * _KERNEL_BYTES + out.nbytes

    def test_scratch_fits_the_kernel_budget(self):
        # the slabs, C and the exponential's arrays of one block, together
        alpha, simplex = swarm_particles(1000, 20, (20, 20))
        tracemalloc.start()
        try:
            out = batch_coeffs(alpha, simplex, (20, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _KERNEL_BYTES + out.nbytes

    def test_blocks_equal_one_call_per_particle(self):
        m = (20, 20)
        alpha, simplex = swarm_particles(700, 20, m)
        assert 700 > 2 * _block_rows(20, m)  # three blocks at least
        single = [batch_coeffs(alpha[p : p + 1], simplex[p : p + 1], m) for p in range(700)]
        assert batch_coeffs(alpha, simplex, m).tobytes() == np.concatenate(single).tobytes()

    def test_bits_do_not_depend_on_blas_threads(self):
        code = (
            "import sys, numpy as np\n"
            "from thorin.estimator import _decode, _init_particles\n"
            "from thorin.ggc import batch_coeffs\n"
            "for m in ((20, 20), (3, 3, 3)):\n"
            "    rng = np.random.default_rng(3)\n"
            "    alpha, simplex = _decode(_init_particles(rng, 300, 20, len(m)), len(m))\n"
            "    sys.stdout.write(batch_coeffs(alpha, simplex, m).tobytes().hex() + '\\n')\n"
        )
        out = stdout_per_blas_threads(code)
        assert len(out[0]) == 2 and out[0] == out[1]

    def test_second_call_hits_the_plan_cache(self):
        m = (7, 3)
        alpha, simplex = swarm_particles(5, 2, m)
        batch_coeffs(alpha, simplex, m)
        before = _plan.cache_info()
        batch_coeffs(alpha, simplex, m)
        after = _plan.cache_info()
        assert after.misses == before.misses and after.hits > before.hits

    def test_fft_len_is_smallest_5_smooth(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        for n in range(1, 501):
            got = _fft_len(n)
            assert got >= n and smooth(got)
            assert not any(smooth(k) for k in range(n, got))


class TestKernelOracle:
    """The two-slab kernel against the same division over the whole box,
    byte for byte."""

    @pytest.mark.parametrize("m, n, P", [
        ((4,), 3, 120), ((21,), 10, 60), ((6, 6), 5, 40), ((3, 3, 3), 4, 30),
        ((0, 5), 4, 20), ((5, 0), 4, 20), ((4, 0, 3), 3, 20), ((0,), 2, 5),
        ((8,), 60, 10), ((3, 2), 60, 10),
    ])
    def test_equals_full_box_kernel(self, m, n, P):
        alpha, simplex = swarm_particles(P, n, m)
        got = batch_coeffs(alpha, simplex, m)
        assert got.tobytes() == full_box_batch_coeffs(alpha, simplex, m).tobytes()

    def test_across_block_boundaries(self):
        m, n = (20, 20), 20
        P = 2 * _block_rows(n, m) + 1
        alpha, simplex = swarm_particles(P, n, m, seed=4)
        # the oracle in chunks that straddle the kernel's blocks
        ref = np.concatenate([full_box_batch_coeffs(alpha[i : i + 150], simplex[i : i + 150], m)
                              for i in range(0, P, 150)])
        assert batch_coeffs(alpha, simplex, m).tobytes() == ref.tobytes()



class TestGd1:
    def test_closed_form_values(self):
        ct = gd1_coeffs(1.0, [1.0], (3,))
        assert ct[(0,)] == pytest.approx(1 / SQRT2, rel=1e-14)
        ct2 = gd1_coeffs(1.0, [1.0, 0.0], (1, 1))
        assert ct2[(0, 1)] == pytest.approx(1.0, rel=1e-13)
        rng = np.random.default_rng(9)
        for _ in range(10):
            alpha = float(rng.uniform(0.2, 8.0))
            s = rng.uniform(0.1, 4.0, 2)
            ct3 = gd1_coeffs(alpha, s, (0, 0))
            assert ct3[(0, 0)] == pytest.approx(
                2.0 * (1 + s.sum()) ** -alpha, rel=1e-12
            )

    def test_invert_examples(self):
        ct = gd1_coeffs(2.0, [0.5, 0.3], (1, 1))
        a0 = ct[(0, 0)]
        a1 = [ct[(1, 0)], ct[(0, 1)]]
        alpha, s = gd1_invert(a0, a1)
        assert alpha == pytest.approx(2.0, rel=1e-10)
        np.testing.assert_allclose(s, [0.5, 0.3], rtol=1e-10)

        alpha, s = gd1_invert(1 / SQRT2, [0.0])
        assert alpha == pytest.approx(1.0, rel=1e-10)
        assert s[0] == pytest.approx(1.0, rel=1e-10)

    def test_invert_degenerate_margin_exact_zero(self):
        ct = gd1_coeffs(3.0, [0.7, 0.0], (1, 1))
        alpha, s = gd1_invert(ct[(0, 0)], [ct[(1, 0)], ct[(0, 1)]])
        assert alpha == pytest.approx(3.0, rel=1e-10)
        assert s[1] == 0.0
        assert s[0] == pytest.approx(0.7, rel=1e-10)

    def test_invert_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gd1_invert(-0.1, [0.0])
        with pytest.raises(ValueError):
            gd1_invert(2.0, [0.0])  # a0 >= sqrt(2) is outside the image

    @pytest.mark.parametrize("a0, a1", [(1.0, [0.0]), (1.0, [0.3]), (0.9, [0.2, 0.1])])
    def test_invert_rejects_coefficients_without_a_shape(self, a0, a1):
        # ln(c1)/c2 >= -1: no v in (0, 1) solves ln(1 - v)/v = ln(c1)/c2,
        # so no single atom has these coefficients
        with pytest.raises(ValueError, match="outside the model image"):
            gd1_invert(a0, a1)

    def test_round_trip_random(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            alpha = float(rng.uniform(0.1, 10.0))
            s = rng.uniform(0.0, 5.0, d)
            if rng.random() < 0.3 and d > 1:
                s[rng.integers(0, d)] = 0.0
            if s.sum() == 0:
                s[0] = 1.0
            ct = gd1_coeffs(alpha, s, (1,) * d)
            a0 = ct[(0,) * d]
            a1 = [ct[tuple(int(i == j) for j in range(d))] for i in range(d)]
            ah, sh = gd1_invert(a0, a1)
            assert abs(ah - alpha) <= 1e-10 * alpha
            np.testing.assert_allclose(sh, s, rtol=1e-10, atol=1e-10)


class TestSample:
    def test_mean_within_monte_carlo_error(self):
        m = GgcModel([2.0], [[3.0]])
        xs = sample(m, 1_000_000, seed=42)
        se = math.sqrt(2.0 * 9.0 / 1_000_000)
        assert xs.mean() == pytest.approx(6.0, abs=4 * se)

    def test_comonotonic_kendall_tau(self):
        m = GgcModel([1.5], [[1.0, 3.0]])
        xs = sample(m, 2000, seed=1)
        tau = kendalltau(xs[:, 0], xs[:, 1]).statistic
        assert tau == 1.0

    def test_deterministic(self):
        m = GgcModel([1.0, 2.0], [[1.0, 0.5], [0.0, 2.0]])
        a = sample(m, 1000, seed=7)
        b = sample(m, 1000, seed=7)
        assert np.array_equal(a, b)
        c = sample(m, 1000, seed=8)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("alpha, scales", [
        ([0.546, 2.454], [[1.0], [3.0]]),
        ([0.3, 1.0, 7.5], [[1.0, 0.5], [0.0, 2.0], [0.2, 0.0]]),
    ])
    def test_stream_is_that_of_the_scaled_gamma_draw(self, alpha, scales):
        # the fitted data of the acceptance checks are drawn from this
        # stream, so it stays bit for bit that of rng.gamma(alpha, 1.0)
        m = GgcModel(alpha, scales)
        Z = np.random.default_rng(12).gamma(m.alpha, 1.0, size=(5000, m.n))
        assert np.array_equal(sample(m, 5000, seed=12), Z @ m.scales)


class TestMoschopoulos:
    def test_single_atom_reduces_to_gamma(self):
        xs = np.linspace(0.01, 10, 25)
        got = moschopoulos_density([2.5], [1.3], xs, terms=5)
        np.testing.assert_allclose(got, gamma_dist.pdf(xs, 2.5, scale=1.3), rtol=1e-12)

    def test_two_exponentials_closed_form(self):
        # Exp(rate 1) + Exp(rate 1/2) has density e^{-x/2} - e^{-x}
        xs = np.array([0.5, 1.0, 3.0, 7.0])
        got = moschopoulos_density([1.0, 1.0], [1.0, 2.0], xs, terms=300)
        np.testing.assert_allclose(got, np.exp(-xs / 2) - np.exp(-xs), rtol=1e-10)

    def test_documented_instability(self):
        model = GgcModel([10.0, 1e-3], [[1.0], [1e-3]])
        xs = sample(model, 100, seed=3).ravel()
        vals = moschopoulos_density([10.0, 1e-3], [1.0, 1e-3], xs, terms=400)
        assert np.mean(vals == 0.0) >= 0.9

    def test_fixture_moments(self):
        # sanity for the instability fixture: mean and variance from the
        # atomic parameters
        alpha = np.array([10.0, 1e-3])
        s = np.array([1.0, 1e-3])
        assert alpha @ s == pytest.approx(10.000001, abs=1e-12)
        assert alpha @ s**2 == pytest.approx(10.000000001, abs=1e-12)


class TestMarginalAndCombination:
    def test_marginal_drops_zero_rows(self):
        m = GgcModel([1.0, 2.0], [[1.0, 0.0], [0.0, 2.0]])
        m1 = marginal(m, 1)
        assert m1.d == 1 and m1.n == 1
        assert m1.alpha[0] == 1.0 and m1.scales[0, 0] == 1.0
        m2 = marginal(m, 2)
        assert m2.alpha[0] == 2.0 and m2.scales[0, 0] == 2.0

    def test_marginal_of_comonotonic(self):
        m = GgcModel([1.7], [[1.0, 3.0]])
        m2 = marginal(m, 2)
        assert m2.alpha[0] == 1.7 and m2.scales[0, 0] == 3.0

    def test_marginal_index_errors(self):
        m = GgcModel([1.0], [[1.0, 1.0]])
        for j in (0, 3):
            with pytest.raises(IndexError):
                marginal(m, j)

    def test_linear_combination_unit_vector_is_marginal(self):
        m = GgcModel([1.0, 2.0], [[1.0, 0.5], [0.2, 2.0]])
        lc = linear_combination(m, [0.0, 1.0])
        mg = marginal(m, 2)
        np.testing.assert_allclose(lc.scales, mg.scales)

    def test_linear_combination_row_sums(self):
        m = GgcModel([1.0, 1.0], [[1.0, 0.0], [0.0, 2.0]])
        lc = linear_combination(m, [1.0, 1.0])
        np.testing.assert_allclose(sorted(lc.scales.ravel()), [1.0, 2.0])

    def test_linear_combination_monte_carlo_mean(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, n=3, d=2, smax=2.0)
        c = np.array([0.7, 1.3])
        lc = linear_combination(m, c)
        xs = sample(m, 500_000, seed=5)
        proj = xs @ c
        expected = float(lc.alpha @ lc.scales.ravel())
        se = proj.std() / math.sqrt(proj.size)
        assert proj.mean() == pytest.approx(expected, abs=4 * se)

    def test_rejects_bad_weights(self):
        m = GgcModel([1.0], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            linear_combination(m, [-1.0, 0.5])
        with pytest.raises(ValueError):
            linear_combination(m, [0.0, 0.0])
