import math

import mpmath
import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist
from scipy.stats import kendalltau, kstwo, norm

from thorin.ggc import GgcModel, sample
from thorin.validate import (
    _ks_sf,
    _log_nfact_over_nn,
    BENCH_NAMES,
    bench_cdf,
    bench_density_mp,
    bench_pdf,
    bench_quantile,
    bench_sampler,
    curious_cgf,
    curious_cgf_discrete,
    ks_exact,
    qq_points,
    resampled_pvalues,
)


class TestKsExact:
    def test_single_observation_at_median(self):
        res = ks_exact(np.array([1.0]), lambda x: np.full_like(x, 0.5))
        assert res.d_stat == pytest.approx(0.5)
        assert res.n == 1

    def test_exact_null_uniformity(self):
        # p-values of true-null tests must themselves look uniform
        rng = np.random.default_rng(0)
        pvals = []
        for _ in range(500):
            xs = rng.exponential(1.0, 1000)
            pvals.append(ks_exact(xs, lambda x: -np.expm1(-x)).p_value)
        pvals = np.sort(pvals)
        d = np.max(
            np.maximum(
                np.arange(1, 501) / 500 - pvals, pvals - np.arange(0, 500) / 500
            )
        )
        assert kstwo.sf(d, 500) > 0.05

    def test_detects_wrong_rate(self):
        rng = np.random.default_rng(1)
        xs = rng.exponential(1.0, 10_000)
        res = ks_exact(xs, lambda x: -np.expm1(-2.0 * x))
        assert res.d_stat == pytest.approx(0.25, abs=0.02)
        assert res.p_value < 1e-6

    def test_large_sample_branch(self):
        rng = np.random.default_rng(2)
        xs = rng.exponential(1.0, 20_000)
        res = ks_exact(xs, lambda x: -np.expm1(-x))
        assert 0.0 <= res.p_value <= 1.0
        assert res.n == 20_000
        # exact above N = 10^4 as well
        ref = float(kstwo.sf(res.d_stat, 20_000))
        assert abs(res.p_value - ref) <= 1e-9 * ref + 1e-14


def _ks_sf_grid(n):
    """d at every branch boundary of ``_ks_sf`` for this n, and just
    either side of it."""
    bounds = [0.5 / n, 1 / n, (n - 1) / n, 0.5, (1.4 / n) ** (2 / 3)]
    bounds += [math.sqrt(c / n) for c in (0.754693, 2.2, 4.0, 18.0, 370.0)]
    ds = [b * f for b in bounds for f in (1 - 1e-6, 1.0, 1 + 1e-6)]
    ds += list(np.linspace(0.0, 1.0, 41))
    return [d for d in ds if 0.0 <= d <= 1.0]


class TestKsSf:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 140, 141, 1000, 10_000, 20_000, 100_000])
    def test_matches_scipy_kstwo(self, n):
        for d in _ks_sf_grid(n):
            ref = float(kstwo.sf(d, n))
            assert abs(_ks_sf(n, d) - ref) <= 1e-9 * ref + 1e-14, (n, d)

    def test_log_nfact_over_nn_to_rounding(self):
        # n!/n^n scales the Durbin tail, so its absolute log error is the
        # tail's relative error
        with mpmath.workdps(50):
            for n in range(1, 141):
                ref = mpmath.loggamma(n + 1) - n * mpmath.log(n)
                assert abs(_log_nfact_over_nn(n) - ref) <= 3e-14, n

    def test_resampled_pvalues_match_kstwo_loop(self):
        # a 1.5% scale misfit puts p-values on both sides of 0.025, so
        # the Smirnov tail and the middle branches both run
        model = GgcModel([2.0], [[2.0]])
        cdf = lambda x: gamma_dist.cdf(x, 2.0, scale=2.03)
        N, B, seed = 10_000, 60, 7
        got = resampled_pvalues(model, cdf, N, B, seed)
        ref = []
        for ss in np.random.SeedSequence(seed).spawn(B):
            xs = sample(model, N, np.random.default_rng(ss)).ravel()
            ref.append(float(kstwo.sf(ks_exact(xs, cdf).d_stat, N)))
        ref = np.array(ref)
        assert np.any(ref < 0.025)
        assert np.all(np.abs(got - ref) <= 1e-9 * ref + 1e-14)


class TestQqPoints:
    def test_diagonal_for_matching_quantiles(self):
        q = lambda p: -math.log1p(-p)
        xs = np.array([q((i - 0.5) / 200) for i in range(1, 201)])
        pts = qq_points(xs, q, 200)
        np.testing.assert_allclose(pts[:, 0], pts[:, 1], rtol=1e-12, atol=1e-12)

    def test_pareto_near_diagonal_with_tail_drop(self):
        xs = bench_sampler("pareto", {"k": 2.5}, 1000, seed=3).ravel()
        pts = qq_points(xs, bench_quantile("pareto", {"k": 2.5}), 1000, drop_tail=5)
        assert pts.shape == (995, 2)
        logratio = np.log(pts[:, 1] / pts[:, 0])
        assert np.abs(logratio).max() < 0.35

    def test_mismatch_shows_systematic_curvature(self):
        # body-to-tail trend of the log residuals separates a matched
        # reference from a mismatched one far beyond sampling noise
        def trend(pts):
            resid = np.log(pts[:, 1] / pts[:, 0])
            k = len(resid) // 5
            return abs(resid[-k:].mean() - resid[:k].mean())

        xs = bench_sampler("pareto", {"k": 2.5}, 2000, seed=4).ravel()
        pts_match = qq_points(xs, bench_quantile("pareto", {"k": 2.5}), 200, drop_tail=5)
        pts_bad = qq_points(
            xs, bench_quantile("lognormal", {"mu": 0, "sigma": 0.83}), 200, drop_tail=5
        )
        assert trend(pts_match) < 0.15
        assert trend(pts_bad) > 0.4

    def test_count_cap(self):
        with pytest.raises(ValueError):
            qq_points(np.ones(10), lambda p: p, 11)


class TestResampledPvalues:
    def test_null_calibration_gamma_surrogate(self):
        # a single-atom model has a closed-form cdf, so the p-values of
        # resamples against it must look uniform
        model = GgcModel([2.0], [[2.0]])
        cdf = lambda x: gamma_dist.cdf(x, 2.0, scale=2.0)
        pv = np.sort(resampled_pvalues(model, cdf, 500, 200, seed=5))
        d = np.max(
            np.maximum(
                np.arange(1, 201) / 200 - pv, pv - np.arange(0, 200) / 200
            )
        )
        assert kstwo.sf(d, 200) > 0.05

    def test_gross_misfit_rejected(self):
        model = GgcModel([1.0], [[1.0]])
        pv = resampled_pvalues(
            model, bench_cdf("lognormal", {"mu": 0, "sigma": 0.83}), 10_000, 50, seed=6
        )
        assert np.mean(pv < 0.01) >= 0.95

    def test_univariate_only(self):
        with pytest.raises(ValueError):
            resampled_pvalues(
                GgcModel([1.0], [[1.0, 1.0]]), lambda x: x, 100, 2, seed=0
            )


class TestBenchSamplers:
    def test_lognormal_median(self):
        xs = bench_sampler("lognormal", {"mu": 0, "sigma": 0.83}, 1_000_000, seed=8)
        se = 1.0 / (2.0 * norm.pdf(0.0) / 0.83 * math.sqrt(1e6))
        assert np.median(xs) == pytest.approx(1.0, abs=4 * se)

    def test_pareto_tail(self):
        xs = bench_sampler("pareto", {"k": 2.5, "xm": 1.0}, 1_000_000, seed=9)
        p = 2.0 ** -2.5
        se = math.sqrt(p * (1 - p) / 1e6)
        assert np.mean(xs > 2.0) == pytest.approx(p, abs=4 * se)

    def test_weibull_mean(self):
        xs = bench_sampler("weibull", {"k": 1.5}, 1_000_000, seed=10)
        mean = math.gamma(1 + 2.0 / 3.0)
        sd = math.sqrt(math.gamma(1 + 4.0 / 3.0) - mean**2)
        assert xs.mean() == pytest.approx(mean, abs=4 * sd / 1000)

    def test_mln_gaussian_margins_and_correlation(self):
        xs = bench_sampler("mln_gaussian", {"mu": 0, "sigma": 1, "rho": 0.5}, 400_000, seed=11)
        assert xs.shape == (400_000, 2)
        assert np.median(xs[:, 0]) == pytest.approx(1.0, abs=0.02)
        assert np.median(xs[:, 1]) == pytest.approx(1.0, abs=0.02)
        corr = np.corrcoef(np.log(xs[:, 0]), np.log(xs[:, 1]))[0, 1]
        assert corr == pytest.approx(0.5, abs=0.01)

    def test_clayton_kendall_tau(self):
        xs = bench_sampler("clayton_pareto_lognormal", {"theta": 7.0}, 100_000, seed=12)
        tau = kendalltau(xs[:, 0], xs[:, 1]).statistic
        assert tau == pytest.approx(7.0 / 9.0, abs=0.02)

    def test_clayton_upper_tail_dependence(self):
        xs = bench_sampler("clayton_pareto_lognormal", {"theta": 7.0}, 200_000, seed=13)
        n = xs.shape[0]
        u = np.argsort(np.argsort(xs[:, 0])) / (n - 1.0)
        v = np.argsort(np.argsort(xs[:, 1])) / (n - 1.0)
        joint = np.mean((u > 0.95) & (v > 0.95))
        assert joint / 0.05 > 0.5

    def test_deterministic(self):
        for name in BENCH_NAMES:
            a = bench_sampler(name, {}, 500, seed=14)
            b = bench_sampler(name, {}, 500, seed=14)
            assert np.array_equal(a, b)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            bench_sampler("cauchy", {}, 10, seed=0)

    def test_density_normalization(self):
        import mpmath

        for name, params in [
            ("lognormal", {"mu": 0, "sigma": 0.83}),
            ("weibull", {"k": 1.5}),
            ("pareto", {"k": 2.5, "xm": 1.0}),
        ]:
            pdf = bench_density_mp(name, params)
            with mpmath.workprec(80):
                total = mpmath.quad(pdf, [0, 1, 10, mpmath.inf])
                assert abs(float(total) - 1.0) < 1e-12
            # the double density agrees with the mp one pointwise, and
            # declares exactly Pareto's jump
            pdf64, jumps = bench_pdf(name, params)
            assert jumps == ((1.0,) if name == "pareto" else ())
            xs = np.array([0.0, 1e-3, 0.3, 0.999, 1.0, 1.7, 5.0, 40.0, 1e3, 1e19])
            got = pdf64(xs)
            with mpmath.workprec(80):
                ref = np.array([float(pdf(mpmath.mpf(x))) for x in xs])
            assert np.allclose(got, ref, rtol=1e-13, atol=0.0), name

    def test_density_constants_follow_precision(self):
        # each closure is called at a low precision first, so a constant
        # it fixed then would be off at the higher one
        refs = {
            "lognormal": lambda x: mpmath.npdf(mpmath.log(x), 0, 0.83) / x,
            "weibull": lambda x: 1.5 * x ** 0.5 * mpmath.exp(-(x ** 1.5)),
            "pareto": lambda x: 2.5 / x ** 3.5,
        }
        for name, ref in refs.items():
            pdf = bench_density_mp(name, {})
            for bits in (53, 256):
                with mpmath.workprec(bits):
                    x = mpmath.mpf(5) / 3
                    assert abs(pdf(x) / ref(x) - 1) <= mpmath.mpf(2) ** (8 - bits), (name, bits)

        def mln_ref(x, y):
            u, v = mpmath.log(x), mpmath.log(y)
            q = (u * u - u * v + v * v) / mpmath.mpf(0.75)
            return mpmath.exp(-q / 2) / (2 * mpmath.pi * mpmath.sqrt(mpmath.mpf(0.75)) * x * y)

        pdf = bench_density_mp("mln_gaussian", {})
        for bits in (64, 512):
            with mpmath.workprec(bits):
                x, y = mpmath.mpf(5) / 3, mpmath.mpf(2) / 7
                assert abs(pdf(x, y) / mln_ref(x, y) - 1) <= mpmath.mpf(2) ** (8 - bits)
        # the double density broadcasts one array per coordinate
        pdf64, jumps = bench_pdf("mln_gaussian", {})
        assert jumps == ()
        pts = np.array([0.0, 0.05, 2.0 / 7, 1.0, 5.0 / 3, 12.0, 300.0])
        got = pdf64(pts[:, None], pts[None, :])
        with mpmath.workprec(80):
            ref = np.array([[float(pdf(mpmath.mpf(x), mpmath.mpf(y))) for y in pts] for x in pts])
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_samples_match_cdf(self):
        for name, params in [
            ("lognormal", {"mu": 0, "sigma": 0.83}),
            ("pareto", {"k": 2.5}),
            ("weibull", {"k": 1.5}),
        ]:
            xs = bench_sampler(name, params, 10_000, seed=15).ravel()
            res = ks_exact(xs, bench_cdf(name, params))
            assert res.p_value > 1e-4


class TestCuriousCgf:
    def test_closed_form_at_one(self):
        assert curious_cgf(1.0) == pytest.approx(1.0 - 2.0 * math.log(2.0), rel=1e-14)

    def test_zero_limit(self):
        # K(-t) ~ -t/2 near the origin
        assert curious_cgf(1e-8) == pytest.approx(-5e-9, abs=1e-12)

    def test_shift_zero_weight(self):
        # e^{K(-1)} is the zero-order shifted moment of the distribution
        assert math.exp(curious_cgf(1.0)) == pytest.approx(math.e / 4.0, rel=1e-14)

    def test_discretization_convergence(self):
        exact = curious_cgf(1.0)
        assert abs(curious_cgf_discrete(1.0, 1000) - exact) < 1e-3

    def test_discretization_rate(self):
        exact = curious_cgf(1.0)
        errs = [abs(curious_cgf_discrete(1.0, n) - exact) for n in (10, 100, 1000)]
        assert errs[1] <= errs[0] / 4
        assert errs[2] <= errs[1] / 4

    def test_domain(self):
        with pytest.raises(ValueError):
            curious_cgf(0.0)
        with pytest.raises(ValueError):
            curious_cgf_discrete(1.0, 0)
