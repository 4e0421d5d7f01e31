import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from mpmath import mpf
from scipy.special import gammaln

from oracle_helpers import stdout_per_blas_threads
from thorin.estimator import (
    FitConfig,
    _decode,
    _fitted_model,
    _losses,
    _polish,
    _prony_starts,
    _pso_once,
    _spd_solve,
    default_box,
    fit_empirical,
    loss_Lm,
    project_density,
)
from thorin.ggc import _KERNEL_BYTES, GgcModel, batch_coeffs, float_coeffs, sample
from thorin.laguerre import CoeffTensor, QuadratureError, empirical_coeffs, theoretical_coeffs
from thorin.oracle import (
    PrecisionContext,
    bench_density_mp,
    coeffs_from_moments,
    model_coeffs,
    theoretical_moments,
)
from thorin.validate import bench_pdf


class TestFitConfig:
    def test_default_box(self):
        assert default_box(2, 1) == (4,)
        assert default_box(10, 1) == (20,)
        assert default_box(20, 2) == (20, 20)

    def test_resolved_defaults(self):
        cfg = FitConfig(n=3).resolved(d=1)
        assert cfg.m == (6,)
        assert cfg.swarm_size == 20 * 3 * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(n=0)
        with pytest.raises(ValueError):
            FitConfig(n=1, swarm_size=5)


class TestLoss:
    def test_self_distance_zero(self):
        model = GgcModel([1.5, 0.7], [[0.5], [2.0]])
        m = (5,)
        target = CoeffTensor(m, model_coeffs(model, m).coeffs.as_float())
        assert loss_Lm(target, model) <= 1e-28

    def test_exact_representation(self):
        # a unit-scale exponential is exactly representable, so the loss
        # against its own coefficients vanishes
        target = CoeffTensor(
            (4,), model_coeffs(GgcModel([1.0], [[1.0]]), (4,)).coeffs.as_float()
        )
        assert loss_Lm(target, GgcModel([1.0], [[1.0]])) <= 1e-20

    def test_symmetry(self):
        a = GgcModel([1.2], [[0.8]])
        b = GgcModel([2.0, 0.5], [[1.5], [0.2]])
        m = (6,)
        ca = CoeffTensor(m, model_coeffs(a, m).coeffs.as_float())
        cb = CoeffTensor(m, model_coeffs(b, m).coeffs.as_float())
        assert loss_Lm(ca, b) == pytest.approx(loss_Lm(cb, a), rel=1e-12)

    def test_definition_by_independent_summation(self):
        rng = np.random.default_rng(0)
        model = GgcModel([1.0, 2.0], [[0.5, 0.1], [1.0, 2.0]])
        m = (2, 2)
        target = CoeffTensor(m, rng.normal(size=(3, 3)))
        got = loss_Lm(target, model)
        a = model_coeffs(model, m).coeffs.as_float()
        expected = math.fsum(
            sorted((float(x) - float(y)) ** 2 for x, y in zip(a.ravel(), target.a.ravel()))
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_deep_box_precision_path(self):
        # deep boxes stay in doubles and still match the extended-precision
        # oracle
        model = GgcModel([2.0], [[2.0]])
        for m in [(26,), (60,)]:
            target = CoeffTensor(m, np.zeros(m[0] + 1))
            deep = loss_Lm(target, model)
            flat = model_coeffs(model, m).coeffs.as_float().ravel()
            assert deep == pytest.approx(float(flat @ flat), rel=1e-10)


class TestDecode:
    def test_every_particle_is_a_valid_model(self):
        rng = np.random.default_rng(1)
        for n, d in [(1, 1), (3, 2), (5, 3)]:
            params = rng.normal(scale=8.0, size=(200, n * (d + 2)))
            alpha, simplex = _decode(params, d)
            x, rho = simplex[:, :, :d], simplex[:, :, d]
            assert np.all(alpha >= 1e-12)
            assert np.all(x >= 0.0)
            assert np.all(x.sum(axis=2) < 1.0)
            assert np.all(rho > 0.0)
            np.testing.assert_allclose(x.sum(axis=2) + rho, 1.0, rtol=1e-15)
            for i in range(0, 200, 50):
                s = x[i] / rho[i][:, None]
                GgcModel(np.maximum(alpha[i], 1e-12), np.maximum(s, 0) + 1e-300)

    def test_batch_coeffs_match_reference(self):
        rng = np.random.default_rng(2)
        for d, m in [(1, (6,)), (1, (0,)), (2, (2, 3)), (2, (3, 0)), (3, (1, 1, 2))]:
            n = int(rng.integers(1, 4))
            alpha = rng.uniform(0.3, 3.0, (4, n))
            x = rng.dirichlet(np.ones(d + 1), size=(4, n))[:, :, :d] * 0.9
            simplex = np.concatenate([x, 1.0 - x.sum(axis=2, keepdims=True)], axis=2)
            flat = batch_coeffs(alpha, simplex, m)
            for p in range(4):
                s = x[p] / simplex[p, :, d:]
                ref = model_coeffs(GgcModel(alpha[p], s), m).coeffs.as_float()
                np.testing.assert_allclose(flat[p], ref.ravel(), rtol=1e-9, atol=1e-13)

    def test_fitted_model_drops_vanishing_atoms(self):
        # a Gamma factor with vanishing scale is a point mass at the origin,
        # the identity of convolution; tiny entries of live rows snap to 0
        alpha = np.array([0.8, 26900.0, 1.5])
        s = np.array([[2.0, 1e-13], [1e-15, 9.9e-16], [0.3, 0.7]])
        simplex = np.hstack([s, np.ones((3, 1))]) / (1.0 + s.sum(axis=1, keepdims=True))
        model = _fitted_model(alpha, simplex)
        np.testing.assert_array_equal(model.alpha, [0.8, 1.5])
        np.testing.assert_allclose(model.scales, [[2.0, 0.0], [0.3, 0.7]], rtol=1e-15)
        # at least one atom stays: the one with the largest row
        dead = np.array([[1e-12, 0.0], [3e-12, 1e-13]])
        simplex = np.hstack([dead, np.ones((2, 1))]) / (1.0 + dead.sum(axis=1, keepdims=True))
        lone = _fitted_model(alpha[:2], simplex)
        assert lone.n == 1
        assert lone.alpha[0] == 26900.0
        assert lone.scales[0, 0] == pytest.approx(3e-12, rel=1e-12)
        assert lone.scales[0, 1] == 0.0


class TestFitEmpirical:
    def test_single_atom_recovery(self):
        true = GgcModel([2.0], [[3.0]])
        xs = sample(true, 100_000, seed=21)
        hits = 0
        for seed in range(5):
            cfg = FitConfig(n=1, m=(3,), seed=seed, max_iters=600, restarts=2)
            rep = fit_empirical(xs, cfg)
            ok = (
                abs(rep.model.alpha[0] - 2.0) / 2.0 < 0.05
                and abs(rep.model.scales[0, 0] - 3.0) / 3.0 < 0.05
            )
            hits += ok
        assert hits >= 4

    def test_deterministic_bit_for_bit(self):
        xs = sample(GgcModel([1.5], [[1.0]]), 5000, seed=3)
        cfg = FitConfig(n=1, m=(3,), seed=11, max_iters=150, restarts=2)
        a = fit_empirical(xs, cfg)
        b = fit_empirical(xs, cfg)
        assert np.array_equal(a.model.alpha, b.model.alpha)
        assert np.array_equal(a.model.scales, b.model.scales)
        assert a.loss == b.loss
        assert a.empirical_coeffs_hash == b.empirical_coeffs_hash

    def test_nonconvergence_is_flagged_not_raised(self):
        # d = 2, where the swarm always runs (d = 1 starts from Prony's form)
        xs = sample(GgcModel([1.0], [[1.0, 0.5]]), 2000, seed=5)
        cfg = FitConfig(n=2, m=(2, 2), seed=0, max_iters=3, restarts=1)
        rep = fit_empirical(xs, cfg)
        assert not rep.converged
        assert rep.loss >= 0.0
        assert rep.model.n == 2

    def test_memory_is_bounded(self):
        # 2e4 bivariate rows: the chunked basis (1.4 MB, one chunk's two
        # matrices) stays below the kernel's bounded scratch, which adds the
        # 1.1 MB of 300 coefficient rows and the swarm's arrays (a few 0.2 MB)
        xs = np.random.default_rng(4).gamma(2.0, 1.0, (20_000, 2))
        cfg = FitConfig(n=20, m=(20, 20), swarm_size=300, max_iters=1, restarts=1, seed=1)
        tracemalloc.start()
        try:
            fit_empirical(xs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _KERNEL_BYTES + 2 * 2**20

    def test_report_fields(self):
        xs = sample(GgcModel([2.0], [[1.0]]), 4000, seed=9)
        cfg = FitConfig(n=1, m=(2,), seed=4, max_iters=100, restarts=1)
        rep = fit_empirical(xs, cfg)
        payload = rep.to_dict()
        for key in ("model", "loss", "wb", "m", "n", "seed", "tool_version"):
            assert key in payload
        assert payload["wb"]["is_wb"] == rep.wb.is_wb


class TestProjectDensity:
    @pytest.mark.parametrize("xs, cfg", [
        (sample(GgcModel([1.5], [[1.0]]), 3000, seed=3),
         FitConfig(n=1, m=(3,), swarm_size=10, seed=5, max_iters=200, restarts=2)),
        (sample(GgcModel([2.0, 1.0], [[1.0, 0.5], [0.2, 2.0]]), 3000, seed=4),
         FitConfig(n=2, swarm_size=20, seed=6, max_iters=60, restarts=2)),
    ], ids=["d1", "d2"])
    def test_fit_is_projection_of_empirical_target(self, xs, cfg):
        # one minimization: a fit is the projection of its empirical
        # coefficients, report and notes alike
        rcfg = cfg.resolved(xs.shape[1])
        want = project_density(empirical_coeffs(xs, rcfg.m), rcfg).to_dict()
        assert fit_empirical(xs, cfg).to_dict() == want

    def test_self_projection_recovers_member(self):
        model = GgcModel([1.0, 2.0], [[0.5], [3.0]])
        m = (4,)
        cfg = FitConfig(n=2, m=m, seed=1, max_iters=2000, restarts=3)
        rep = project_density(model_coeffs(model, m).coeffs, cfg)
        assert rep.loss < 1e-12

    def test_weibull_projection_positive_outside_class(self):
        m = (6,)
        pdf, jumps = bench_pdf("weibull", {"k": 1.5})
        cfg = FitConfig(n=3, m=m, seed=2, max_iters=800, restarts=2)
        rep = project_density(theoretical_coeffs(pdf, m, jumps), cfg)
        assert np.all(rep.model.alpha > 0)
        assert np.all(rep.model.scales.sum(axis=1) > 0)
        assert rep.loss > 1e-10  # the target lies outside the class

    def test_coefficient_target_box_must_match(self):
        cfg = FitConfig(n=2, m=(4,), seed=1, max_iters=300, restarts=1)
        with pytest.raises(ValueError):
            project_density(CoeffTensor((3,), np.zeros(4)), cfg)


class TestPronyStart:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_models_are_recovered_atom_for_atom(self, n):
        # nodes r = (1 - s)/(1 + s) kept apart, so the atoms are well
        # conditioned in the 2n + 1 coefficients
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            r = np.linspace(-0.6, 0.6, n) + rng.uniform(-0.1, 0.1, n)
            alpha = rng.uniform(0.5, 3.0, n)
            scales = (1.0 - r) / (1.0 + r)
            m = (2 * n,)
            rep = project_density(float_coeffs(GgcModel(alpha, scales[:, None]), m),
                                  FitConfig(n=n, m=m))
            assert rep.iters == 0 and rep.restarts_used == 0
            assert rep.loss < 1e-20
            order = np.argsort(rep.model.scales.ravel())[::-1]
            np.testing.assert_allclose(rep.model.alpha[order], alpha, rtol=1e-6)
            np.testing.assert_allclose(rep.model.scales.ravel()[order], scales, rtol=1e-6)

    def test_d1_runs_no_swarm(self, monkeypatch, tmp_path):
        # the README log-normal projection and A8's fit both start from
        # Prony's form; a swarm on either path is a regression
        from thorin import cli, estimator

        def no_swarm(*args):
            raise AssertionError("the swarm ran")

        monkeypatch.setattr(estimator, "_pso_once", no_swarm)
        assert cli.main(["project", "--density", "lognormal", "--params", "mu=0,sigma=0.83",
                         "--n", "2", "--seed", "0", "--output", str(tmp_path)]) == cli.EXIT_OK
        data = np.exp(np.random.default_rng(7).normal(0.0, 0.83, 100_000))
        rep = fit_empirical(data, FitConfig(n=10, m=(21,), seed=1234, max_iters=2000, restarts=3))
        assert rep.converged and rep.iters == 0

    @pytest.mark.parametrize("xs, m", [
        (sample(GgcModel([1.5], [[1.0]]), 2000, seed=3), (1,)),  # no second coefficient
        (sample(GgcModel([1000.0], [[1.0]]), 2000, seed=3), (4,)),  # a_0 underflows
    ], ids=["box1", "raw-scale"])
    def test_swarm_is_the_fallback(self, xs, m):
        cfg = FitConfig(n=2, m=m, seed=0, max_iters=60, restarts=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = fit_empirical(xs, cfg)
        assert rep.iters > 0 and rep.restarts_used == 2
        assert all(note.startswith("restart ") for note in rep.notes)


def _swarm_position(model):
    """Swarm coordinates of a model: log shapes, then each atom's simplex logits."""
    s = model.scales
    simplex = np.hstack([s, np.ones((model.n, 1))]) / (1.0 + s.sum(axis=1, keepdims=True))
    return np.concatenate([np.log(model.alpha), np.log(simplex).ravel()])


class TestFirstOfEqualLosses:
    """Starts that finish on the same loss report the first of them."""

    def test_prony_starts(self, monkeypatch):
        def tied_polish(theta, loss, target):
            return theta, 1.0, 1, 0.0, True

        monkeypatch.setattr("thorin.estimator._polish", tied_polish)
        m = (4,)
        rep = project_density(float_coeffs(GgcModel([1.0, 2.0], [[0.5], [3.0]]), m),
                              FitConfig(n=2, m=m))
        assert [note.split(":")[0] for note in rep.notes] == ["start k=2", "start k=1"]
        assert rep.model.n == 2

    def test_swarm_restarts(self, monkeypatch):
        positions = []

        def tied_swarm(target, cfg, rng):
            atoms = GgcModel([1.0 + len(positions), 0.5], [[1.0, 0.5], [0.2, 0.3]])
            positions.append(_swarm_position(atoms))
            return positions[-1], 1.0, 5, False

        monkeypatch.setattr("thorin.estimator._pso_once", tied_swarm)
        m = (2, 2)
        rep = project_density(float_coeffs(GgcModel([1.0], [[1.0, 0.5]]), m),
                              FitConfig(n=2, m=m, restarts=3))
        alpha, simplex = _decode(positions[0][None, :], 2)
        first = _fitted_model(alpha[0], simplex[0])
        assert len(positions) == rep.restarts_used == 3
        assert rep.notes == () and not rep.converged
        assert np.array_equal(rep.model.alpha, first.alpha)
        assert np.array_equal(rep.model.scales, first.scales)


class TestPolish:
    def test_recovers_a_perturbed_member(self):
        model = GgcModel([1.0, 2.0], [[0.5], [3.0]])
        m = (4,)
        target = float_coeffs(model, m)
        theta = _swarm_position(model) + np.random.default_rng(3).normal(scale=0.05, size=6)
        start = float(_losses(theta[None, :], target)[0])
        assert start > 1e-6
        pos, loss, steps, gnorm, converged = _polish(theta, start, target)
        assert loss < 1e-20
        assert converged and 0 < steps < 100
        alpha, simplex = _decode(pos[None, :], 1)
        got = _fitted_model(alpha[0], simplex[0])
        np.testing.assert_allclose(got.alpha, model.alpha, rtol=1e-6)
        np.testing.assert_allclose(got.scales, model.scales, rtol=1e-6)

    def test_stops_at_rounding_level(self):
        # an exact 4-atom target whose Prony start is already near rounding
        # level: the relative gain test alone let it creep to the step cap
        model = GgcModel([0.5368, 2.6591, 2.9530, 2.8930], [[0.1984], [4.4131], [6.0238], [8.8157]])
        target = float_coeffs(model, (8,))
        k, theta = _prony_starts(target.as_float(), 4)[0]
        start = float(_losses(theta[None, :], target)[0])
        assert k == 4 and start < 1e-18
        _, loss, steps, _, converged = _polish(theta, start, target)
        assert converged and steps <= 10
        assert loss <= start and loss <= 1e-20 * float((target.as_float() ** 2).sum())

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", ["weibull", "bivariate"])
    def test_never_above_the_swarm(self, case, seed):
        if case == "weibull":
            n, m = 3, (6,)
            pdf, jumps = bench_pdf("weibull", {"k": 1.5})
            target = theoretical_coeffs(pdf, m, jumps)
        else:
            n, m = 2, (3, 3)
            xs = sample(GgcModel([1.0, 0.7, 0.5], [[1.0, 0.2], [0.1, 2.0], [0.8, 0.8]]), 3000, seed=4)
            target = empirical_coeffs(xs, m)
        d = len(m)
        cfg = FitConfig(n=n, m=m, seed=seed, max_iters=40, restarts=1).resolved(d)
        gbest, gloss, _, _ = _pso_once(target, cfg, np.random.default_rng(seed))
        pos, loss, _, _, _ = _polish(gbest, gloss, target)
        assert loss <= gloss
        assert loss == float(_losses(pos[None, :], target)[0])

    def test_swarm_stopped_by_max_iters_is_not_polished(self):
        xs = sample(GgcModel([1.0], [[1.0, 0.5]]), 2000, seed=5)
        m = (2, 2)
        cfg = FitConfig(n=2, m=m, seed=0, max_iters=3, restarts=1)
        rep = fit_empirical(xs, cfg)
        target = empirical_coeffs(xs, m)
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
        gbest, _, iters, stalled = _pso_once(target, cfg.resolved(2), rng)
        alpha, simplex = _decode(gbest[None, :], 2)
        swarm = _fitted_model(alpha[0], simplex[0])
        assert not stalled and iters == rep.iters == 3
        assert not rep.converged and rep.notes == ()
        assert np.array_equal(rep.model.alpha, swarm.alpha)
        assert np.array_equal(rep.model.scales, swarm.scales)

    def test_spd_solve_matches_lapack_without_its_threads(self):
        # from about 100 unknowns LAPACK's factorization changes bits with
        # the BLAS thread count; the polish's own Cholesky does not
        for p in (1, 6, 120):
            jac = np.random.default_rng(p).normal(size=(p + 40, p))
            a = np.einsum("bi,bj->ij", jac, jac) + 1e-3 * np.eye(p)
            b = np.arange(1.0, p + 1.0)
            ref = np.linalg.solve(a, b)
            np.testing.assert_allclose(_spd_solve(a, b), ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        code = (
            "import numpy as np\n"
            "from thorin.estimator import _spd_solve\n"
            "jac = np.random.default_rng(120).normal(size=(160, 120))\n"
            "a = np.einsum('bi,bj->ij', jac, jac) + 1e-3 * np.eye(120)\n"
            "print(_spd_solve(a, np.arange(1.0, 121.0)).tobytes().hex())\n"
        )
        out = stdout_per_blas_threads(code)
        assert out[0] == out[1]

    def test_projection_bits_do_not_depend_on_blas_threads(self):
        code = (
            "import json\n"
            "from thorin import FitConfig, project_density, theoretical_coeffs\n"
            "from thorin.validate import bench_pdf\n"
            "pdf, jumps = bench_pdf('lognormal', {'mu': 0.0, 'sigma': 0.83})\n"
            "target = theoretical_coeffs(pdf, (4,), jumps)\n"
            "rep = project_density(target, FitConfig(n=2, seed=3, restarts=2))\n"
            "print(json.dumps(rep.to_dict(), sort_keys=True).replace(' ', ''))\n"
            "print(rep.loss.hex(), len(rep.notes), rep.converged)\n"
            # the quadrature targets in d = 2 and on a large box, and a
            # d = 2 projection through the CLI
            "import contextlib, io, tempfile\n"
            "from pathlib import Path\n"
            "from thorin.cli import main\n"
            "for name, m in (('mln_gaussian', (6, 6)), ('lognormal', (200,))):\n"
            "    pdf, jumps = bench_pdf(name, {})\n"
            "    print(theoretical_coeffs(pdf, m, jumps).a.tobytes().hex())\n"
            "with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['project', '--density', 'mln_gaussian', '--n', '2', '--m', '6,6',\n"
            "                 '--iters', '30', '--restarts', '1', '--output', out]) == 0\n"
            "    files = [(Path(out) / f).read_text() for f in ('report.json', 'coeffs.json')]\n"
            "print(*files)\n"
            # A8's fit: Prony starts of up to 4 atoms from lstsq and np.roots
            "import numpy as np\n"
            "from thorin.estimator import fit_empirical\n"
            "data = np.exp(np.random.default_rng(7).normal(0.0, 0.83, 100_000))\n"
            "rep = fit_empirical(data, FitConfig(n=10, m=(21,), seed=1234))\n"
            "print(json.dumps(rep.to_dict(), sort_keys=True).replace(' ', ''))\n"
            "print(rep.loss.hex(), len(rep.notes), rep.converged)\n"
        )
        out = stdout_per_blas_threads(code)
        assert out[0] == out[1]
        assert int(out[0][2]) >= 1  # a polish ran
        assert int(out[0][-2]) == 4  # one note per Prony start


@functools.lru_cache(maxsize=None)
def _moment_chain_coeffs(name, params, m, bits):
    ctx = PrecisionContext(bits)
    mu = theoretical_moments(bench_density_mp(name, dict(params)), m, ctx)
    return coeffs_from_moments(mu, m, ctx).as_float()


class TestTheoreticalCoeffs:
    @pytest.mark.parametrize(
        "name, params, m",
        [
            ("lognormal", (("mu", 0.0), ("sigma", 0.83)), (4,)),
            ("lognormal", (("mu", 0.0), ("sigma", 0.83)), (21,)),
            ("lognormal", (("mu", 0.0), ("sigma", 0.83)), (40,)),
            ("weibull", (("k", 1.5),), (8,)),
            ("weibull", (("k", 0.5),), (6,)),  # density singular at the origin
        ],
    )
    def test_matches_256_bit_moment_chain(self, name, params, m):
        # a_k depends on mu_l for l <= k only, so one 256-bit chain over
        # the largest box serves every smaller one
        big = (40,) if name == "lognormal" else m
        ref = _moment_chain_coeffs(name, params, big, 256)[: m[0] + 1]
        pdf, jumps = bench_pdf(name, dict(params))
        got = theoretical_coeffs(pdf, m, jumps)
        assert got.m == m and got.a.dtype == float
        assert np.abs(got.a - ref).max() <= 2e-15

    def test_pareto_jump_matches_closed_form_moments(self):
        # the moment quadrature has no split at xm = 2, so the 256-bit
        # moments come from mu_k = k_t xm^k_t Gamma(k - k_t, xm)
        kt, xm, m = 2.5, 2.0, (10,)
        ctx = PrecisionContext(256)
        with ctx.workprec():
            mu = np.array([kt * mpf(xm) ** kt * mpmath.gammainc(k - kt, xm)
                           for k in range(m[0] + 1)], dtype=object)
        ref = coeffs_from_moments(mu, m, ctx).as_float()
        pdf, jumps = bench_pdf("pareto", {"k": kt, "xm": xm})
        assert np.abs(theoretical_coeffs(pdf, m, jumps).a - ref).max() <= 2e-15

    def test_bivariate_matches_64_bit_moment_chain(self):
        params = (("rho", 0.5),)
        ref = _moment_chain_coeffs("mln_gaussian", params, (2, 2), 64)
        pdf, jumps = bench_pdf("mln_gaussian", dict(params))
        assert np.abs(theoretical_coeffs(pdf, (2, 2), jumps).a - ref).max() <= 1e-12

    @pytest.mark.parametrize("m", [(6, 2), (2, 6)])
    def test_bivariate_non_square_box_matches_model(self, m):
        # independent margins of different law, so a transposed
        # Phi_1 F Phi_2^T cannot pass
        model = GgcModel([2.0, 3.0], [[0.7, 0.0], [0.0, 1.9]])

        def log_gamma_pdf(x, shape, scale):
            x = np.maximum(x, 1e-300)
            return (shape - 1) * np.log(x) - x / scale - gammaln(shape) - shape * math.log(scale)

        def pdf(x, y):
            return np.exp(log_gamma_pdf(x, 2.0, 0.7) + log_gamma_pdf(y, 3.0, 1.9))

        ref = model_coeffs(model, m).coeffs.as_float()
        got = theoretical_coeffs(pdf, m)
        assert got.a.shape == ref.shape
        assert np.abs(got.a - ref).max() <= 1e-15

    def test_undeclared_jump_raises_with_achieved_tolerance(self):
        pdf, _ = bench_pdf("pareto", {"k": 2.5, "xm": 2.0})
        with pytest.raises(QuadratureError) as info:
            theoretical_coeffs(pdf, (4,))
        assert info.value.achieved_tol > 1e-15

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            theoretical_coeffs(lambda *a: 0.0, (1, 1, 1))


class TestTheoreticalMoments:
    def test_unit_exponential(self):
        mu = theoretical_moments(
            lambda x: mpmath.exp(-x), (2,), PrecisionContext(128)
        )
        assert float(mu[(0,)]) == pytest.approx(0.5, rel=1e-25)
        assert float(mu[(1,)]) == pytest.approx(0.25, rel=1e-25)
        assert float(mu[(2,)]) == pytest.approx(0.25, rel=1e-25)

    def test_gamma_first_moment(self):
        # mu_k = int x^{k+1} e^{-2x} dx = Gamma(k+2) / 2^{k+2}
        mu = theoretical_moments(
            lambda x: x * mpmath.exp(-x), (6,), PrecisionContext(128)
        )
        for k in range(7):
            assert float(mu[(k,)]) == pytest.approx(
                math.gamma(k + 2) / 2.0 ** (k + 2), rel=1e-25
            )

    def test_bivariate_product_density(self):
        # independent unit exponentials factorize: mu_k = prod 1/2, 1/4
        mu = theoretical_moments(
            lambda x, y: mpmath.exp(-x - y), (1, 1), PrecisionContext(64)
        )
        assert float(mu[(0, 0)]) == pytest.approx(0.25, rel=1e-6)
        assert float(mu[(1, 1)]) == pytest.approx(0.0625, rel=1e-6)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            theoretical_moments(lambda *a: mpf(0), (1, 1, 1))

    def test_error_carries_achieved_tolerance(self):
        err = QuadratureError("failed", 1e-3)
        assert err.achieved_tol == 1e-3

    @pytest.mark.parametrize(
        "m, bits, density",
        [
            ((6,), 128, lambda x: mpmath.exp(-x)),
            ((1, 1), 64, lambda x, y: mpmath.exp(-x - 2 * y)),
        ],
        ids=["univariate", "bivariate"],
    )
    def test_one_density_evaluation_per_node(self, m, bits, density):
        calls = []

        def recorder(*args):
            calls.append(args)
            return density(*args)

        theoretical_moments(recorder, m, PrecisionContext(bits))
        assert len(calls) > 0
        assert len(set(calls)) == len(calls)

    def test_unresolved_jump_raises_with_achieved_tolerance(self):
        # the Pareto density jumps at xm = 2, which is not a split point
        from thorin.oracle import bench_density_mp

        with pytest.raises(QuadratureError) as info:
            theoretical_moments(
                bench_density_mp("pareto", {"k": 2.5, "xm": 2.0}), (1,), PrecisionContext(64)
            )
        assert info.value.achieved_tol > 1e-8
