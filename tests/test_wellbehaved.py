import math

import numpy as np
import pytest

from oracle_helpers import enumerated_best_eps, per_tuple_majority_eps
from thorin import wellbehaved
from thorin.ggc import GgcModel, concatenate
from thorin.laguerre import CoeffTensor
from thorin.oracle import model_coeffs
from thorin.wellbehaved import (
    HalfPlaneImage,
    _interval_eps_1d,
    _subset_eps,
    _subset_geometry,
    best_eps,
    classify_dependence,
    decay_check,
    disc_image,
    is_eps_wb,
    mobius_h,
)


def random_univariate(rng, wb=False):
    n = int(rng.integers(1, 6))
    alpha = rng.uniform(0.1, 2.0, n)
    if wb:
        alpha *= (1.2 + rng.uniform(0, 2)) / alpha.sum()
    scales = rng.uniform(0.05, 6.0, (n, 1))
    return GgcModel(alpha, scales)


def structured_multivariate(rng, rounded=False):
    """d in {2, 3}, up to 10 atoms, mixing the degenerate geometries the
    majority search must get right: several atoms on one affine
    hyperplane, shared rays (duplicates included), zero entries, and
    geometric or uniform masses.  By default the shared rays are exact
    power-of-two multiples set after the hyperplane step; ``rounded``
    draws multiples from {1/3, 1, 3} and sets the rays before dividing
    atoms onto the hyperplane, so rows are proportional only up to
    rounding."""
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 11))
    scales = rng.uniform(0.05, 3.0, (n, d))

    def hyperplane():
        if rng.random() < 0.4:
            t = rng.uniform(0.2, 2.0, d)
            on = rng.random(n) < 0.6
            scales[on] /= (scales[on] @ t)[:, None]

    def shared_rays():
        if rng.random() < 0.4:
            share = rng.random(n) < 0.5
            multiples = [1 / 3, 1.0, 3.0] if rounded else [0.5, 1.0, 2.0, 4.0]
            scales[share] = scales[0] * rng.choice(multiples, size=(int(share.sum()), 1))

    for step in (shared_rays, hyperplane) if rounded else (hyperplane, shared_rays):
        step()
    if rng.random() < 0.3:
        zero = rng.random((n, d)) < 0.4
        zero[np.arange(n), rng.integers(0, d, n)] = False
        scales[zero] = 0.0
    alpha = 3.0 * 0.7 ** np.arange(n) if rng.random() < 0.3 else rng.uniform(0.2, 2.0, n)
    return GgcModel(alpha, scales)


def cross_check_enumeration(rounded):
    """``best_eps`` against the subset enumeration on 300 generated
    models; returns their margins."""
    rng = np.random.default_rng(11)
    kinds = {"not-wb": 0, "finite": 0, "inf": 0}
    margins = []
    for _ in range(300):
        m = structured_multivariate(rng, rounded)
        expected = enumerated_best_eps(m)
        rep = best_eps(m)
        assert rep.is_wb == (expected > 0)
        # the dependence structure reads rays and span off the same rank rule
        dep = classify_dependence(m)
        if dep.singular and m.total_mass > 1.0:
            assert rep.witness == f"rank-deficient majority subset {tuple(range(m.n))}"
        if m.d == 2 and dep.ray_count == 1:
            assert not rep.is_wb
        if math.isfinite(expected):
            assert rep.best_eps == pytest.approx(expected, rel=1e-12, abs=0.0)
        else:
            assert rep.best_eps == math.inf
        kind = "inf" if math.isinf(expected) else ("finite" if expected > 0 else "not-wb")
        kinds[kind] += 1
        margins.append(rep.best_eps)
    assert min(kinds.values()) >= 30, kinds
    return np.array(margins)


class TestMobius:
    def test_values(self):
        assert mobius_h(0.0) == pytest.approx(-1.0)
        assert mobius_h(3.0) == pytest.approx(2.0)
        assert mobius_h(1j) == pytest.approx(-1j)

    def test_pole(self):
        with pytest.raises(ValueError):
            mobius_h(1.0)

    def test_involution_and_reciprocal_identities(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        z = z[np.abs(z - 1) > 1e-3]
        z = z[np.abs(z) > 1e-3]
        for t in z[:10_000]:
            h = mobius_h(t)
            if abs(h - 1) > 1e-6:
                assert mobius_h(h) == pytest.approx(t, rel=1e-12, abs=1e-12)
            assert mobius_h(1 / t) == pytest.approx(-h, rel=1e-12, abs=1e-12)

    def test_right_half_plane_exits_unit_disc(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            t = abs(rng.normal()) + 1e-6 + 1j * rng.normal()
            assert abs(mobius_h(t)) > 1.0


class TestDiscImage:
    def test_contracting_disc(self):
        c, r = disc_image(0.5)
        assert c == pytest.approx(-5.0 / 3.0, rel=1e-14)
        assert r == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert c + r < 0  # image inside the left half-plane

    def test_expanding_disc(self):
        c, r = disc_image(2.0)
        assert c == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert r == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert c - r > 0  # complement image inside the right half-plane

    def test_unit_disc_signals_half_plane(self):
        with pytest.raises(HalfPlaneImage):
            disc_image(1.0)

    def test_boundary_maps_to_boundary(self):
        # h sends the circle |t| = b onto the circle around (c, r)
        rng = np.random.default_rng(2)
        for b in (0.3, 0.8, 1.7, 4.0):
            c, r = disc_image(b)
            for ang in rng.uniform(0, 2 * math.pi, 50):
                w = mobius_h(b * np.exp(1j * ang))
                assert abs(w - c) == pytest.approx(r, rel=1e-10)


class TestIsEpsWb:
    def test_unit_scale_always_passes(self):
        m = GgcModel([2.0], [[1.0]])
        for eps in (0.1, 1.0, 17.0, 1e6):
            assert is_eps_wb(m, eps).is_wb

    def test_threshold_at_scale_two(self):
        m = GgcModel([2.0], [[2.0]])
        assert is_eps_wb(m, 1.9).is_wb
        assert not is_eps_wb(m, 2.1).is_wb

    def test_mass_condition(self):
        m = GgcModel([0.5], [[1.0]])
        for eps in (0.01, 1.0, 10.0):
            assert not is_eps_wb(m, eps).is_wb

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(3)
        grid = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0]
        for _ in range(30):
            m = random_univariate(rng)
            flags = [is_eps_wb(m, e).is_wb for e in grid]
            # once it fails at some margin it keeps failing at larger ones
            assert all(a or not b for a, b in zip(flags, flags[1:]))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            is_eps_wb(GgcModel([2.0], [[1.0]]), 0.0)


class TestBestEps:
    def test_univariate_value(self):
        rep = best_eps(GgcModel([2.0], [[2.0]]))
        assert rep.is_wb
        assert rep.best_eps == pytest.approx(2.0, rel=1e-14)

    def test_independent_bivariate(self):
        rep = best_eps(GgcModel([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]))
        assert rep.is_wb
        assert rep.best_eps == math.inf

    def test_comonotonic_not_wb(self):
        rep = best_eps(GgcModel([2.0], [[1.0, 1.0]]))
        assert not rep.is_wb
        assert rep.best_eps == 0.0
        assert "rank-deficient" in rep.witness

    def test_mass_below_one(self):
        rep = best_eps(GgcModel([0.4, 0.5], [[1.0, 0.0], [0.0, 1.0]]))
        assert not rep.is_wb and rep.best_eps == 0.0

    def test_general_bivariate_finite_margin(self):
        # three spread atoms: the full-set system is consistent only for
        # subsets with solutions; the dominant pair pins a finite margin
        m = GgcModel([1.0, 1.0, 0.4], [[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        rep = best_eps(m)
        assert rep.is_wb
        assert 0 < rep.best_eps < math.inf
        # the {1,2} majority subset solves at t = (1/2, 1/2), whose image
        # stays 3 away from the unit circle
        assert rep.best_eps == pytest.approx(2.0, rel=1e-10)

    def test_univariate_machinery_matches_interval(self):
        # in one dimension every atom contributes the pole t = 1/s_i,
        # whatever its mass
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = random_univariate(rng)
            interval = _interval_eps_1d(m.scales)
            poles = min(_subset_eps(np.array([1.0 / s])) for s in m.scales[:, 0])
            if math.isinf(interval):
                assert math.isinf(poles)
            else:
                assert poles == pytest.approx(interval, rel=1e-12)

    def test_shared_ray_decided_without_atom_cap(self):
        # 23 atoms on the ray (1, 1): one rank-deficient majority
        n = 23
        m = GgcModel(np.ones(n), np.ones((n, 2)) + np.arange(n)[:, None] * 0.1)
        rep = best_eps(m)
        assert not rep.is_wb and rep.best_eps == 0.0
        assert "rank-deficient" in rep.witness

    def test_many_atoms_decided(self):
        rng = np.random.default_rng(8)
        scales = rng.uniform(0.05, 3.0, (60, 2))
        # uniform masses: no line through atoms carries a majority
        rep = best_eps(GgcModel(rng.uniform(0.2, 1.0, 60), scales))
        assert rep.is_wb is True and rep.best_eps == math.inf
        # geometric masses: the first two atoms alone are a majority
        rep = best_eps(GgcModel(3.0 * 0.7 ** np.arange(60), scales))
        assert rep.is_wb is True
        t = np.linalg.solve(scales[:2], np.ones(2))
        assert rep.best_eps == pytest.approx(_subset_eps(t), rel=1e-12)

    def test_matches_subset_enumeration(self):
        cross_check_enumeration(rounded=False)

    def test_matches_subset_enumeration_rows_proportional_up_to_rounding(self):
        # rows that share a ray only up to rounding are rank-deficient
        # under the rank rule, so no margin is rounding noise
        margins = cross_check_enumeration(rounded=True)
        assert not np.any((margins > 0) & (margins < 1e-12))

    def test_near_collinear_gray_zone(self):
        m = GgcModel([1.0, 1.0], [[1.0, 2.0], [2.0, 4.0 + 1e-25]])
        rep = best_eps(m)
        assert not rep.is_wb  # numerically indistinguishable from one ray

    def test_raw_scale_inconsistent_subsets_ignored(self):
        # on raw monetary scales the per-equation residual must still
        # separate consistent from inconsistent majority subsets: each
        # triple solves its first two rows at t ~ 1e-6 but leaves the
        # third equation far from 1, so no triple constrains the margin
        m = GgcModel(
            np.ones(4),
            [[1e6, 0.0], [0.0, 1e6], [7e5, 7e5], [3e5, 9e5]],
        )
        rep = best_eps(m)
        assert rep.is_wb
        assert rep.best_eps == math.inf

    def test_raw_scale_consistent_pair_constrains(self):
        # unequal masses make pairs the minimal majority subsets; their
        # unique solutions sit at t ~ 1e-6, whose Moebius image has
        # modulus 1 + O(1e-6): a tiny but positive margin
        m = GgcModel(
            [2.0, 2.0, 1.5, 0.5],
            [[1e6, 0.0], [0.0, 1e6], [7e5, 7e5], [3e5, 9e5]],
        )
        rep = best_eps(m)
        assert rep.is_wb
        assert 0 < rep.best_eps < 1e-4

    def test_scaling_invariance_of_status(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            model = GgcModel(rng.uniform(0.4, 1.5, n), rng.uniform(0.1, 3.0, (n, 2)))
            big = GgcModel(model.alpha, model.scales * np.array([1e5, 3e4]))
            assert best_eps(model).is_wb == best_eps(big).is_wb

    def test_convolution_closure(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 50:
            d = int(rng.integers(1, 4))
            a = GgcModel(
                rng.uniform(0.4, 1.5, 3), rng.uniform(0.1, 3.0, (3, d))
            )
            b = GgcModel(
                rng.uniform(0.4, 1.5, 3), rng.uniform(0.1, 3.0, (3, d))
            )
            if not (best_eps(a).is_wb and best_eps(b).is_wb):
                continue
            assert best_eps(concatenate(a, b)).is_wb
            done += 1

    def test_invertible_map_closure(self):
        rng = np.random.default_rng(6)
        done = 0
        while done < 30:
            d = int(rng.integers(2, 4))
            m = GgcModel(rng.uniform(0.4, 1.5, d + 1), rng.uniform(0.1, 2.0, (d + 1, d)))
            if not best_eps(m).is_wb:
                continue
            # monomial matrices (permutation x positive diagonal) preserve
            # the orthant and invertibility
            perm = rng.permutation(d)
            A = np.zeros((d, d))
            A[np.arange(d), perm] = rng.uniform(0.3, 3.0, d)
            image = GgcModel(m.alpha, m.scales @ A)
            assert best_eps(image).is_wb
            done += 1


def assert_same_search(alpha, scales):
    """The chunked majority search against the per-tuple one: the same
    witness, and the same margin bit for bit."""
    got = wellbehaved._majority_eps(alpha, scales)
    want = per_tuple_majority_eps(alpha, scales)
    assert got[1] == want[1]
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


def random_models(sizes=((60, 2), (30, 3))):
    """Atoms uniform in a box, with geometric masses (a few atoms carry
    a majority) and with uniform ones (none does)."""
    rng = np.random.default_rng(21)
    for n, d in sizes:
        scales = rng.uniform(0.05, 3.0, (n, d))
        yield 3.0 * 0.7 ** np.arange(n), scales
        yield rng.uniform(0.2, 1.0, n), scales


class TestRankScreen:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_determinant_screen_agrees_with_the_svd(self, d):
        # half the stacks within 1e-17..1e-9 of singular, scaled over 60 decades
        rng = np.random.default_rng(d)
        A = rng.uniform(0.0, 3.0, (4000, d, d))
        near = A[::2]
        mix = rng.uniform(-2.0, 2.0, (len(near), d - 1))
        noise = 10.0 ** rng.uniform(-17, -9, (len(near), 1)) * rng.normal(size=(len(near), d))
        near[:, -1] = np.einsum("ci,cij->cj", mix, near[:, :-1]) + noise
        A *= 10.0 ** rng.uniform(-30, 30, (len(A), 1, 1))
        A[::50] = 0.0
        below = wellbehaved._rank_below(A, d)
        assert np.array_equal(below, wellbehaved._svd_rank_below(A, d))
        assert below.any() and not below.all()


class TestChunkedSearch:
    @pytest.mark.parametrize("rounded", [False, True])
    def test_corpus_matches_per_tuple_search(self, rounded):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = structured_multivariate(rng, rounded)
            if m.total_mass > 1.0:
                assert_same_search(m.alpha, m.scales)

    def test_random_models_match_per_tuple_search(self):
        for alpha, scales in random_models():
            assert_same_search(alpha, scales)

    @pytest.mark.parametrize("tuples", [1, 7])
    def test_chunk_boundaries_change_nothing(self, monkeypatch, tuples):
        # chunks of 1 or 7 tuples put boundaries inside both searches
        models = list(random_models(((12, 2), (30, 3))))
        rng = np.random.default_rng(11)
        models += [(m.alpha, m.scales) for m in
                   (structured_multivariate(rng) for _ in range(100)) if m.total_mass > 1.0]
        for alpha, scales in models:
            n, d = scales.shape
            rays = classify_dependence(GgcModel(alpha, scales))
            monkeypatch.setattr(wellbehaved, "_SEARCH_BYTES", tuples * 8 * n * d * d)
            assert_same_search(alpha, scales)
            assert classify_dependence(GgcModel(alpha, scales)) == rays
            monkeypatch.undo()

    @pytest.mark.parametrize("geometry", ["ray", "line"])
    def test_mass_at_the_threshold_is_summed_as_before(self, geometry):
        # six atoms on one ray, or on one line, whose masses sum to just
        # above half the total in index order but not with zeros in place
        # of the other atoms: the chunk's screen must not decide the tie
        alpha = np.array([
            0.26464899220814686, 1.1496952961385167, 0.8208253329477481, 0.634044940210703,
            0.8321806577616719, 0.764187091357939, 0.8201365955871194, 0.92232168643665,
            0.18878996498330242, 0.8514893835625605, 0.5276032191298285, 0.392991054490634,
        ])
        on = [0, 2, 4, 7, 9, 11]
        assert 2.0 * alpha[on].sum() > alpha.sum() >= 2.0 * np.where(
            np.isin(np.arange(12), on), alpha, 0.0).sum()
        scales = np.random.default_rng(4).uniform(0.05, 3.0, (12, 2))
        v = np.array([0.5, 1.0, 1.5, 2.5, 3.0, 3.5])
        scales[on] = np.stack([v, 2.0 * v] if geometry == "ray" else [2.0 - 0.5 * v, v], 1)
        eps, witness = wellbehaved._majority_eps(alpha, scales)
        assert witness.endswith("subset (0, 2, 4, 7, 9, 11)")
        assert (eps == 0.0) == (geometry == "ray")
        assert_same_search(alpha, scales)

    @pytest.mark.parametrize("b", [[2.0, 4.0], [0.25, 0.5]])
    def test_equal_margins_keep_the_first_hyperplane(self, b):
        # atom 0 on the diagonal and atoms 1, 2 mirrored across it: the
        # lines through (0, 1) and (0, 2) give the same margin to the
        # last bit, and the pair (1, 2) holds exactly half the mass
        alpha, scales = np.array([2.0, 1.0, 1.0]), np.array([[1.0, 1.0], b, b[::-1]])
        margins = {_subset_eps(_subset_geometry(scales[[0, j]])[1]) for j in (1, 2)}
        assert len(margins) == 1
        assert wellbehaved._majority_eps(alpha, scales) == (margins.pop(), "subset (0, 1)")
        assert_same_search(alpha, scales)

    def test_rank_deficient_majority_returns_from_the_first_chunk(self, monkeypatch):
        # atoms 0 and 1 carry a majority and, in d = 3, span a plane: the
        # first basis of the subspace search is a rank-deficient majority
        rng = np.random.default_rng(3)
        alpha, scales = 3.0 * 0.7 ** np.arange(40), rng.uniform(0.05, 3.0, (40, 3))
        calls = []
        rank_below = wellbehaved._rank_below
        monkeypatch.setattr(wellbehaved, "_rank_below",
                            lambda stack, r: calls.append(len(stack)) or rank_below(stack, r))
        eps, witness = wellbehaved._majority_eps(alpha, scales)
        # one chunk, 64 times smaller than the later ones: its bases and
        # their stacks (the span of all atoms is one matrix, decided by
        # the SVD alone)
        assert len(calls) == 2 and calls[1] == 40 * calls[0]
        assert calls[0] == wellbehaved._SEARCH_BYTES // (8 * 40 * 9) // 64
        assert (eps, witness) == (0.0, "rank-deficient majority subset (0, 1)")
        monkeypatch.undo()
        assert_same_search(alpha, scales)


class TestClassifyDependence:
    def test_independent(self):
        rep = classify_dependence(GgcModel([1.0, 1.0], [[1.0, 0.0], [0.0, 2.0]]))
        assert rep.kind == "independent"
        assert rep.ray_count == 2
        assert not rep.singular

    def test_comonotonic_singular(self):
        rep = classify_dependence(GgcModel([1.0, 1.0], [[1.0, 2.0], [2.0, 4.0]]))
        assert rep.kind == "comonotonic"
        assert rep.ray_count == 1
        assert rep.singular

    def test_general_continuous(self):
        rep = classify_dependence(
            GgcModel([1.0, 1.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        )
        assert rep.kind == "general"
        assert rep.ray_count == 3
        assert not rep.singular

    def test_coplanar_atoms_are_singular(self):
        # three rays in d = 3, all in the plane x_3 = 0
        m = GgcModel([1.0, 1.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        rep = classify_dependence(m)
        assert rep.ray_count == 3 and rep.singular
        assert best_eps(m).witness == "rank-deficient majority subset (0, 1, 2)"

    @pytest.mark.parametrize("offset, rays", [(1e-14, 1), (1e-12, 2)])
    def test_rays_follow_the_rank_rule(self, offset, rays):
        # sigma_2 / sigma_1 of [[1, 2], [2 (1 + offset), 4]] is 1.6e-15 at
        # 1e-14 and 1.6e-13 at 1e-12, on either side of the rule's 1e-13
        rep = classify_dependence(GgcModel([1.0, 1.0], [[1.0, 2.0], [2.0 * (1 + offset), 4.0]]))
        assert rep.ray_count == rays
        assert rep.singular == (rays == 1)

    @pytest.mark.parametrize("offset", [1e-14, 5e-13, 1e-12, 1e-10, 5e-9, 1e-8])
    def test_one_ray_iff_no_margin(self, offset):
        m = GgcModel([1.0, 1.0], [[1.0, 2.0], [2.0 * (1 + offset), 4.0]])
        assert (classify_dependence(m).ray_count == 1) == (best_eps(m).best_eps == 0.0)


class TestDecayCheck:
    def test_single_mode_tensor(self):
        ct = model_coeffs(GgcModel([1.0], [[1.0]]), (10,)).coeffs
        B, ok = decay_check(ct, 0.7)
        assert ok
        assert B == pytest.approx(1 / math.sqrt(2), rel=1e-10)

    def test_true_margin_passes(self):
        ct = model_coeffs(GgcModel([2.0], [[2.0]]), (40,)).coeffs
        B, ok = decay_check(ct, 1.0)  # strictly below the margin of 2
        assert ok

    def test_geometric_growth_fails(self):
        fake = CoeffTensor((10,), 2.0 ** np.arange(11.0))
        B, ok = decay_check(fake, 1.0)
        assert not ok

    def test_fitted_shape_passes_at_half_margin(self):
        model = GgcModel([0.5458, 2.4539], [[1.6283], [0.1999]])
        rep = best_eps(model)
        assert rep.is_wb
        ct = model_coeffs(model, (40,)).coeffs
        for frac in (0.5, 0.25, 0.125):
            _, ok = decay_check(ct, rep.best_eps * frac)
            assert ok

    def test_rejects_nonpositive_margin(self):
        ct = CoeffTensor((2,), np.zeros(3))
        with pytest.raises(ValueError):
            decay_check(ct, 0.0)
