import numpy as np
import pytest

from fdkdv.spectral import (
    CoefSeq,
    GridSpec,
    convolve_raw,
    from_physical,
    next_alias_free_size,
    project_mean_zero,
    random_rough_state,
    sobolev_norm,
    square_half,
    to_physical,
    truncated_convolution,
)


def random_field(grid, seed, decay=1.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.size, dtype=np.complex128)
    for k in range(1, grid.K + 1):
        val = (rng.normal() + 1j * rng.normal()) * k**-decay
        c[k + grid.K] = val
        c[-k + grid.K] = np.conj(val)
    return CoefSeq(grid, c)


class TestGridSpec:
    def test_default_padding_is_alias_free(self):
        for K in (1, 8, 64, 128, 256):
            g = GridSpec(K)
            assert g.P >= 3 * K + 1

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GridSpec(0)
        with pytest.raises(ValueError):
            GridSpec(8, P=24)

    def test_next_alias_free_size(self):
        assert next_alias_free_size(193) == 200
        assert next_alias_free_size(385) == 400
        assert next_alias_free_size(769) == 800


class TestSobolevNorm:
    def test_zero_sequence(self):
        g = GridSpec(8)
        for s in (0.0, 0.5, 1.0):
            assert sobolev_norm(CoefSeq.zeros(g), s) == 0.0

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 0.9, 2.0])
    def test_cosine_closed_form(self, s):
        # u = cos x has u_{+-1} = 1/2; |k| = 1 so every s gives 1/sqrt(2)
        u = CoefSeq.cosine(GridSpec(8))
        assert sobolev_norm(u, s) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_mode_two_half_weight(self):
        u = CoefSeq.from_modes(GridSpec(8), {2: 0.5, -2: 0.5})
        assert sobolev_norm(u, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            sobolev_norm(CoefSeq.cosine(GridSpec(4)), -0.1)

    def test_monotone_in_s_for_unit_modes(self):
        u = random_field(GridSpec(16), seed=3)
        norms = [sobolev_norm(u, s) for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


class TestConvolution:
    def test_cosine_squared(self):
        # cos^2 x = 1/2 + cos(2x)/2: w_0 = 1/2, w_2 = 1/4
        u = CoefSeq.cosine(GridSpec(8))
        w = truncated_convolution(u, u)
        assert w.mode(2) == pytest.approx(0.25, abs=1e-14)
        assert w.mode(0) == pytest.approx(0.5, abs=1e-14)
        assert w.mode(1) == pytest.approx(0.0, abs=1e-14)

    def test_zero(self):
        g = GridSpec(8)
        w = truncated_convolution(CoefSeq.zeros(g), CoefSeq.zeros(g))
        assert np.all(w.coef == 0)

    @pytest.mark.parametrize("K", [8, 16])
    def test_matches_direct_sum_oracle(self, K):
        # independent O(K^2) oracle, written out here rather than imported
        g = GridSpec(K)
        u = random_field(g, seed=1)
        v = random_field(g, seed=2)
        expected = np.zeros(g.size, dtype=np.complex128)
        for k in range(-K, K + 1):
            acc = 0.0 + 0.0j
            for n in range(-K, K + 1):
                m = k - n
                if abs(m) <= K:
                    acc += u.coef[n + K] * v.coef[m + K]
            expected[k + K] = acc
        w = truncated_convolution(u, v)
        assert np.max(np.abs(w.coef - expected)) < 1e-12

    def test_raw_arrays_without_symmetry(self):
        # the primitive takes any complex entries, as the twisted operators need
        K = 5
        g = GridSpec(K)
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, g.size)) + 1j * rng.normal(size=(2, g.size))
        expected = [sum(a[n + K] * b[k - n + K] for n in range(-K, K + 1) if abs(k - n) <= K)
                    for k in range(-K, K + 1)]
        assert np.max(np.abs(convolve_raw(a, b, g) - expected)) < 1e-13

    def test_same_operand_is_bit_identical_to_a_copy(self):
        g = GridSpec(16)
        a = random_field(g, seed=4).coef
        assert np.array_equal(convolve_raw(a, a, g), convolve_raw(a, a.copy(), g))

    def test_bilinear_and_symmetric(self):
        g = GridSpec(12)
        u, v, w = (random_field(g, s) for s in (5, 6, 7))
        ab = truncated_convolution(u, v)
        ba = truncated_convolution(v, u)
        assert np.max(np.abs(ab.coef - ba.coef)) < 1e-13
        lhs = truncated_convolution(u.with_coef(2 * u.coef + w.coef), v)
        rhs = 2 * truncated_convolution(u, v).coef + truncated_convolution(w, v).coef
        assert np.max(np.abs(lhs.coef - rhs)) < 1e-12

    def test_hermitian_output(self):
        g = GridSpec(16)
        w = truncated_convolution(random_field(g, 8), random_field(g, 9))
        assert w.is_real_field(1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            truncated_convolution(CoefSeq.cosine(GridSpec(8)), CoefSeq.cosine(GridSpec(9)))


class TestHalfSpectrum:
    @pytest.mark.parametrize("K", [1, 8, 33])
    def test_square_matches_full_convolution_per_member(self, K):
        g = GridSpec(K)
        fields = [random_field(g, seed) for seed in (10, 11, 12)]
        got = square_half(np.stack([u.coef[K:] for u in fields]), g)
        assert got.shape == (3, K + 1)
        for u, row in zip(fields, got):
            full = convolve_raw(u.coef, u.coef, g)
            assert np.max(np.abs(row - full[K:])) < 1e-13

    def test_from_half_rebuilds_the_full_field(self):
        g = GridSpec(16)
        u = random_field(g, 13)
        v = CoefSeq.from_half(g, u.coef[g.K :])
        assert np.array_equal(v.coef, u.coef)
        assert v.hermitian_defect() == 0.0


class TestProjectMeanZero:
    def test_removes_product_mean(self):
        u = CoefSeq.cosine(GridSpec(8))
        w = project_mean_zero(truncated_convolution(u, u))
        assert w.mode(0) == 0.0
        assert w.mode(2) == pytest.approx(0.25, abs=1e-14)

    def test_idempotent_on_mean_zero(self):
        u = random_field(GridSpec(8), seed=4)
        assert project_mean_zero(u) is u

    def test_constant_field_maps_to_zero(self):
        g = GridSpec(4)
        u = CoefSeq.from_modes(g, {0: 3.0})
        assert np.all(project_mean_zero(u).coef == 0)


class TestPhysicalTransforms:
    def test_cosine_samples(self):
        g = GridSpec(8)
        x = 2 * np.pi * np.arange(g.P) / g.P
        assert np.max(np.abs(to_physical(CoefSeq.cosine(g)) - np.cos(x))) < 1e-13

    def test_sine_samples(self):
        g = GridSpec(8)
        u = CoefSeq.from_modes(g, {2: -0.5j, -2: 0.5j})
        x = 2 * np.pi * np.arange(g.P) / g.P
        assert np.max(np.abs(to_physical(u) - np.sin(2 * x))) < 1e-13

    def test_round_trip_identity(self):
        g = GridSpec(16)
        u = random_field(g, seed=11)
        v = from_physical(to_physical(u), g)
        assert np.max(np.abs(v.coef - u.coef)) < 1e-12

    def test_parseval_at_truncation(self):
        g = GridSpec(16)
        u = random_field(g, seed=12)
        phys = to_physical(u)
        assert np.mean(phys**2) == pytest.approx(np.sum(np.abs(u.coef) ** 2), rel=1e-12)

    def test_rejects_complex_samples(self):
        g = GridSpec(4)
        with pytest.raises(ValueError):
            from_physical(np.ones(g.P) * (1 + 0.5j), g)


class TestRandomRoughState:
    def test_deterministic_in_seed(self):
        g = GridSpec(32)
        a = random_rough_state(g, 0.8, seed=42, target_l2=1.0)
        b = random_rough_state(g, 0.8, seed=42, target_l2=1.0)
        assert np.array_equal(a.coef, b.coef)

    def test_rescaled_to_target(self):
        u = random_rough_state(GridSpec(32), 1.5, seed=3, target_l2=2.5)
        assert u.l2() == pytest.approx(2.5, abs=1e-12)

    def test_mean_zero_real_field(self):
        u = random_rough_state(GridSpec(16), 0.6, seed=5, target_l2=1.0)
        assert u.is_mean_zero()
        assert u.is_real_field(0.0)

    def test_low_modes_shared_across_truncations(self):
        a = random_rough_state(GridSpec(64), 0.55, seed=9, target_l2=1.0)
        b = random_rough_state(GridSpec(128), 0.55, seed=9, target_l2=1.0)
        # same phases; moduli differ only by the rescaling factor
        ka = a.coef[a.grid.K + 1 :]
        kb = b.coef[b.grid.K + 1 : b.grid.K + 65]
        ratio = kb / ka
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12

    def test_rough_family_unbounded_in_hs(self):
        # sigma = 0.55: H^{0.5} norm grows when K doubles although l2 is fixed
        a = random_rough_state(GridSpec(64), 0.55, seed=9, target_l2=1.0)
        b = random_rough_state(GridSpec(128), 0.55, seed=9, target_l2=1.0)
        ga, gb = sobolev_norm(a, 0.5), sobolev_norm(b, 0.5)
        assert gb > 1.25 * ga

    def test_rejects_bad_parameters(self):
        g = GridSpec(8)
        with pytest.raises(ValueError):
            random_rough_state(g, 0.5, seed=1, target_l2=1.0)
        with pytest.raises(ValueError):
            random_rough_state(g, 1.0, seed=1, target_l2=0.0)
