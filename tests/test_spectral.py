import numpy as np
import pytest

from fdkdv.flow import FlowParams, evolve, evolve_batch
from fdkdv.normal_form import nonresonant_cubic, normal_form_bilinear
from fdkdv.spectral import (
    CoefSeq,
    GridSpec,
    next_alias_free_size,
    product_half,
    random_rough_state,
    sobolev_norm,
)


def product_oracle(a, b, K):
    """(u v)_k for k = 0..K by direct summation over the full spectra of the
    real fields with half spectra a and b."""
    full_a = np.concatenate((np.conj(a[:0:-1]), a))
    full_b = np.concatenate((np.conj(b[:0:-1]), b))
    return np.array([
        sum(full_a[n + K] * full_b[k - n + K] for n in range(k - K, K + 1))
        for k in range(K + 1)
    ])


def random_field(grid, seed, decay=1.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.size, dtype=np.complex128)
    for k in range(1, grid.K + 1):
        c[k] = (rng.normal() + 1j * rng.normal()) * k**-decay
    return CoefSeq(grid, c)


class TestCoefSeq:
    def test_stores_the_half_spectrum(self):
        g = GridSpec(8)
        assert g.size == 9
        assert np.array_equal(g.modes, np.arange(9))
        u = CoefSeq.cosine(g, mode=3, amplitude=2.0)
        assert u.coef.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0]

    def test_negative_modes_are_conjugates(self):
        u = random_field(GridSpec(8), seed=1)
        for k in range(1, 9):
            assert u.mode(-k) == np.conj(u.mode(k))
            assert u.mode(k) == u.coef[k]
        assert u.mode(9) == 0.0 and u.mode(-9) == 0.0

    def test_rejects_wrong_shape(self):
        g = GridSpec(4)
        for n in (2 * g.K + 1, g.K):
            with pytest.raises(ValueError, match="coefficients"):
                CoefSeq(g, np.zeros(n, dtype=np.complex128))

    def test_rejects_complex_mean(self):
        # every field is mean-zero: this is the one check of u_0 = 0
        g = GridSpec(4)
        c = np.zeros(g.size, dtype=np.complex128)
        for mean in (1.0 + 1e-300j, 1e-300j, 1.0, -1e-300):
            c[0] = mean
            with pytest.raises(ValueError, match="mean-zero"):
                CoefSeq(g, c)
        for x in (0.0, 1.0, 1j):
            with pytest.raises(ValueError, match="outside"):
                CoefSeq.from_modes(g, {0: x})
        # a signed zero is zero: the stepper's k = 0 slot can produce it
        for zero in (-0.0, complex(-0.0, -0.0), complex(0.0, -0.0)):
            c[0] = zero
            assert CoefSeq(g, c).mode(0) == 0.0

    def test_from_modes_rejects_keys_outside_half_spectrum(self):
        g = GridSpec(4)
        for k in (-1, 5):
            with pytest.raises(ValueError, match="outside"):
                CoefSeq.from_modes(g, {k: 1.0})
        with pytest.raises(ValueError):
            CoefSeq.cosine(g, mode=0)


class TestGridSpec:
    def test_default_padding_is_alias_free(self):
        for K in (1, 8, 64, 128, 256):
            g = GridSpec(K)
            assert g.P >= 3 * K + 1
            assert g.P == next_alias_free_size(3 * K + 1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GridSpec(0)

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
        u = CoefSeq.from_modes(GridSpec(8), {2: 0.5})
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
        g = GridSpec(8)
        u = CoefSeq.cosine(g).coef
        w = product_half(u, u, g)
        assert w[2] == pytest.approx(0.25, abs=1e-14)
        assert w[0] == pytest.approx(0.5, abs=1e-14)
        assert w[1] == pytest.approx(0.0, abs=1e-14)

    def test_zero(self):
        g = GridSpec(8)
        zero = CoefSeq.zeros(g).coef
        assert np.all(product_half(zero, zero.copy(), g) == 0)

    @pytest.mark.parametrize("K", [8, 16])
    def test_matches_direct_sum_oracle(self, K):
        # independent O(K^2) oracle over both signs of k, reading the
        # negative modes through CoefSeq.mode
        g = GridSpec(K)
        u = random_field(g, seed=1)
        v = random_field(g, seed=2)
        expected = np.array([
            sum(u.mode(n) * v.mode(k - n) for n in range(-K, K + 1)) for k in range(K + 1)
        ])
        w = product_half(u.coef, v.coef, g)
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_same_operand_is_bit_identical_to_a_copy(self):
        g = GridSpec(16)
        a = random_field(g, seed=4).coef
        assert np.array_equal(product_half(a, a, g), product_half(a, a.copy(), g))

    @pytest.mark.parametrize("K", [1, 8, 33])
    def test_work_arrays_are_bit_identical_to_allocating(self, K):
        g = GridSpec(K)
        a = np.stack([random_field(g, seed).coef for seed in (30, 31)])
        b = np.stack([random_field(g, seed).coef for seed in (32, 33)])
        phys = np.full((2, g.P), np.nan)
        spec = np.full((2, g.P // 2 + 1), np.nan, dtype=np.complex128)
        for x, y in ((a, a), (a, b)):
            got = product_half(x, y, g, phys=phys, spec=spec)
            assert np.shares_memory(got, spec)
            assert np.array_equal(got, product_half(x, y, g))

    def test_bilinear_and_symmetric(self):
        g = GridSpec(12)
        u, v, w = (random_field(g, s).coef for s in (5, 6, 7))
        ab = product_half(u, v, g)
        ba = product_half(v, u, g)
        assert np.max(np.abs(ab - ba)) < 1e-13
        lhs = product_half(2 * u + w, v, g)
        rhs = 2 * product_half(u, v, g) + product_half(w, v, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestHalfSpectrum:
    @pytest.mark.parametrize("K", [1, 8, 33])
    def test_square_matches_full_convolution_per_member(self, K):
        g = GridSpec(K)
        c = np.stack([random_field(g, seed).coef for seed in (10, 11, 12)])
        got = product_half(c, c, g)
        assert got.shape == (3, K + 1)
        for row, a in zip(got, c):
            assert np.max(np.abs(row - product_oracle(a, a, K))) < 1e-13

    @pytest.mark.parametrize("K", [1, 8, 33])
    def test_product_matches_direct_sum_per_member(self, K):
        g = GridSpec(K)
        a = np.stack([random_field(g, seed).coef for seed in (20, 21, 22)])
        b = np.stack([random_field(g, seed).coef for seed in (23, 24, 25)])
        got = product_half(a, b, g)
        assert got.shape == (3, K + 1)
        for row, x, y in zip(got, a, b):
            assert np.max(np.abs(row - product_oracle(x, y, K))) < 1e-13


class TestSquareNormSlot:
    """The k = 0 slot of a square is (u^2)_0 = sum_k |u_k|^2 = ||u||^2: the
    stepper takes every dense l2 norm, and its finiteness check, from it."""

    @pytest.mark.parametrize("K", [1, 8, 33, 128])
    def test_is_the_squared_l2_norm_per_member(self, K):
        g = GridSpec(K)
        us = [random_field(g, seed, decay) for seed, decay in ((30, 0.6), (31, 1.0), (32, 2.0))]
        c = np.stack([u.coef for u in us])
        for got in (product_half(c, c, g)[:, 0], [product_half(a, a, g)[0] for a in c]):
            for u, y in zip(us, got, strict=True):
                assert y.imag == 0.0
                assert abs(y.real - sobolev_norm(u, 0) ** 2) <= 1e-14 * sobolev_norm(u, 0) ** 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                     complex(np.nan, 0.0)])
    @pytest.mark.parametrize("K", [1, 8, 33, 128])
    def test_one_non_finite_coefficient_makes_it_non_finite(self, K, bad):
        g = GridSpec(K)
        c = np.stack([random_field(g, seed).coef for seed in (33, 34, 35)])
        for k in range(1, K + 1):
            x = c.copy()
            x[1, k] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                slot = product_half(x, x, g)[:, 0]
            assert np.isfinite(slot).tolist() == [True, False, True]


class TestDirectTransforms:
    """product_half calls numpy's pocketfft gufuncs directly; it must match the
    np.fft expression it replaces bit for bit, and the package's hot paths
    must not reach the np.fft wrappers at all."""

    @staticmethod
    def np_fft_product(a, b, grid):
        pa = np.fft.irfft(a, n=grid.P, norm="forward")
        pb = pa if b is a else np.fft.irfft(b, n=grid.P, norm="forward")
        return np.fft.rfft(pa * pb, norm="forward")[..., : grid.K + 1]

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["row", "batch"])
    @pytest.mark.parametrize("K", [1, 2, 8, 33, 64, 128])
    def test_bit_identical_to_np_fft(self, K, batch):
        rng = np.random.default_rng(K)
        a, b = (rng.normal(size=batch + (K + 1,)) + 1j * rng.normal(size=batch + (K + 1,))
                for _ in range(2))
        # the operands fill the grid, or only its low half (K' < K, which the
        # contract allows); P is odd for K = 8 (25) and for 2K = 4 (15)
        for grid in (GridSpec(K), GridSpec(2 * K)):
            for x, y in ((a, a), (a, b)):
                expected = self.np_fft_product(x, y, grid)
                assert np.array_equal(product_half(x, y, grid), expected)
                phys = np.full(batch + (grid.P,), np.nan)
                spec = np.full(batch + (grid.P // 2 + 1,), np.nan, dtype=np.complex128)
                got = product_half(x, y, grid, phys=phys, spec=spec)
                assert np.shares_memory(got, spec)
                assert np.array_equal(got, expected)

    def test_hot_paths_skip_the_np_fft_wrappers(self, monkeypatch):
        def wrapper(*args, **kwargs):
            raise AssertionError("np.fft wrapper reached")

        for name in ("irfft", "rfft"):
            monkeypatch.setattr(np.fft, name, wrapper)
        g = GridSpec(16)
        u, v = random_field(g, seed=40), random_field(g, seed=41)
        for scheme in ("ifrk4", "etdrk4"):
            params = FlowParams(gamma=1.0, forcing=CoefSeq.cosine(g), h=1e-2, scheme=scheme)
            evolve(u, 0.05, params)
            evolve_batch((u, v), 0.05, params)
        normal_form_bilinear(u, v, t=0.3)
        nonresonant_cubic(u, t=0.3)


class TestRandomRoughState:
    def test_deterministic_in_seed(self):
        g = GridSpec(32)
        a = random_rough_state(g, 0.8, seed=42, target_l2=1.0)
        b = random_rough_state(g, 0.8, seed=42, target_l2=1.0)
        assert np.array_equal(a.coef, b.coef)

    @pytest.mark.parametrize("K, sigma, seed, target, expected", [
        (3, 1.5, 7, 1.0, [0j, -0.46355295946672437 - 0.4641094033003348j,
                          0.18520867413631725 - 0.1395801117009024j,
                          0.020285108136343644 - 0.12459843244590411j]),
        (4, 0.55, 101, 2.0, [0j, 0.9417741996075695 - 0.34890173353374143j,
                             -0.4353312817602633 + 0.5301399482015232j,
                             0.11907416012287872 - 0.5357833532949947j,
                             -0.3935679891352948 - 0.25422239945277625j]),
    ])
    def test_pinned_values(self, K, sigma, seed, target, expected):
        # seeded fields feed the pinned experiment references; any change of
        # draw order or arithmetic shows here as an inexact match
        u = random_rough_state(GridSpec(K), sigma, seed=seed, target_l2=target)
        assert u.coef.tolist() == expected

    def test_pinned_norm_sums_both_signs_in_order(self):
        # the l2 norm adds the terms of k = -K..-1, 1..K in that order; at
        # K = 64 that rounds differently from twice the sum over k > 0
        u = random_rough_state(GridSpec(64), 0.8, seed=2, target_l2=1.0)
        assert u.l2() == 0.9999999999999998  # 2 * sum over k > 0 gives 1.0

    def test_rescaled_to_target(self):
        u = random_rough_state(GridSpec(32), 1.5, seed=3, target_l2=2.5)
        assert u.l2() == pytest.approx(2.5, abs=1e-12)

    def test_mean_zero_real_field(self):
        u = random_rough_state(GridSpec(16), 0.6, seed=5, target_l2=1.0)
        assert u.mode(0) == 0
        assert u.coef.shape == (17,)

    def test_low_modes_shared_across_truncations(self):
        a = random_rough_state(GridSpec(64), 0.55, seed=9, target_l2=1.0)
        b = random_rough_state(GridSpec(128), 0.55, seed=9, target_l2=1.0)
        # same phases; moduli differ only by the rescaling factor
        ka = a.coef[1:]
        kb = b.coef[1:65]
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
