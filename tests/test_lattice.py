import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from fdkdv import lattice
from fdkdv.lattice import (
    LatticeBudget,
    bilinear_constant_ladder,
    cubic_phase,
    quartic_phase,
    resonance_factor_min_ratio,
    smoothing_multiplier_sup,
    verify_cubic_phase_exhaustive,
    verify_cubic_phase_sampled,
    verify_quartic_phase_exhaustive,
    verify_quartic_phase_sampled,
)
from fdkdv.normal_form import normal_form_bilinear
from fdkdv.spectral import sobolev_norm


def _quartic_count(radius: int) -> int:
    # sum of m^2 over m = 1..2*radius+1: one m x m (k2, k3) grid per k1
    n = 2 * radius + 1
    return n * (n + 1) * (2 * n + 1) // 6


nonzero_int = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda k: k != 0)


class TestLatticeBudget:
    def test_accepts_valid(self):
        LatticeBudget(16, 0.5, 0.01)

    @pytest.mark.parametrize("eps", [0.0, 1.0 / 22.0, 0.05, -0.01])
    def test_rejects_eps_outside_range(self, eps):
        with pytest.raises(ValueError):
            LatticeBudget(16, 0.5, eps)

    def test_rejects_bad_k_and_s(self):
        with pytest.raises(ValueError):
            LatticeBudget(0, 0.5)
        with pytest.raises(ValueError):
            LatticeBudget(16, -0.5)


class TestCubicPhase:
    @pytest.mark.parametrize(
        "k1,k2,expected",
        [(1, 2, 18), (-1, 1, 0), (2, 3, 90)],
    )
    def test_small_values(self, k1, k2, expected):
        assert cubic_phase(k1, k2) == expected

    def test_exhaustive_small_radius(self):
        assert verify_cubic_phase_exhaustive(100) == 201**2

    def test_sampled_wide_integers(self):
        assert verify_cubic_phase_sampled(10**6, trials=500, seed=1) == 500

    @given(k1=nonzero_int, k2=nonzero_int)
    @settings(max_examples=200)
    def test_identity_property(self, k1, k2):
        assert cubic_phase(k1, k2) == (k1 + k2) ** 3 - k1**3 - k2**3


class TestQuarticPhase:
    @pytest.mark.parametrize(
        "triple,expected",
        [((1, 2, 3), 180), ((1, -1, 5), 0), ((2, 2, 2), 192)],
    )
    def test_small_values(self, triple, expected):
        assert quartic_phase(*triple) == expected

    def test_exhaustive_small_radius(self):
        assert verify_quartic_phase_exhaustive(40) == _quartic_count(40)

    # 415 is the last radius scanned in int32 (30 R^3 < 2^31), 416 the first in int64
    @pytest.mark.parametrize("radius", [415, 416])
    def test_exhaustive_count_is_the_closed_form(self, radius):
        assert verify_quartic_phase_exhaustive(radius) == _quartic_count(radius)

    @pytest.mark.parametrize("radius, dtype", [(415, np.int32), (416, np.int64)])
    def test_planted_mismatch_names_its_triple(self, monkeypatch, radius, dtype):
        # bump k2 + k3, and so both sides of the identity, at one (k2, k3) cell
        # of the fourth k1 slice; row 130 lies in the slice's second block
        i1, i, j = 3, 130, 200
        k1 = -radius + i1
        window = 2 * radius + 1 - i1
        dtypes = set()

        def planted(x, m):
            dtypes.add(x.dtype)
            view = sliding_window_view(x, m)
            if m == window:
                view = view.copy()
                view[i, j] += 1
            return view

        monkeypatch.setattr(lattice, "sliding_window_view", planted)
        message = f"quartic phase identity failed at ({k1}, {k1 + i}, {k1 + j})"
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            verify_quartic_phase_exhaustive(radius)
        assert dtypes == {np.dtype(dtype)}

    def test_sampled_wide_integers(self):
        # k4^3 here exceeds int64, exercising the wide-integer path
        assert verify_quartic_phase_sampled(10**6, trials=500, seed=2) == 500

    def test_rejects_unsafe_vectorized_radius(self):
        with pytest.raises(ValueError):
            verify_quartic_phase_exhaustive(10**6)

    @given(k1=nonzero_int, k2=nonzero_int, k3=nonzero_int)
    @settings(max_examples=200)
    def test_identity_property(self, k1, k2, k3):
        k4 = -(k1 + k2 + k3)
        assert quartic_phase(k1, k2, k3) == -(k1**3 + k2**3 + k3**3 + k4**3)


class TestResonanceFactorMinRatio:
    def test_golden_minimum_small_radius(self):
        # regenerated by enumeration: witness (-3, -1, 2) with k4 = 2 gives
        # |(-4)(-1)(1)| / 3 = 4/3, and no admissible quadruple goes lower
        m, witness = resonance_factor_min_ratio(8)
        assert m == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert witness == (-3, -1, 2, 2)

    def test_example_quadruple_ratio(self):
        # (1,2,3): factors (3)(4)(5) = 60, largest |k_i| = |k4| = 6 -> 10
        assert 60 / 6 == 10

    def test_k_independent_lower_bound(self):
        m16, _ = resonance_factor_min_ratio(16)
        m64, _ = resonance_factor_min_ratio(64)
        assert m64 >= 0.9 * m16
        assert m64 > 0


class TestSmoothingMultiplierSup:
    def test_example_quadruple_value(self):
        # (1, 2, 3, -6) at s = 0.9, eps = 0.01:
        # 6^0.9 * 36^0.01 / 60^0.43 ~ 0.894  (direct arithmetic)
        val = 6**0.9 * 36**0.01 / (1 * 60 ** (0.5 - 0.07))
        assert val == pytest.approx(0.894, abs=5e-4)
        sup, _ = smoothing_multiplier_sup(LatticeBudget(6, 0.9, 0.01))
        assert sup >= val - 1e-12

    @pytest.mark.parametrize("s", [0.5, 0.9])
    @pytest.mark.parametrize("eps", [0.005, 0.01])
    def test_bounded_across_doublings(self, s, eps):
        sups = [smoothing_multiplier_sup(LatticeBudget(K, s, eps))[0] for K in (16, 32, 64)]
        assert sups[1] <= 1.05 * sups[0]
        assert sups[2] <= 1.05 * sups[1]

    def test_monotone_in_s_for_large_k4(self):
        lo, _ = smoothing_multiplier_sup(LatticeBudget(16, 0.0, 0.01))
        hi, _ = smoothing_multiplier_sup(LatticeBudget(16, 0.9, 0.01))
        assert lo <= hi

    def test_eps_validated_through_budget(self):
        with pytest.raises(ValueError):
            LatticeBudget(16, 0.5, 0.0455)


class TestReducedMultiplierSup:
    def test_bounded_within_validity_range(self):
        # |k4|^s / (|k1| (|k1+k2||k1+k3||k2+k3|)^{1/2-11eps}), the consequence
        # form of the smoothing multiplier: its sup over the lattice stays
        # bounded in K when s <= 1 - 22 eps
        from fdkdv.lattice import _lattice_extremum

        for s, eps in ((0.5, 0.01), (0.9, 0.004)):
            expo = 0.5 - 11.0 * eps

            def ratio(k1, K2, K3, k4, product):
                return np.abs(k4).astype(np.float64) ** s / (abs(k1) * product**expo)

            sups = [_lattice_extremum(K, ratio, largest=True)[0] for K in (16, 32, 64)]
            assert sups[2] <= 1.05 * sups[1] <= 1.05 * 1.05 * sups[0]


class TestBilinearNormConstant:
    def test_two_mode_closed_form_is_reachable(self):
        # u = v with u_{+-1} = 1 gives ratio 1/6 at s = 0.5; the estimator
        # must do at least as well
        [est] = bilinear_constant_ladder([4], 0.5, trials=10, seed=3)
        assert est >= 1.0 / 6.0 - 1e-12

    def test_rejects_s_at_least_one(self):
        with pytest.raises(ValueError):
            bilinear_constant_ladder([4], 1.0, trials=1, seed=0)

    def test_degenerate_zero_trial_skipped(self):
        from fdkdv.lattice import _bilinear_ratio
        from fdkdv.spectral import CoefSeq, GridSpec

        g = GridSpec(4)
        zero = CoefSeq.zeros(g)
        assert _bilinear_ratio(zero, zero, 0.5) == 0.0

    def test_random_trial_field_pinned(self):
        from fdkdv.lattice import _random_hermitian
        from fdkdv.spectral import GridSpec

        v = _random_hermitian(GridSpec(3), np.random.default_rng(5))
        assert v.coef.tolist() == [
            0j, -1.324358995628145 - 0.24836162209524854j,
            0.18205994118156638 + 0.4919274763015748j,
            0.02911427325143474 - 0.14666350551317975j,
        ]

    def test_deterministic(self):
        a = bilinear_constant_ladder([8], 0.5, trials=25, seed=7)
        b = bilinear_constant_ladder([8], 0.5, trials=25, seed=7)
        assert a == b

    def test_stable_across_seeds_within_ten_percent(self):
        [a] = bilinear_constant_ladder([16], 0.9, trials=60, seed=1)
        [b] = bilinear_constant_ladder([16], 0.9, trials=60, seed=2)
        assert max(a, b) / min(a, b) <= 1.10

    def test_ladder_stable_across_truncations(self):
        for s in (0.9, 0.5):
            vals = bilinear_constant_ladder((8, 16, 32), s, trials=60, seed=5)
            assert vals[1] <= 1.05 * vals[0]
            assert vals[2] <= 1.05 * vals[1]
            # warm starts make the ladder monotone to roundoff; the s = 0.5
            # rungs are flat to 5e-7, so an exact comparison would test roundoff
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo * (1.0 - 1e-12)

    def test_reaches_the_supremum(self):
        # greedy coordinate ascent stopped at 0.27928 on the first rung; the
        # alternating solves reach the supremum on every rung, whatever the seed
        ladder = bilinear_constant_ladder((16, 32, 64), 0.9, trials=150, seed=7)
        assert ladder[0] >= 0.3026
        for seed in range(4):
            other = bilinear_constant_ladder((16, 32, 64), 0.9, trials=150, seed=seed)
            assert other == pytest.approx(ladder, rel=1e-6)


class TestBilinearMatrix:
    @pytest.mark.parametrize("s", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("K", [1, 2, 7, 32])
    def test_matches_the_bilinear_form(self, K, s):
        from fdkdv.lattice import _bilinear_matrix, _random_hermitian
        from fdkdv.spectral import GridSpec

        grid = GridSpec(K)
        rng = np.random.default_rng(K)
        for _ in range(3):
            u = _random_hermitian(grid, rng)
            v = _random_hermitian(grid, rng)
            x = np.concatenate((u.coef[1:].real, u.coef[1:].imag))
            got = np.linalg.norm(_bilinear_matrix(v, s) @ x) * np.sqrt(2.0)
            want = sobolev_norm(normal_form_bilinear(u, v), s)
            assert abs(got - want) <= 1e-13 * want

    def test_zero_at_k_one(self):
        # B vanishes at K = 1 (k1 + k2 = +-1 needs a mode beyond K); the
        # ladder reports 0 without dividing by it
        from fdkdv.lattice import _bilinear_matrix
        from fdkdv.spectral import CoefSeq, GridSpec

        v = CoefSeq.from_modes(GridSpec(1), {1: 0.3 - 0.8j})
        assert not _bilinear_matrix(v, 0.5).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bilinear_constant_ladder([1], 0.5, trials=5, seed=0) == [0.0]
