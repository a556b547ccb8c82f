from dataclasses import replace

import numpy as np
import pytest

import fdkdv.normal_form
from fdkdv.experiments import (
    default_residual_configs,
    forcing_for,
    initial_state_for,
    run_normal_form_residual,
    stencil_states,
)
from fdkdv.flow import FlowParams, evolve, linear_flow, step
from fdkdv.normal_form import (
    NormalFormFrame,
    _full_spectrum,
    _identity_rhs,
    _resonant_sums,
    _resonant_cubic_banded,
    _twisted_antiderivative,
    nonresonant_cubic,
    normal_form_bilinear,
    normal_form_residual,
    resonant_cancellation_residual,
    resonant_cubic,
    smoothing_gap,
    third_antiderivative,
)
from fdkdv.spectral import CoefSeq, GridSpec, product_half, random_rough_state, sobolev_norm


def hermitian_state(grid, seed, decay=1.0, scale=1.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.size, dtype=np.complex128)
    for k in range(1, grid.K + 1):
        c[k] = scale * (rng.normal() + 1j * rng.normal()) * k**-decay
    return CoefSeq(grid, c)


def full(u):
    """Coefficients k = -K..K of u, the negative side read through mode(k)."""
    return np.array([u.mode(k) for k in range(-u.grid.K, u.grid.K + 1)])


def bilinear_oracle(u, v, t):
    """(1/6) sum_{k1+k2=k} e^{-3i k k1 k2 t} u_{k1} v_{k2} / (k1 k2), summed
    directly over k = -K..K."""
    K = u.grid.K
    uf, vf = full(u), full(v)
    expected = np.zeros(2 * K + 1, dtype=np.complex128)
    for k in range(-K, K + 1):
        if k == 0:
            continue
        acc = 0.0 + 0.0j
        for k1 in range(-K, K + 1):
            k2 = k - k1
            if k1 == 0 or k2 == 0 or abs(k2) > K:
                continue
            acc += np.exp(-3j * k * k1 * k2 * t) * uf[k1 + K] * vf[k2 + K] / (k1 * k2)
        expected[k + K] = acc / 6.0
    return expected


def cubic_oracle(u, t, band, resonant):
    """(i/6) sum_{k1+k2+k3=k} e^{-3i t (k1+k2)(k1+k3)(k2+k3)} u_{k1} u_{k2} u_{k3} / k1
    by triple enumeration over nonzero k_i with k2 + k3 != 0 and
    |k2 + k3| <= band; resonant=True keeps only triples with a vanishing
    pair sum, False only the others, None all of them; k = -K..K."""
    K = u.grid.K
    uf = full(u)
    expected = np.zeros(2 * K + 1, dtype=np.complex128)
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            for k3 in range(-K, K + 1):
                if 0 in (k1, k2, k3) or k2 + k3 == 0:
                    continue
                if abs(k2 + k3) > band:
                    continue
                phase = (k1 + k2) * (k1 + k3) * (k2 + k3)
                if resonant is not None and (phase == 0) != resonant:
                    continue
                k = k1 + k2 + k3
                if k == 0 or abs(k) > K:
                    continue
                expected[k + K] += (
                    (1j / 6.0)
                    * np.exp(-3j * t * phase)
                    * uf[k1 + K]
                    * uf[k2 + K]
                    * uf[k3 + K]
                    / k1
                )
    return expected


class TestThirdAntiderivative:
    def test_cosine_forcing(self):
        # f = cos x: v_k = f_k/(ik)^3 gives v_1 = (1/2)/(-i) = i/2, so v = -sin x
        g = GridSpec(8)
        v = third_antiderivative(CoefSeq.cosine(g))
        assert v.mode(1) == pytest.approx(0.5j, abs=1e-15)
        assert v.mode(-1) == pytest.approx(-0.5j, abs=1e-15)

    def test_differentiating_three_times_recovers_forcing(self):
        g = GridSpec(16)
        f = hermitian_state(g, seed=1)
        v = third_antiderivative(f)
        k = g.modes.astype(np.float64)
        back = (1j * k) ** 3 * v.coef
        back[0] = 0.0
        assert np.max(np.abs(back - f.coef)) < 1e-13

    def test_zero(self):
        g = GridSpec(8)
        assert np.all(third_antiderivative(CoefSeq.zeros(g)).coef == 0)

    def test_norm_never_exceeds_forcing_norm(self):
        g = GridSpec(32)
        for seed in range(5):
            f = hermitian_state(g, seed=seed, decay=0.8)
            v = third_antiderivative(f)
            assert v.l2() <= f.l2()
            assert sobolev_norm(v, 0.9) <= f.l2()


class TestNormalFormFrame:
    def frame(self, K=32, gamma=0.8):
        g = GridSpec(K)
        return NormalFormFrame.from_forcing(CoefSeq.cosine(g), gamma), g

    def test_z_at_time_zero(self):
        frame, g = self.frame()
        u = hermitian_state(g, seed=2)
        z = frame.to_z(u, 0.0)
        assert np.max(np.abs(z.coef - (u.coef - frame.v.coef))) < 1e-15

    def test_u_equal_v_gives_zero(self):
        frame, g = self.frame()
        z = frame.to_z(frame.v, 1.3)
        assert np.max(np.abs(z.coef)) == 0.0

    def test_y_modulus_grows_like_exp_gamma_t(self):
        frame, g = self.frame(gamma=0.8)
        t = 1.9
        y = frame.y_at(t)
        assert np.allclose(np.abs(y.coef), np.abs(frame.v.coef) * np.exp(0.8 * t))

    def test_frame_rate_equals_twisted_forcing(self):
        # d/dt y - gamma y = -i k^3 y must equal e^{(gamma - ik^3) t} f_k
        g = GridSpec(16)
        f = hermitian_state(g, seed=4)
        frame = NormalFormFrame.from_forcing(f, 0.6)
        t = 0.83
        k = g.modes.astype(np.float64)
        twisted_f = f.coef * np.exp((0.6 - 1j * k**3) * t)
        assert np.max(np.abs(frame.y_rate_minus_gamma_y(t).coef - twisted_f)) < 1e-12


class TestNormalFormBilinear:
    def test_single_pair_sum(self):
        g = GridSpec(8)
        u = CoefSeq.from_modes(g, {1: 1.0})
        b = normal_form_bilinear(u, u)
        assert b.mode(2) == pytest.approx(1.0 / 6.0, abs=1e-15)
        # the (1, -1) pairing would land at k = 0, which is zero by definition
        assert b.mode(0) == 0.0

    def test_phase_periodicity(self):
        g = GridSpec(8)
        u = CoefSeq.from_modes(g, {1: 1.0})
        b = normal_form_bilinear(u, u, t=np.pi / 3.0)
        # k=2 term has phase e^{-6it} = e^{-2 pi i} = 1
        assert b.mode(2) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_matches_direct_sum_oracle(self):
        for K in (1, 6, 17):
            g = GridSpec(K)
            u = hermitian_state(g, seed=5)
            v = hermitian_state(g, seed=6)
            for t in (0.0, 0.37):
                for a, b in ((u, v), (u, u)):
                    got = normal_form_bilinear(a, b, t)
                    assert np.max(np.abs(full(got) - bilinear_oracle(a, b, t))) < 1e-13, (K, t)

    def test_bilinear(self):
        g = GridSpec(12)
        u, v, w = (hermitian_state(g, seed=s) for s in (7, 8, 9))
        lhs = normal_form_bilinear(u.with_coef(2 * u.coef + w.coef), v).coef
        rhs = (
            2 * normal_form_bilinear(u, v).coef + normal_form_bilinear(w, v).coef
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    @pytest.mark.parametrize("t", [0.0, 0.61])
    def test_hermitian_preservation(self, t):
        # the direct sums at k < 0 are the conjugates of those at -k, which
        # is what the stored half spectrum claims through mode(k)
        g = GridSpec(16)
        u = hermitian_state(g, seed=10)
        v = hermitian_state(g, seed=11)
        expected = bilinear_oracle(u, v, t)
        assert np.max(np.abs(expected[:16] - np.conj(expected[:16:-1]))) < 1e-13
        got = normal_form_bilinear(u, v, t)
        assert max(abs(got.mode(k) - expected[k + 16]) for k in range(-16, 0)) < 1e-13

    def test_two_mode_norm_ratio_closed_form(self):
        # u = v with u_{+-1} = 1: ratio ||B(u,u)||_{H^s} / (||u|| ||v||) = 2^{s-1/2}/6
        g = GridSpec(8)
        u = CoefSeq.from_modes(g, {1: 1.0})
        b = normal_form_bilinear(u, u)
        ratio = sobolev_norm(b, 0.5) / (u.l2() ** 2)
        assert ratio == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_hs_bound_stable_across_truncations(self):
        # ||B(u,v)||_{H^0.9} <= C ||u|| ||v|| with C stable in K
        worst = {}
        for K in (16, 32, 64):
            g = GridSpec(K)
            ratios = []
            for seed in range(20):
                u = hermitian_state(g, seed=100 + seed, decay=0.6)
                v = hermitian_state(g, seed=200 + seed, decay=0.6)
                b = normal_form_bilinear(u, v)
                ratios.append(sobolev_norm(b, 0.9) / (u.l2() * v.l2()))
            worst[K] = max(ratios)
        assert worst[32] <= 1.05 * max(worst[16], 1e-9) + 0.05
        assert worst[64] <= 1.05 * worst[32] + 0.05


class TestResonantCubic:
    def test_two_mode_arithmetic(self):
        g = GridSpec(4)
        u = CoefSeq.from_modes(g, {1: 2.0})
        r = resonant_cubic(u)
        assert r.mode(1) == pytest.approx(-4j / 3.0, abs=1e-14)
        assert r.mode(-1) == pytest.approx(4j / 3.0, abs=1e-14)

    def test_zero(self):
        assert np.all(resonant_cubic(CoefSeq.zeros(GridSpec(4))).coef == 0)

    def test_hermitian_output(self):
        # the closed form -(i / 6k) |u_k|^2 u_k holds at k < 0 too
        u = hermitian_state(GridSpec(32), seed=12)
        r = resonant_cubic(u)
        for k in range(-32, 0):
            expected = (-1j / (6.0 * k)) * abs(u.mode(k)) ** 2 * u.mode(k)
            assert r.mode(k) == pytest.approx(expected, abs=1e-15)

    def test_cubic_bound_random_trials(self):
        g = GridSpec(64)
        for seed in range(50):
            u = random_rough_state(g, 0.8, seed=seed, target_l2=1.0 + seed % 3)
            r = resonant_cubic(u)
            assert sobolev_norm(r, 0.5) <= u.l2() ** 3


class TestNonresonantCubic:
    def test_two_mode_values(self):
        g = GridSpec(4)
        u = CoefSeq.from_modes(g, {1: 1.0})
        r = nonresonant_cubic(u)
        # k=3 receives only the (1,1,1) triple; every triple summing to 1
        # from {+-1} hits a vanishing pair sum
        assert r.mode(3) == pytest.approx(1j / 6.0, abs=1e-15)
        assert r.mode(-3) == pytest.approx(-1j / 6.0, abs=1e-15)
        assert r.mode(1) == pytest.approx(0.0, abs=1e-15)

    def test_zero(self):
        assert np.all(nonresonant_cubic(CoefSeq.zeros(GridSpec(4))).coef == 0)

    @pytest.mark.parametrize("t", [0.0, 0.41])
    def test_matches_triple_enumeration_oracle(self, t):
        # the oracle's domain is the identity's: pair sums |k2 + k3| <= K
        for K in (2, 3, 5, 8, 17):
            u = hermitian_state(GridSpec(K), seed=13)
            expected = cubic_oracle(u, t, K, resonant=False)
            got = nonresonant_cubic(u, t)
            assert np.max(np.abs(full(got) - expected)) < 1e-13, (K, t)

    def test_cubic_homogeneity(self):
        g = GridSpec(8)
        u = hermitian_state(g, seed=14)
        lam = 1.7
        a = nonresonant_cubic(u.with_coef(lam * u.coef)).coef
        b = lam**3 * nonresonant_cubic(u).coef
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.29])
    def test_hermitian_preservation(self, t):
        # the triple sums at k < 0 are the conjugates of those at -k, which
        # is what the stored half spectrum claims through mode(k)
        u = hermitian_state(GridSpec(6), seed=15)
        expected = cubic_oracle(u, t, 6, resonant=False)
        assert np.max(np.abs(expected[:6] - np.conj(expected[:6:-1]))) < 1e-13
        got = nonresonant_cubic(u, t)
        assert max(abs(got.mode(k) - expected[k + 6]) for k in range(-6, 0)) < 1e-13

    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_exact_zero_on_an_empty_domain(self, t):
        # at K = 1 every triple is resonant
        u = CoefSeq.from_modes(GridSpec(1), {1: 0.7 - 0.4j})
        assert np.all(nonresonant_cubic(u, t).coef == 0)


class TestResonantCubicBanded:
    @pytest.mark.parametrize("t", [0.0, 0.41])
    def test_matches_triple_enumeration_oracle(self, t):
        # resonant triples have phase 1, so t changes nothing
        for K in (2, 3, 5, 8, 17):
            u = hermitian_state(GridSpec(K), seed=17)
            expected = cubic_oracle(u, t, K, resonant=True)
            got = CoefSeq(u.grid, _resonant_cubic_banded(u.coef))
            assert np.max(np.abs(full(got) - expected)) < 1e-14, (K, t)

    def test_cubic_sum_splits_into_resonant_and_nonresonant(self):
        u = hermitian_state(GridSpec(8), seed=18)
        cubic = cubic_oracle(u, 0.0, 8, resonant=None)
        split = nonresonant_cubic(u, 0.0).coef + _resonant_cubic_banded(u.coef)
        assert np.max(np.abs(cubic[8:] - split)) < 1e-14


def resonant_sums_oracle(u):
    """_resonant_sums by brute force: every triple (k1, k2, k3) of the whole
    in-band lattice for each k, masked to the resonant ones; O(K^3)."""
    K = u.grid.K
    c = _full_spectrum(u.coef)
    k1v = np.arange(-K, K + 1)
    K1, K2 = np.meshgrid(k1v, k1v, indexing="ij")
    inv1 = np.zeros(2 * K + 1)
    inv1[k1v != 0] = 1.0 / k1v[k1v != 0]
    W1 = inv1[K1 + K] * c[K1 + K]
    sums = np.zeros(c.size, dtype=np.complex128)
    for k in range(-K, K + 1):
        if k == 0:
            continue
        K3 = k - K1 - K2
        valid = (np.abs(K3) <= K) & (K3 != 0) & (K1 != 0) & (K2 != 0) & (K2 + K3 != 0)
        resonant = valid & (((K1 + K2) == 0) | ((K1 + K3) == 0))
        if not resonant.any():
            continue
        U3 = c[np.where(resonant, K3 + K, 0)]
        sums[k + K] = (W1 * c[K2 + K] * U3)[resonant].sum()
    return sums


class TestResonantCancellation:
    @pytest.mark.parametrize("K", [1, 2, 5, 16])
    def test_resonant_sums_match_the_triple_enumeration(self, K):
        for seed in range(3):
            u = hermitian_state(GridSpec(K), seed=40 + seed)
            u = u.with_coef(u.coef / u.l2())
            got = _resonant_sums(u.coef)
            assert np.max(np.abs(got - resonant_sums_oracle(u))) <= 1e-15, (K, seed)

    def test_resonant_sums_in_row_blocks(self, monkeypatch):
        # more output modes than one block: the blocks tile -K..K exactly
        u = hermitian_state(GridSpec(16), seed=44)
        whole = _resonant_sums(u.coef)
        monkeypatch.setattr(fdkdv.normal_form, "_RESONANT_ROWS", 5)
        assert np.array_equal(_resonant_sums(u.coef), whole)

    def test_random_hermitian_residual_roundoff(self):
        u = random_rough_state(GridSpec(16), 0.8, seed=16, target_l2=1.0)
        assert resonant_cancellation_residual(u) < 1e-12

    def test_two_mode_support_reproduces_diagonal_exactly(self):
        g = GridSpec(4)
        u = CoefSeq.from_modes(g, {1: 0.5 + 0.25j})
        assert resonant_cancellation_residual(u) < 1e-16

    def test_zero(self):
        assert resonant_cancellation_residual(CoefSeq.zeros(GridSpec(8))) == 0.0


class TestDifferentialIdentity:
    def test_identity_holds_algebraically_at_truncation(self):
        """Substitute the truncated twisted equation for dz/dt and expand the
        bracket's time derivative in closed form; the residual is roundoff."""
        K, t, gamma = 6, 0.37, 0.8
        g = GridSpec(K)
        z = hermitian_state(g, seed=11)
        v = hermitian_state(g, seed=12)
        k = g.modes.astype(np.float64)
        lam = gamma - 1j * k**3
        y = v.coef * np.exp(lam * t)
        a = CoefSeq(g, z.coef + y)
        af = full(a)

        # quadratic term of the twisted equation (independent double loop;
        # k >= 0, the negative side is its conjugate)
        quad = np.zeros(g.size, dtype=np.complex128)
        for kk in range(1, K + 1):
            acc = 0.0 + 0.0j
            for k1 in range(-K, K + 1):
                k2 = kk - k1
                if k1 == 0 or k2 == 0 or abs(k2) > K:
                    continue
                acc += np.exp(-3j * kk * k1 * k2 * t) * af[k1 + K] * af[k2 + K]
            quad[kk] = -0.5j * kk * acc

        dz = -gamma * y + np.exp(-gamma * t) * quad
        dz[0] = 0.0
        dy = lam * y
        da = CoefSeq(g, dz + dy)

        # d/dt of the bilinear bracket: phase derivative + two slot derivatives
        phase_deriv = np.zeros(g.size, dtype=np.complex128)
        for kk in range(1, K + 1):
            acc = 0.0 + 0.0j
            for k1 in range(-K, K + 1):
                k2 = kk - k1
                if k1 == 0 or k2 == 0 or abs(k2) > K:
                    continue
                acc += (
                    (-3j * kk * k1 * k2)
                    * np.exp(-3j * kk * k1 * k2 * t)
                    * af[k1 + K]
                    * af[k2 + K]
                    / (k1 * k2)
                )
            phase_deriv[kk] = acc / 6.0

        B = normal_form_bilinear
        lhs = dz + gamma * np.exp(-gamma * t) * B(a, a, t).coef - np.exp(-gamma * t) * (
            phase_deriv + 2.0 * B(a, da, t).coef
        )

        rate = CoefSeq(g, dy - gamma * y)
        rhs = (
            np.exp(-2 * gamma * t) * _resonant_cubic_banded(a.coef)
            - gamma * y
            + gamma * np.exp(-gamma * t) * B(a, a, t).coef
            - 2.0 * np.exp(-gamma * t) * B(a, rate, t).coef
            + np.exp(-2 * gamma * t) * nonresonant_cubic(a, t).coef
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def _stencil(self, u0, gamma, f, t, dt):
        """u(t - dt), u(t), u(t + dt) marched the whole way at dt."""
        params = FlowParams(gamma=gamma, forcing=f, h=dt)
        s0 = CoefSeq(u0.grid, evolve(u0, t - dt, params, sample_every=10**9).coefs[-1])
        s1 = step(s0, t - dt, params)
        return s0, s1, step(s1, t, params)

    def test_residual_second_order_in_dt(self):
        g = GridSpec(16)
        f = CoefSeq.cosine(g)
        u0 = random_rough_state(g, 1.5, seed=7, target_l2=0.5)
        frame = NormalFormFrame.from_forcing(f, 1.0)
        res = {}
        for dt in (4e-5, 2e-5):
            res[dt] = normal_form_residual(self._stencil(u0, 1.0, f, 0.2, dt), frame, 0.2, dt)
        assert res[4e-5] < 1e-5
        assert 3.4 < res[4e-5] / res[2e-5] < 4.6

    def test_run_residual_matches_uniform_dt_oracle(self):
        """run_normal_form_residual reaches t - dt in coarse steps; the
        residuals and halving ratio equal those of the all-dt march, and the
        stencil is two steps of exactly dt from t - dt."""
        cfg = replace(default_residual_configs()[1], nf_time=0.05)
        t, f, u0 = cfg.nf_time, forcing_for(cfg), initial_state_for(cfg)
        frame = NormalFormFrame.from_forcing(f, cfg.gamma)
        dts = (cfg.nf_dt, cfg.nf_dt / 2.0)
        oracle = {dt: self._stencil(u0, cfg.gamma, f, t, dt) for dt in dts}
        expected = [normal_form_residual(oracle[dt], frame, t, dt) for dt in dts]
        expected.append(expected[0] / expected[1])

        report = run_normal_form_residual(cfg)
        got = [*report.measured["residuals"].values(), report.measured["halving_ratio"]]
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=0.0)

        params = FlowParams(gamma=cfg.gamma, forcing=f, h=cfg.nf_dt)
        for dt in dts:
            s0, s1, s2 = stencil_states(u0, params, t, dt)
            uniform = replace(params, h=dt)
            np.testing.assert_array_equal(s1.coef, step(s0, t - dt, uniform).coef)
            np.testing.assert_array_equal(s2.coef, step(s1, t, uniform).coef)

    @pytest.mark.parametrize("K", [128, 512, 2048])
    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_exact_time_derivative_matches_identity_rhs(self, K, t):
        """d/dt [z - e^{-gamma t} B(a, a, t)] in closed form at one state,
        with dz/dt from the truncated equation, dy/dt = (gamma - i k^3) y and
        the phase derivative of B a single product, equals the right side
        normal_form_residual compares against, to roundoff."""
        gamma = 0.5
        g = GridSpec(K)
        k = g.modes.astype(np.float64)
        f = random_rough_state(g, 2.0, seed=K + 1, target_l2=1.0)
        u = random_rough_state(g, 1.2, seed=K, target_l2=1.0)
        frame = NormalFormFrame.from_forcing(f, gamma)
        twist = np.exp((gamma - 1j * k**3) * t)
        z = frame.to_z(u, t)
        y = frame.y_at(t)
        a = CoefSeq(g, z.coef + y.coef)

        dz = twist * (-gamma * frame.v.coef - 0.5j * k * product_half(u.coef, u.coef, g))
        dz[0] = 0.0
        da = CoefSeq(g, dz + (gamma - 1j * k**3) * y.coef)
        tilde = a.coef * np.exp(1j * t * k**3)
        phase_deriv = -0.5j * k * np.exp(-1j * t * k**3) * product_half(tilde, tilde, g)

        damp = np.exp(-gamma * t)
        terms = (
            dz,
            gamma * damp * normal_form_bilinear(a, a, t).coef,
            -damp * phase_deriv,
            -2.0 * damp * normal_form_bilinear(a, da, t).coef,
        )
        lhs = sum(terms)
        rhs = _identity_rhs(z, frame, t)
        scale = max(np.max(np.abs(term)) for term in terms)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_zero_trajectory_zero_residual(self):
        g = GridSpec(8)
        f = CoefSeq.zeros(g)
        states = self._stencil(CoefSeq.zeros(g), 1.0, f, 0.01, 1e-3)
        frame = NormalFormFrame.from_forcing(f, 1.0)
        assert normal_form_residual(states, frame, 0.01, 1e-3) == 0.0

    @pytest.mark.parametrize("count", [2, 4])
    def test_stencil_of_other_than_three_states_rejected(self, count):
        # the states are read by position: a stencil too short or too long
        # is an error, not a silent shift of the times
        g = GridSpec(8)
        f = CoefSeq.cosine(g)
        coefs = evolve(CoefSeq.cosine(g), (count - 1) * 1e-3,
                       FlowParams(gamma=1.0, forcing=f, h=1e-3)).coefs
        states = [CoefSeq(g, c) for c in coefs]
        assert len(states) == count
        frame = NormalFormFrame.from_forcing(f, 1.0)
        with pytest.raises(ValueError):
            normal_form_residual(states, frame, 1e-3, 1e-3)

    @pytest.mark.parametrize("K", [8, 24, 32, 64, 128, 2048])
    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.37, 0.5, 2.5])
    def test_twists_are_flow_multipliers(self, K, t):
        """The frame's twist and the antiderivative's phase factor are
        flow.linear_multiplier, bit for bit equal to their closed forms."""
        g = GridSpec(K)
        k = g.modes.astype(np.float64)
        frame = NormalFormFrame(CoefSeq.cosine(g), 0.7)
        np.testing.assert_array_equal(frame._twist(t), np.exp((0.7 - 1j * k**3) * t))
        _, twist = _twisted_antiderivative(CoefSeq.cosine(g), t)
        np.testing.assert_array_equal(twist, np.exp(1j * t * k**3))


class TestSmoothingGap:
    def test_zero_at_time_zero(self):
        g = GridSpec(16)
        f = CoefSeq.cosine(g)
        u0 = random_rough_state(g, 1.0, seed=8, target_l2=1.0)
        traj = evolve(u0, 0.1, FlowParams(gamma=1.0, forcing=f, h=1e-3), sample_every=10)
        gap = smoothing_gap(u0.coef, traj.coefs[:1], traj.times[:1], 1.0, 0.5)
        assert np.array_equal(gap, [0.0])

    def test_zero_data_zero_forcing(self):
        g = GridSpec(16)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=1e-3)
        traj = evolve(CoefSeq.zeros(g), 0.1, params, sample_every=10)
        gaps = smoothing_gap(CoefSeq.zeros(g).coef, traj.coefs, traj.times, 1.0, 0.5)
        assert np.array_equal(gaps, np.zeros(len(traj.times)))

    def test_positive_along_forced_trajectory(self):
        g = GridSpec(32)
        f = CoefSeq.cosine(g)
        u0 = random_rough_state(g, 0.55, seed=7, target_l2=1.0)
        traj = evolve(u0, 0.5, FlowParams(gamma=0.5, forcing=f, h=1e-3), sample_every=100)
        (g05,) = smoothing_gap(u0.coef, traj.coefs[-1:], traj.times[-1:], 0.5, 0.5)
        assert g05 > 0.0

    @staticmethod
    def per_row_gap(u0, c, t, gamma, s):
        """The gap of one state alone: its coefficients minus the damped
        linear flow of u0, as a field, in H^s."""
        g = u0.grid
        return sobolev_norm(CoefSeq(g, c - linear_flow(u0, t, gamma).coef), s)

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("K", [8, 128])
    def test_batch_equals_per_row_expression(self, K, s):
        # every row of the batched gap is the per-state expression bit for
        # bit, from t = 0 and from a restart at a later sample
        g = GridSpec(K)
        f = random_rough_state(g, 2.0, seed=3, target_l2=0.8)
        u0 = random_rough_state(g, 2.5, seed=9, target_l2=1.0)
        traj = evolve(u0, 0.2, FlowParams(gamma=0.5, forcing=f, h=1e-3), sample_every=25)
        t, coefs = traj.times, traj.coefs
        assert t[0] == 0.0
        gaps = smoothing_gap(u0.coef, coefs, t, 0.5, s)
        assert gaps.shape == t.shape
        for i in range(len(t)):
            assert gaps[i] == self.per_row_gap(u0, coefs[i], float(t[i]), 0.5, s)
        i0 = 3
        restart = smoothing_gap(coefs[i0], coefs[i0:], t[i0:] - t[i0], 0.5, s)
        u_restart = CoefSeq(g, coefs[i0])
        for j, i in enumerate(range(i0, len(t))):
            assert restart[j] == self.per_row_gap(u_restart, coefs[i], float(t[i] - t[i0]), 0.5, s)
        assert restart[0] == 0.0
