import gc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fdkdv import flow
from fdkdv.flow import (
    CONVECTIVE_LIMIT,
    FlowParams,
    StepFailureError,
    _etdrk4_coeffs,
    default_step,
    energy_envelope,
    evolve,
    evolve_batch,
    linear_flow,
    linear_multiplier,
    rhs,
    step,
)
from fdkdv.spectral import CoefSeq, GridSpec, product_half, random_rough_state


def cos_params(K=32, gamma=1.0, h=1e-3, **kw):
    g = GridSpec(K)
    return FlowParams(gamma=gamma, forcing=CoefSeq.cosine(g), h=h, **kw)


def full(u):
    """Coefficients k = -K..K of u, the negative side read through mode(k)."""
    return np.array([u.mode(k) for k in range(-u.grid.K, u.grid.K + 1)])


@pytest.fixture
def linear_only(monkeypatch):
    """Switch the quadratic term off, du/dt = (i k^3 - gamma) u + f, by
    zeroing every square the stepper takes."""
    square = flow.product_half

    def no_square(*args, **kwargs):
        y = square(*args, **kwargs)
        y[...] = 0.0
        return y

    monkeypatch.setattr(flow, "product_half", no_square)


class TestLinearMultiplier:
    def test_identity_at_t_zero(self):
        assert linear_multiplier(7, 0.0, 2.0) == 1.0

    def test_half_period_transport(self):
        # k=1, gamma=0 is blocked for FlowParams but fine for the raw factor
        assert linear_multiplier(1, np.pi, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_modulus_is_damping_only(self):
        assert abs(linear_multiplier(1, 1.0, np.log(2.0))) == pytest.approx(0.5, abs=1e-14)
        for k in (1, 5, 17):
            assert abs(linear_multiplier(k, 0.3, 1.2)) == pytest.approx(np.exp(-0.36), abs=1e-13)


class TestLinearFlow:
    def test_t_zero_is_identity(self):
        u0 = random_rough_state(GridSpec(16), 1.0, seed=1, target_l2=1.0)
        assert np.max(np.abs(linear_flow(u0, 0.0, 1.0).coef - u0.coef)) == 0.0

    def test_cosine_half_period(self):
        u0 = CoefSeq.cosine(GridSpec(8))
        v = linear_flow(u0, np.pi, 0.0)
        assert np.max(np.abs(v.coef + u0.coef)) < 1e-12

    def test_exact_norm_decay(self):
        u0 = random_rough_state(GridSpec(32), 1.0, seed=2, target_l2=1.0)
        assert linear_flow(u0, 3.0, 1.0).l2() == pytest.approx(np.exp(-3.0), rel=1e-12)

    def test_preserves_symmetry_and_mean(self):
        u0 = random_rough_state(GridSpec(32), 1.0, seed=3, target_l2=1.0)
        v = linear_flow(u0, 1.7, 0.5)
        assert v.mode(0) == 0
        # the factor at -k is the conjugate of the factor at k
        for k in (-32, -5, -1):
            expected = u0.mode(k) * linear_multiplier(k, 1.7, 0.5)
            assert v.mode(k) == pytest.approx(expected, abs=1e-15)


class TestRhs:
    def test_zero_state_zero_forcing(self):
        g = GridSpec(8)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=1e-3)
        assert np.all(rhs(CoefSeq.zeros(g), params).coef == 0)

    def test_cosine_two_mode_arithmetic(self):
        g = GridSpec(8)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=1e-3)
        d = rhs(CoefSeq.cosine(g), params)
        # mode 2: -(i*2/2) * (u*u)_2 = -(i)(1/4); mode 1: (i - 1)/2
        assert d.mode(2) == pytest.approx(-0.25j, abs=1e-14)
        assert d.mode(1) == pytest.approx((1j - 1.0) / 2.0, abs=1e-14)

    def test_hermitian_for_random_state(self):
        g = GridSpec(16)
        u = random_rough_state(g, 1.0, seed=4, target_l2=1.0)
        params = FlowParams(gamma=0.5, forcing=CoefSeq.cosine(g), h=1e-3)
        d = rhs(u, params)
        # the negative modes, read through mode(-k), match the full-spectrum
        # oracle's own sums at -k
        assert rel_err(full(d), full_rhs(full(u), params)) <= 1e-13
        assert d.mode(0) == 0.0


class TestStep:
    def test_zero_fixed_point(self):
        g = GridSpec(8)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=1e-2)
        out = step(CoefSeq.zeros(g), 0.0, params)
        assert np.all(out.coef == 0)

    def test_semigroup_exact_with_nonlinearity_off(self, linear_only):
        g = GridSpec(16)
        u0 = random_rough_state(g, 1.0, seed=5, target_l2=1.0)
        params = FlowParams(gamma=0.7, forcing=CoefSeq.zeros(g), h=1e-3)
        assert np.array_equal(step(u0, 0.0, params).coef, linear_flow(u0, 1e-3, 0.7).coef)

    def test_richardson_self_convergence_order(self):
        u0 = CoefSeq.cosine(GridSpec(32), amplitude=2.0)

        def final(h):
            params = cos_params(gamma=0.5, h=h)
            return evolve(u0, 1.0, params, sample_every=10**9).coefs[-1]

        sols = {h: final(h) for h in (8e-3, 4e-3, 2e-3, 1e-3)}
        d1 = np.max(np.abs(sols[8e-3] - sols[4e-3]))
        d2 = np.max(np.abs(sols[4e-3] - sols[2e-3]))
        d3 = np.max(np.abs(sols[2e-3] - sols[1e-3]))
        assert np.log2(d1 / d2) > 3.8
        assert np.log2(d2 / d3) > 3.8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_detects_blowup(self):
        g = GridSpec(16)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=0.5)
        u = CoefSeq.cosine(g, amplitude=1e3)
        with pytest.raises(StepFailureError) as info:
            for i in range(20):
                u = step(u, i * 0.5, params)
        assert info.value.time > 0

    def test_preserves_mean_zero_and_symmetry(self):
        g = GridSpec(16)
        u = random_rough_state(g, 1.0, seed=6, target_l2=1.0)
        out = step(u, 0.0, cos_params(K=16))
        assert out.mode(0) == 0.0
        assert out.coef.shape == (17,)


class TestEvolve:
    def test_sample_bookkeeping(self):
        g = GridSpec(8)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=0.01)
        traj = evolve(CoefSeq.cosine(g), 0.05, params, sample_every=1)
        assert traj.coefs.shape == (6, g.size)
        assert np.allclose(traj.times, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05])

    def test_partial_final_step(self):
        g = GridSpec(8)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=0.01)
        traj = evolve(CoefSeq.cosine(g), 0.055, params, sample_every=2)
        assert traj.times[-1] == pytest.approx(0.055)
        assert np.allclose(traj.times[:-1], [0.0, 0.02, 0.04])

    def test_decay_bounded_by_envelope(self):
        # sigma = 2.5 keeps the high-mode stage error under the 1e-6 budget
        # at the default resolution (rougher data needs a smaller step)
        g = GridSpec(64)
        u0 = random_rough_state(g, 2.5, seed=7, target_l2=1.0)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=1e-3)
        traj = evolve(u0, 5.0, params, sample_every=100)
        bound = np.exp(-traj.times) * u0.l2() + 1e-6
        assert np.all(traj.l2_norms <= bound)

    def test_kdv_limit_conserves_l2(self):
        # gamma = f = 0 short-horizon conservation; full-size run in acceptance
        g = GridSpec(64)
        params = FlowParams(gamma=0.0, forcing=CoefSeq.zeros(g), h=1e-3)
        u0 = CoefSeq.cosine(g)
        traj = evolve(u0, 2.0, params, sample_every=500)
        assert abs(traj.l2_norms[-1] - u0.l2()) < 1e-10

    def test_linear_plus_exact_duhamel_for_constant_forcing(self, linear_only):
        g = GridSpec(32)
        f = CoefSeq.cosine(g)
        u0 = CoefSeq.cosine(g)
        gamma, T = 0.7, 3.0
        params = FlowParams(gamma=gamma, forcing=f, h=1e-3)
        traj = evolve(u0, T, params, sample_every=10**9)
        k = g.modes.astype(float)
        lam = 1j * k**3 - gamma
        duhamel = np.where(k != 0, (np.exp(lam * T) - 1.0) / lam, 0.0) * f.coef
        expected = linear_flow(u0, T, gamma).coef + duhamel
        assert np.max(np.abs(traj.coefs[-1] - expected)) < 1e-12

    def test_deterministic(self):
        g = GridSpec(16)
        u0 = random_rough_state(g, 1.0, seed=8, target_l2=1.0)
        t1 = evolve(u0, 0.5, cos_params(K=16), sample_every=50)
        t2 = evolve(u0, 0.5, cos_params(K=16), sample_every=50)
        assert np.array_equal(t1.coefs, t2.coefs)

    def test_samples_by_position(self):
        # the i-th sample is the state at times[i]: every sample_every-th
        # step, then T, each equal to the run that ends there
        g = GridSpec(8)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.cosine(g), h=0.01)
        u0 = CoefSeq.cosine(g)
        traj = evolve(u0, 0.12, params, sample_every=5)
        np.testing.assert_allclose(traj.times, [0.0, 0.05, 0.1, 0.12], rtol=0, atol=1e-15)
        assert np.array_equal(traj.coefs[0], u0.coef) and not traj.coefs.flags.writeable
        for t, c in zip(traj.times[1:], traj.coefs[1:]):
            assert np.array_equal(c, evolve(u0, t, params).coefs[-1])


class TestEtdrk4Scheme:
    def test_richardson_self_convergence_order(self):
        u0 = CoefSeq.cosine(GridSpec(32), amplitude=2.0)

        def final(h):
            params = cos_params(gamma=0.5, h=h, scheme="etdrk4")
            return evolve(u0, 1.0, params, sample_every=10**9).coefs[-1]

        sols = {h: final(h) for h in (8e-3, 4e-3, 2e-3)}
        d1 = np.max(np.abs(sols[8e-3] - sols[4e-3]))
        d2 = np.max(np.abs(sols[4e-3] - sols[2e-3]))
        assert np.log2(d1 / d2) > 3.8

    def test_agrees_with_ifrk4_on_smooth_data(self):
        u0 = CoefSeq.cosine(GridSpec(32))
        finals = {}
        for scheme in ("ifrk4", "etdrk4"):
            params = cos_params(gamma=1.0, h=5e-4, scheme=scheme)
            finals[scheme] = evolve(u0, 1.0, params, sample_every=10**9).coefs[-1]
        assert np.max(np.abs(finals["ifrk4"] - finals["etdrk4"])) < 1e-10

    def test_constant_forcing_duhamel_exact_per_mode(self, linear_only):
        # ETD weights integrate a constant nonlinear load exactly at every k,
        # even where k^3 h >> 1
        g = GridSpec(32)
        f = random_rough_state(g, 2.0, seed=13, target_l2=1.0)
        u0 = random_rough_state(g, 1.0, seed=14, target_l2=1.0)
        gamma, T = 0.7, 0.5
        params = FlowParams(gamma=gamma, forcing=f, h=1e-3, scheme="etdrk4")
        traj = evolve(u0, T, params, sample_every=10**9)
        k = g.modes.astype(float)
        lam = 1j * k**3 - gamma
        duhamel = np.where(k != 0, (np.exp(lam * T) - 1.0) / lam, 0.0) * f.coef
        expected = linear_flow(u0, T, gamma).coef + duhamel
        assert np.max(np.abs(traj.coefs[-1] - expected)) < 1e-12

    def test_stable_on_rough_data_where_ifrk4_saturates(self):
        g = GridSpec(64)
        u0 = random_rough_state(g, 1.0, seed=7, target_l2=1.0)
        params = FlowParams(
            gamma=1.0, forcing=CoefSeq.zeros(g), h=1e-3, scheme="etdrk4"
        )
        traj = evolve(u0, 5.0, params, sample_every=100)
        bound = np.exp(-traj.times) * u0.l2() + 1e-6
        assert np.all(traj.l2_norms <= bound)

    def test_rejects_unknown_scheme(self):
        g = GridSpec(8)
        with pytest.raises(ValueError):
            FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=1e-3, scheme="rk4")


# Full-spectrum oracle: the flow on raw -K..K arrays, with the quadratic term
# from np.convolve (modes -2K..2K, truncated to -K..K) and both schemes
# written out.
def full_modes(params):
    return np.arange(-params.grid.K, params.grid.K + 1, dtype=np.float64)


def full_nonlinear(coef, params):
    K = params.grid.K
    k = full_modes(params)
    out = -0.5j * k * np.convolve(coef, coef)[K : 3 * K + 1] + full(params.forcing)
    out[params.grid.K] = 0.0
    return out


def full_rhs(coef, params):
    k = full_modes(params)
    d = (1j * k**3 - params.gamma) * coef + full_nonlinear(coef, params)
    d[params.grid.K] = 0.0
    return d


def full_step(coef, params, h):
    k = full_modes(params)
    lam = 1j * k**3 - params.gamma
    E, E2 = np.exp(lam * (h / 2.0)), np.exp(lam * h)

    def N(c):
        return full_nonlinear(c, params)

    if params.scheme == "ifrk4":
        n1 = N(coef)
        n2 = N((coef + (h / 2.0) * n1) * E)
        n3 = N(coef * E + (h / 2.0) * n2)
        n4 = N(coef * E2 + h * (n3 * E))
        out = coef * E2 + (h / 6.0) * (n1 * E2 + 2.0 * ((n2 + n3) * E) + n4)
    else:
        Q, f1, f2, f3 = _etdrk4_coeffs(lam, h)
        n0 = N(coef)
        a = coef * E + Q * n0
        na = N(a)
        nb = N(coef * E + Q * na)
        nc = N(a * E + Q * (2.0 * nb - n0))
        out = coef * E2 + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
    out[params.grid.K] = 0.0
    return out


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def assert_mean_zero(u):
    assert u.mode(0) == 0.0


def rough_sigma(K, scheme):
    # IFRK4 saturates on sigma = 1.2 data at K = 128 (it blows up near
    # t = 0.2), so that case runs on smoother data
    return 2.5 if (K, scheme) == (128, "ifrk4") else 1.2


class TestHalfSpectrumOracle:
    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("K", [8, 33, 128])
    def test_step_rhs_evolve_match_full_spectrum(self, K, scheme):
        g = GridSpec(K)
        f = random_rough_state(g, 2.0, seed=3, target_l2=0.8)
        params = FlowParams(gamma=0.6, forcing=f, h=1e-3, scheme=scheme)
        u0 = random_rough_state(g, rough_sigma(K, scheme), seed=4, target_l2=1.5)
        t = 0.05
        u = CoefSeq(g, evolve(u0, t, params, sample_every=10**9).coefs[-1])

        out = step(u, t, params)
        assert rel_err(full(out), full_step(full(u), params, params.h)) <= 1e-13
        assert_mean_zero(out)

        d = rhs(u, params)
        assert rel_err(full(d), full_rhs(full(u), params)) <= 1e-13
        assert_mean_zero(d)

        # twelve full steps and a shortened last one
        traj = evolve(u, 12.5 * params.h, params, sample_every=4)
        ref = full(u)
        for _ in range(12):
            ref = full_step(ref, params, params.h)
        ref = full_step(ref, params, 0.5 * params.h)
        assert rel_err(full(CoefSeq(g, traj.coefs[-1])), ref) <= 1e-13
        assert np.all(traj.coefs[:, 0] == 0.0)


class TestEvolveBatch:
    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("K", [17, 64, 128])
    def test_members_bit_identical_to_solo_runs(self, K, scheme):
        g = GridSpec(K)
        params = FlowParams(gamma=0.5, forcing=CoefSeq.cosine(g), h=1e-3, scheme=scheme)
        members = [
            random_rough_state(g, rough_sigma(K, scheme), seed=seed, target_l2=l2)
            for seed, l2 in zip((11, 12, 13, 14), (0.5, 1.0, 2.0, 4.0))
        ]
        batch = evolve_batch(members, 0.1505, params, sample_every=37)
        assert len(batch) == len(members)
        for u0, got in zip(members, batch):
            solo = evolve(u0, 0.1505, params, sample_every=37)
            assert np.array_equal(got.times, solo.times)
            assert np.array_equal(got.dense_times, solo.dense_times)
            assert np.array_equal(got.dense_l2, solo.dense_l2)
            assert np.array_equal(got.coefs, solo.coefs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_names_member_at_its_solo_time(self):
        g = GridSpec(16)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=0.05)
        members = [
            CoefSeq.cosine(g, amplitude=0.1),
            CoefSeq.cosine(g, amplitude=1e3),
            random_rough_state(g, 2.0, seed=3, target_l2=0.2),
        ]
        for i in (0, 2):  # the other members survive the whole run on their own
            evolve(members[i], 2.0, params)
        with pytest.raises(StepFailureError) as solo:
            evolve(members[1], 2.0, params)
        with pytest.raises(StepFailureError) as batch:
            evolve_batch(members, 2.0, params)
        assert batch.value.member == 1
        assert batch.value.time == solo.value.time
        assert "member 1" in str(batch.value)

    def test_rejects_bad_input(self):
        g = GridSpec(8)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.zeros(g), h=1e-2)
        with pytest.raises(ValueError):
            evolve_batch((), 0.1, params)
        with pytest.raises(ValueError, match="grid mismatch"):
            evolve_batch((CoefSeq.cosine(GridSpec(9)),), 0.1, params)


# Allocating reference on half-spectrum batches: the stepper's folded
# expressions written out with one numpy temporary per operation.  The
# buffered solver must match it bit for bit.
def ref_step(c, params, h):
    g = params.grid
    k = np.arange(g.K + 1, dtype=np.float64)
    lam = 1j * k**3 - params.gamma
    cv, f = -0.5j * k, params.forcing.coef
    E, E2 = np.exp(lam * (h / 2.0)), np.exp(lam * h)

    def sq(c):
        return product_half(c, c, g)

    if params.scheme == "ifrk4":
        C1, F1 = (h / 2.0) * E * cv, (h / 2.0) * E * f
        C2, F2 = (h / 2.0) * cv, (h / 2.0) * f
        C3, F3 = h * E * cv, h * E * f
        W1, W23, W4 = (h / 6.0) * E2 * cv, (h / 3.0) * E * cv, (h / 6.0) * cv
        Fs = (h / 6.0) * (E2 + 4.0 * E + 1.0) * f
        cE, cE2 = c * E, c * E2
        y1 = sq(c)
        y2 = sq(cE + C1 * y1 + F1)
        y3 = sq(cE + C2 * y2 + F2)
        y4 = sq(cE2 + C3 * y3 + F3)
        out = cE2 + W1 * y1 + W23 * (y2 + y3) + W4 * y4 + Fs
    else:
        Q, f1, f2, f3 = _etdrk4_coeffs(lam, h)
        QC, QF = Q * cv, Q * f
        W0, Wab, Wc = f1 * cv, 2.0 * f2 * cv, f3 * cv
        Fs = (f1 + 4.0 * f2 + f3) * f
        cE = c * E
        y0 = sq(c)
        a = cE + QC * y0 + QF
        ya = sq(a)
        yb = sq(cE + QC * ya + QF)
        yc = sq(a * E + QC * (2.0 * yb - y0) + QF)
        out = c * E2 + W0 * y0 + Wab * (ya + yb) + Wc * yc + Fs
    out[:, 0] = 0.0
    return out


# The same step as the schemes are published, with N(c) = -(i k / 2)(u^2)_k
# + f_k formed at every stage: the oracle the folded step must meet to
# roundoff.
def n_form_step(c, params, h):
    g = params.grid
    k = np.arange(g.K + 1, dtype=np.float64)
    lam = 1j * k**3 - params.gamma
    convect = -0.5j * k
    E, E2 = np.exp(lam * (h / 2.0)), np.exp(lam * h)

    def N(c):
        return convect * product_half(c, c, g) + params.forcing.coef

    if params.scheme == "ifrk4":
        cE2 = c * E2
        n1 = N(c)
        n2 = N((c + (h / 2.0) * n1) * E)
        n3 = N(c * E + (h / 2.0) * n2)
        n4 = N(cE2 + h * (n3 * E))
        out = cE2 + (h / 6.0) * (n1 * E2 + 2.0 * ((n2 + n3) * E) + n4)
    else:
        Q, f1, f2, f3 = _etdrk4_coeffs(lam, h)
        ch = c * E
        n0 = N(c)
        a = ch + Q * n0
        na = N(a)
        nb = N(ch + Q * na)
        nc = N(a * E + Q * (2.0 * nb - n0))
        out = c * E2 + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
    out[:, 0] = 0.0
    return out


def ref_sq_norms(c, params):
    """Squared l2 norms of a batch as the k = 0 slots of its squares."""
    return product_half(c, c, params.grid)[:, 0].real


def ref_half_sq(c):
    v = c[:, 1:].view(np.float64)
    return np.einsum("ij,ij->i", v, v)


def ref_steps(c, params, T):
    """(step index, time, batch) after each step of a run to T: full steps
    of params.h, then a shortened last one landing on T."""
    h = params.h
    n_full = int(np.floor(T / h + 1e-9))
    for i in range(1, n_full + 1):
        c = ref_step(c, params, h)
        yield i, i * h, c
    if T - n_full * h > 1e-12 * max(T, 1.0):
        yield n_full + 1, T, ref_step(c, params, T - n_full * h)


def ref_first_failure(states, params, T):
    """(time, member) of the first non-finite state of a run to T checked
    after every step, or None."""
    for _, t, c in ref_steps(np.stack([u.coef for u in states]), params, T):
        ok = np.isfinite(ref_half_sq(c))
        if not ok.all():
            return t, int(np.argmin(ok))
    return None


class TestBufferedKernelOracle:
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("K", [8, 64])
    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_step_and_evolve_batch_bit_identical(self, scheme, K, M):
        g = GridSpec(K)
        f = random_rough_state(g, 2.0, seed=3, target_l2=0.8)
        params = FlowParams(gamma=0.6, forcing=f, h=1e-3, scheme=scheme)
        u0s = [random_rough_state(g, 1.2, seed=seed, target_l2=1.5) for seed in range(20, 20 + M)]
        c0 = np.stack([u.coef for u in u0s])

        for m, u in enumerate(u0s):
            for h in (params.h, 0.37 * params.h):
                ref = ref_step(c0[m : m + 1], params, h)[0]
                assert np.array_equal(step(u, 0.25, params, h).coef, ref)

        # full steps, then a shortened last step
        n_full = 130
        T = (n_full + 0.5) * params.h
        ref = list(ref_steps(c0, params, T))
        assert len(ref) == n_full + 1 and ref[-1][1] == T
        sampled = [r for r in ref[:-1] if r[0] % 37 == 0] + [ref[-1]]
        # each state's norm comes from the first square of the step it
        # starts; the final state starts none and is summed directly
        dense_sq = np.array(
            [ref_sq_norms(c0, params)] + [ref_sq_norms(c, params) for _, _, c in ref[:-1]]
            + [2.0 * ref_half_sq(ref[-1][2])]
        )
        for m, traj in enumerate(evolve_batch(u0s, T, params, sample_every=37)):
            assert np.array_equal(traj.times, [0.0] + [t for _, t, _ in sampled])
            assert np.array_equal(traj.dense_times, [0.0] + [t for _, t, _ in ref])
            assert np.array_equal(traj.dense_l2, np.sqrt(dense_sq[:, m]))
            assert np.array_equal(traj.coefs, [c0[m]] + [c[m] for _, _, c in sampled])


class TestFoldedWeights:
    """The stages take the raw squares (u^2)_k with -i k / 2 and the forcing
    folded into their weights; the unfolded N-form scheme is the oracle."""

    @pytest.mark.parametrize("K", [8, 64])
    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_agrees_with_n_form_step(self, scheme, K):
        g = GridSpec(K)
        f = random_rough_state(g, 2.0, seed=3, target_l2=0.8)
        params = FlowParams(gamma=0.6, forcing=f, h=1e-3, scheme=scheme)
        u0s = [random_rough_state(g, 1.2, seed=seed, target_l2=1.5) for seed in (20, 21, 22)]
        # states at t = 0.05
        us = [CoefSeq(g, traj.coefs[-1])
              for traj in evolve_batch(u0s, 0.05, params, sample_every=10**9)]
        c = np.stack([u.coef for u in us])
        for h in (params.h, 0.37 * params.h):
            ref = n_form_step(c, params, h)
            for u, row in zip(us, ref):
                assert rel_err(step(u, 0.05, params, h).coef, row) <= 1e-13
        ref = c
        for _ in range(12):
            ref = n_form_step(ref, params, params.h)
        ref = n_form_step(ref, params, 0.5 * params.h)
        for traj, row in zip(evolve_batch(us, 12.5 * params.h, params, sample_every=5), ref):
            assert rel_err(traj.coefs[-1], row) <= 1e-13


@pytest.mark.parametrize("coarsen", [False, True])
@pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
def test_per_step_work_is_four_squares(monkeypatch, scheme, coarsen):
    # four squares per step, and one direct norm sum per run (the final
    # state's), not one per step
    calls = dict.fromkeys(("product_half", "_half_sq_norms"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(flow, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(flow, name, counted)
    params, members = coarse_case()
    params = replace(params, scheme=scheme)
    trajs = evolve_batch(members, 200.5 * params.h, params, sample_every=8, coarsen=coarsen)
    steps = len(trajs[0].dense_times) - 1
    assert steps == sum(trajs[0].step_counts.values())
    assert calls == {"product_half": 4 * steps, "_half_sq_norms": 1}


@pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
def test_kernels_are_freed_with_their_last_reference(scheme):
    # no reference cycle: a run's work arrays go when its kernels do, not
    # when the cyclic collector next runs
    params = replace(coarse_case()[0], scheme=scheme)
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel = flow._Stepper(params, params.h, 2)
        longer = kernel.at_step(2 * params.h)
        refs = [weakref.ref(kernel), weakref.ref(longer)]
        del kernel, longer
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def step_log(monkeypatch):
    """(step size, max|u| of the state it starts from) of every step taken
    from now on; max|u| is read from the batch's physical values directly."""
    log = []
    finish = flow._Stepper.finish

    def logged(self, c, out):
        u = np.fft.irfft(c, n=self.grid.P, norm="forward")
        log.append((self.h, float(np.max(np.abs(u)))))
        return finish(self, c, out)

    monkeypatch.setattr(flow._Stepper, "finish", logged)
    return log


def coarse_case(K=32, h=4e-3, amplitude=1.0):
    """A forced ETDRK4 pair whose l2 = 4 member's transient holds the step
    at h while the settled batch runs at 2h and 4h."""
    g = GridSpec(K)
    params = FlowParams(gamma=1.0, forcing=CoefSeq.cosine(g, amplitude=amplitude), h=h,
                        scheme="etdrk4")
    members = [random_rough_state(g, 1.2, seed=s, target_l2=l2) for s, l2 in ((1, 0.5), (2, 4.0))]
    return params, members


def assert_runs_equal(a, b):
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x.times, y.times)
        assert np.array_equal(x.dense_times, y.dense_times)
        assert np.array_equal(x.dense_l2, y.dense_l2)
        assert np.array_equal(x.coefs, y.coefs)


class TestCoarsenedBatch:
    """evolve_batch(..., coarsen=True): steps of h * 2^j under the convective
    limit, dividing the stride, sampled at the fixed-step times."""

    def test_sample_times_are_the_fixed_step_times(self):
        params, members = coarse_case()
        h = params.h
        T = 600.5 * h  # a shortened last step of h / 2 lands on T
        fixed = evolve_batch(members, T, params, sample_every=24)
        coarse = evolve_batch(members, T, params, sample_every=24, coarsen=True)
        for x, y in zip(coarse, fixed):
            assert np.array_equal(x.times, y.times)
            assert x.times[-1] == T and x.dense_times[-1] == T
            assert set(x.dense_times) <= set(y.dense_times)
            assert x.dense_l2.shape == x.dense_times.shape
        counts = coarse[0].step_counts
        assert set(counts) == {T - 600 * h, h, 2 * h, 4 * h}
        assert counts[T - 600 * h] == 1
        assert sum(n * round(size / h) for size, n in counts.items() if size >= h) == 600
        assert sum(counts.values()) == len(coarse[0].dense_times) - 1 < 600
        assert fixed[0].step_counts == {T - 600 * h: 1, h: 600}
        assert fixed[0].max_convective is None

    def test_odd_stride_is_the_fixed_run_to_the_bit(self):
        params, members = coarse_case()
        T = 300.5 * params.h
        coarse = evolve_batch(members, T, params, sample_every=37, coarsen=True)
        assert_runs_equal(coarse, evolve_batch(members, T, params, sample_every=37))
        assert set(coarse[0].step_counts) == {T - 300 * params.h, params.h}

    def test_no_room_under_the_limit_is_the_fixed_run_to_the_bit(self, step_log):
        # at K = 16, h = 0.03 and a forcing of amplitude 2, 2h * K * max|u|
        # stays above the limit at every step
        params, members = coarse_case(K=16, h=0.03, amplitude=2.0)
        T = 300 * params.h
        coarse = evolve_batch(members, T, params, sample_every=24, coarsen=True)
        assert len(step_log) == 300
        assert min(2 * h * 16 * umax for h, umax in step_log) > CONVECTIVE_LIMIT
        assert_runs_equal(coarse, evolve_batch(members, T, params, sample_every=24))

    def test_long_steps_are_aligned_and_under_the_limit(self, step_log):
        params, members = coarse_case()
        h, K = params.h, params.grid.K
        (traj, _) = evolve_batch(members, 600 * h, params, sample_every=24, coarsen=True)
        starts = np.rint(traj.dense_times[:-1] / h).astype(int)
        assert len(step_log) == len(starts)
        sizes = [round(size / h) for size, _ in step_log]
        assert np.array_equal(np.diff(np.rint(traj.dense_times / h)), sizes)
        assert {1, 2, 4} == set(sizes)
        for start, n, (size, umax) in zip(starts, sizes, step_log):
            if n > 1:
                assert start % n == 0 and 24 % n == 0
                assert size * K * umax <= CONVECTIVE_LIMIT
        # the transient is what holds a step at h
        assert traj.max_convective == pytest.approx(max(s * K * u for s, u in step_log))
        assert traj.max_convective > CONVECTIVE_LIMIT


@pytest.fixture(scope="module")
def blowup_states():
    """Per-step states of a forced K = 16 run at h = 0.05 up to the last
    finite one: a member started at states[-j] first fails at its step j."""
    g = GridSpec(16)
    params = FlowParams(gamma=0.0, forcing=CoefSeq.cosine(g, amplitude=1.2), h=0.05)
    states = [CoefSeq.zeros(g)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _, _, c in ref_steps(states[0].coef[None], params, 1000 * params.h):
            if not np.isfinite(ref_half_sq(c)).all():
                return params, states
            states.append(CoefSeq(g, c[0]))
    raise AssertionError("the forced run did not blow up")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestHealthCheck:
    """A blow-up names the time and member of the first non-finite state,
    as the reference's check after every step does."""

    @pytest.mark.parametrize(
        "j, n_steps",
        [
            (7, 12),  # a full step
            (7, 6.5),  # the shortened last step
        ],
    )
    def test_failure_time_and_member_match_reference(self, blowup_states, j, n_steps):
        params, states = blowup_states
        # member 0 fails two steps after member 1
        members = [states[-j - 2], states[-j], states[10]]
        T = n_steps * params.h
        ref = ref_first_failure(members, params, T)
        assert ref == (min(j * params.h, T), 1)
        with pytest.raises(StepFailureError) as info:
            evolve_batch(members, T, params)
        assert (info.value.time, info.value.member) == ref

    @pytest.mark.parametrize("coarsen", [False, True])
    def test_failure_between_samples_matches_reference(self, blowup_states, coarsen):
        # at stride 5 the first non-finite state, member 1's at step 7, is
        # no sample; the check at the sample of step 10 finds it (member 0
        # fails later, at step 9, also between samples)
        params, states = blowup_states
        members = [states[-9], states[-7], states[10]]
        T = 12 * params.h
        ref = ref_first_failure(members, params, T)
        assert ref == (7 * params.h, 1)
        with pytest.raises(StepFailureError) as info:
            evolve_batch(members, T, params, sample_every=5, coarsen=coarsen)
        assert (info.value.time, info.value.member) == ref

    def test_failing_sampled_state_raises_step_failure(self, blowup_states):
        # the non-finite state is due for recording; the check comes first,
        # so this is StepFailureError, not CoefSeq's non-finite ValueError
        params, states = blowup_states
        members = [states[-5], states[-3]]
        T = 10 * params.h
        assert ref_first_failure(members, params, T) == (3 * params.h, 1)
        with pytest.raises(StepFailureError) as info:
            evolve_batch(members, T, params, sample_every=3)
        assert info.value.time == 3 * params.h
        assert info.value.member == 1


    def test_coarsened_blowup_names_member_and_time(self, step_log):
        # IFRK4 at K = 16, h = 0.05 under a growing forced flow: the small
        # start allows a step of 8h, then the batch fails at full steps
        g = GridSpec(16)
        params = FlowParams(gamma=0.0, forcing=CoefSeq.cosine(g, amplitude=1.2), h=0.05)
        members = [CoefSeq.zeros(g), CoefSeq.cosine(g, amplitude=0.01)]
        with pytest.raises(StepFailureError) as info:
            evolve_batch(members, 50.0, params, sample_every=8, coarsen=True)
        sizes = [round(size / params.h) for size, _ in step_log]
        assert sizes[0] == 8 and set(sizes[1:]) == {1}
        assert info.value.time == sum(sizes) * params.h == 6.4
        assert info.value.member == 1
        assert "batch member 1 at t = 6.4;" in str(info.value)

    def test_blowup_raises_without_numpy_warnings(self, blowup_states):
        # the overflow that precedes a non-finite state is the solver's to
        # report, not numpy's
        params, states = blowup_states
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError):
                evolve_batch([states[-3]], 10 * params.h, params)
            with pytest.raises(StepFailureError):
                step(states[-1], 0.0, params)


class TestEnergyEnvelope:
    def test_initial_value(self):
        assert energy_envelope(0.0, 1.7, 2.0, 0.5) == pytest.approx(1.7)

    def test_pure_decay(self):
        assert energy_envelope(1.0, 1.0, 0.0, 1.0) == pytest.approx(np.exp(-1.0))

    def test_asymptote(self):
        assert energy_envelope(300.0, 5.0, 1.0, 2.0) == pytest.approx(0.5)

    def test_monotone_between_endpoints(self):
        ts = np.linspace(0, 10, 101)
        vals = [energy_envelope(t, 2.0, 1.0, 1.0) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))  # decreasing to 1.0
        assert vals[-1] >= 1.0 - 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            energy_envelope(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            energy_envelope(np.array([0.0, -1e-3]), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            energy_envelope(1.0, 1.0, 1.0, -0.5)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_array_equals_scalar_calls(self, gamma):
        ts = np.linspace(0.0, 20.0, 2001)
        env = energy_envelope(ts, 1.3, 0.7, gamma)
        assert env.shape == ts.shape
        assert np.array_equal(env, [energy_envelope(t, 1.3, 0.7, gamma) for t in ts])
        assert isinstance(energy_envelope(ts[5], 1.3, 0.7, gamma), float)

    def test_small_gamma_t_keeps_the_forcing_growth(self):
        # 1 - e^{-gamma t} by subtraction cancels to 0 below gamma t ~ 1e-16;
        # the envelope must still grow like ||u0|| + ||f|| t there
        assert energy_envelope(1.0, 1.0, 0.5, 1e-17) == 1.5
        assert energy_envelope(np.array([2.0]), 1.0, 0.5, 1e-300)[0] == 2.0

    def test_undamped_limit(self):
        # gamma = 0: the norm grows at most linearly, ||u0|| + ||f|| t
        ts = np.linspace(0.0, 5.0, 11)
        assert np.array_equal(energy_envelope(ts, 1.5, 0.25, 0.0), 1.5 + 0.25 * ts)
        assert energy_envelope(2.0, 1.5, 0.0, 0.0) == 1.5


class TestFlowParams:
    def test_rejects_negative_gamma(self):
        g = GridSpec(8)
        with pytest.raises(ValueError, match="gamma"):
            FlowParams(gamma=-1.0, forcing=CoefSeq.zeros(g), h=1e-3)

    def test_kdv_limit_factory(self):
        # the undamped limit goes through the same validation as gamma > 0
        params = FlowParams(gamma=0.0, forcing=CoefSeq.zeros(GridSpec(8)), h=1e-3)
        assert params.gamma == 0.0

    def test_default_step(self):
        assert default_step(128) == pytest.approx(1e-3)
        assert default_step(1000) == pytest.approx(5e-4)
