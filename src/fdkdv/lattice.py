"""Exhaustive and randomized frequency-lattice checks.

The cubic remainder's convergence rests on integer facts about the phase
(k1+k2)(k1+k3)(k2+k3) on the hyperplane k1+k2+k3+k4 = 0: two polynomial
identities, a lower bound of the phase against each |k_i|, and the
boundedness of a weighted multiplier ratio.  Everything here is checked by
direct enumeration (exact integers for the identities, float ratios for the
inequalities), with suprema regenerated rather than hand-entered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .normal_form import normal_form_bilinear
from .spectral import CoefSeq, GridSpec, sobolev_norm

# int64 stays exact for the vectorized paths up to this radius:
# 3*(2R)^3 and (3R)^3 terms must stay below 2^63.
_INT64_SAFE_RADIUS = 100_000

EPS_LIMIT = 1.0 / 22.0  # the exponent bookkeeping needs 1/2 - 11*eps > 0


@dataclass(frozen=True)
class LatticeBudget:
    """Search radius |k_i| <= K, Sobolev index s, and exponent parameter eps."""

    K: int
    s: float
    eps: float = 0.01

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.s < 0:
            raise ValueError(f"s must be >= 0, got {self.s}")
        if not 0.0 < self.eps < EPS_LIMIT:
            raise ValueError(f"eps must lie in (0, 1/22), got {self.eps}")


def cubic_phase(k1: int, k2: int) -> int:
    """3(k1+k2)k1k2, asserted equal to (k1+k2)^3 - k1^3 - k2^3 exactly.

    Runs on Python integers, so there is no overflow at any radius.
    """
    k1, k2 = int(k1), int(k2)
    value = 3 * (k1 + k2) * k1 * k2
    expansion = (k1 + k2) ** 3 - k1**3 - k2**3
    if value != expansion:
        raise AssertionError(f"cubic phase identity failed at ({k1}, {k2})")
    return value


def quartic_phase(k1: int, k2: int, k3: int) -> int:
    """3(k1+k2)(k1+k3)(k2+k3) with k4 = -(k1+k2+k3), asserted equal to
    -(k1^3 + k2^3 + k3^3 + k4^3) exactly (Python integers)."""
    k1, k2, k3 = int(k1), int(k2), int(k3)
    k4 = -(k1 + k2 + k3)
    value = 3 * (k1 + k2) * (k1 + k3) * (k2 + k3)
    expansion = -(k1**3 + k2**3 + k3**3 + k4**3)
    if value != expansion:
        raise AssertionError(f"quartic phase identity failed at ({k1}, {k2}, {k3})")
    return value


def verify_cubic_phase_exhaustive(radius: int) -> int:
    """Check the cubic identity for every pair |k1|,|k2| <= radius; returns
    the number of pairs checked."""
    if radius > _INT64_SAFE_RADIUS:
        raise ValueError(
            f"radius {radius} exceeds the int64-exact range; use the sampled check"
        )
    k = np.arange(-radius, radius + 1, dtype=np.int64)
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    lhs = 3 * (K1 + K2) * K1 * K2
    rhs = (K1 + K2) ** 3 - K1**3 - K2**3
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)[0]
        raise AssertionError(f"cubic phase identity failed at {tuple(k[bad])}")
    return int(K1.size)


def verify_quartic_phase_exhaustive(radius: int) -> int:
    """Check the quartic identity for every triple |k_i| <= radius.

    The identity is symmetric in (k1, k2, k3), so enumeration fixes k1 as the
    minimum (pure slicing, no masks) and covers each unordered triple at
    least once; returns the number of ordered-representative triples.
    """
    if radius > _INT64_SAFE_RADIUS:
        raise ValueError(
            f"radius {radius} exceeds the int64-exact range; use the sampled check"
        )
    k = np.arange(-radius, radius + 1, dtype=np.int64)
    cube = k**3
    checked = 0
    for i1, k1 in enumerate(k):
        k2 = k[i1:]
        k3 = k[i1:]
        s23 = k2[:, None] + k3[None, :]
        lhs = 3 * (k1 + k2)[:, None] * (k1 + k3)[None, :] * s23
        k4 = -(k1 + s23)
        rhs = -(cube[i1] + cube[i1:][:, None] + cube[i1:][None, :] + k4**3)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            raise AssertionError(
                f"quartic phase identity failed at ({k1}, {k2[bad[0]]}, {k3[bad[1]]})"
            )
        checked += lhs.size
    return checked


def verify_cubic_phase_sampled(radius: int, trials: int, seed: int) -> int:
    """Spot-check the cubic identity at wide-integer pairs up to |k| <= radius."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        k1, k2 = (int(x) for x in rng.integers(-radius, radius + 1, size=2))
        cubic_phase(k1, k2)
    return trials


def verify_quartic_phase_sampled(radius: int, trials: int, seed: int) -> int:
    """Spot-check the quartic identity at wide-integer triples up to |k| <= radius."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        k1, k2, k3 = (int(x) for x in rng.integers(-radius, radius + 1, size=3))
        quartic_phase(k1, k2, k3)
    return trials


def _admissible_scan(K: int):
    """Yield per-k1 grids of the admissible lattice: nonzero k1, k2, k3 with
    all three pair sums nonzero and k4 = -(k1+k2+k3) nonzero."""
    k = np.arange(-K, K + 1, dtype=np.int64)
    k = k[k != 0]
    K2, K3 = np.meshgrid(k, k, indexing="ij")
    s23 = K2 + K3
    for k1 in k:
        f12 = k1 + K2
        f13 = k1 + K3
        k4 = -(k1 + s23)
        valid = (f12 != 0) & (f13 != 0) & (s23 != 0) & (k4 != 0)
        yield int(k1), K2, K3, k4, f12, f13, s23, valid


def _lattice_extremum(K: int, ratio, largest: bool):
    """Extremum of ratio(k1, K2, K3, k4, product) over the admissible lattice,
    with product = |k1+k2||k1+k3||k2+k3| as floats (1 off the lattice, where
    the ratio is ignored).  Returns (value, witness_quadruple); ties go to
    the first quadruple in scan order.
    """
    sign = 1.0 if largest else -1.0
    best = -np.inf
    witness = None
    for k1, K2, K3, k4, f12, f13, s23, valid in _admissible_scan(K):
        if not valid.any():
            continue
        product = np.where(valid, np.abs(f12 * f13 * s23), 1).astype(np.float64)
        r = np.where(valid, sign * ratio(k1, K2, K3, k4, product), -np.inf)
        i = np.unravel_index(np.argmax(r), r.shape)
        if r[i] > best:
            best = float(r[i])
            witness = (k1, int(K2[i]), int(K3[i]), int(k4[i]))
    return sign * best, witness


def resonance_factor_min_ratio(K: int):
    """min over the admissible lattice and i of |k1+k2||k1+k3||k2+k3| / |k_i|.

    The minimum is attained at small wavenumbers and is bounded below by a
    K-independent constant (each factor is a nonzero integer, and the largest
    |k_i| is at most 3/2 of the largest factor times the other two).
    Returns (min_ratio, witness_quadruple).
    """

    def ratio(k1, K2, K3, k4, product):
        kmax = np.maximum(np.maximum(abs(k1), np.abs(K2)), np.maximum(np.abs(K3), np.abs(k4)))
        return product / kmax.astype(np.float64)

    return _lattice_extremum(K, ratio, largest=False)


def smoothing_multiplier_sup(budget: LatticeBudget):
    """sup of |k4|^s |k1 k2 k3 k4|^eps / (|k1| (|k1+k2||k1+k3||k2+k3|)^{1/2-7eps})
    over the admissible lattice; returns (sup, witness_quadruple).

    Boundedness of this ratio is what lets the cubic remainder absorb the
    |k|^s weight; the sup must stay (nearly) constant as K doubles.
    """
    s, eps = budget.s, budget.eps
    expo = 0.5 - 7.0 * eps

    def ratio(k1, K2, K3, k4, product):
        num = np.abs(k4).astype(np.float64) ** s * (
            np.abs(k1 * K2 * K3 * k4).astype(np.float64) ** eps
        )
        return num / (abs(k1) * product**expo)

    return _lattice_extremum(budget.K, ratio, largest=True)


def _random_hermitian(grid: GridSpec, rng: np.random.Generator) -> CoefSeq:
    decay = rng.uniform(0.0, 1.5)
    z = rng.normal(size=(grid.K, 2))
    half = np.zeros(grid.K + 1, dtype=np.complex128)
    # scalar powers: numpy's array power can differ from them in the last bit
    half[1:] = (z[:, 0] + 1j * z[:, 1]) * np.array([k**-decay for k in range(1, grid.K + 1)])
    return CoefSeq(grid, half)


def _bilinear_ratio(u: CoefSeq, v: CoefSeq, s: float) -> float:
    nu, nv = u.l2(), v.l2()
    if nu == 0.0 or nv == 0.0:
        return 0.0  # degenerate trial, skipped by the caller
    return sobolev_norm(normal_form_bilinear(u, v), s) / (nu * nv)


def _ascend(u: CoefSeq, v: CoefSeq, s: float, min_step: float = 2e-3):
    """Greedy coordinate ascent of the bilinear ratio: perturb one mode
    k >= 1 of u or v at a time (real or imaginary part), keep improvements,
    shrink the step when a sweep stalls."""
    grid = u.grid
    best = _bilinear_ratio(u, v, s)
    step = 0.5
    while step > min_step:
        improved = False
        for which in (0, 1):
            target = u if which == 0 else v
            c = target.coef.copy()
            for k in range(1, grid.K + 1):
                for delta in (step, -step, step * 1j, -step * 1j):
                    c2 = c.copy()
                    c2[k] += delta
                    cand = CoefSeq(grid, c2)
                    pair = (cand, v) if which == 0 else (u, cand)
                    r = _bilinear_ratio(*pair, s)
                    if r > best * (1.0 + 1e-12):
                        best = r
                        c = c2
                        improved = True
            if which == 0:
                u = CoefSeq(grid, c)
            else:
                v = CoefSeq(grid, c)
        if not improved:
            step /= 2.0
    return best, u, v


def _embed(u: CoefSeq, grid: GridSpec) -> CoefSeq:
    """Zero-pad a state onto a finer grid; the bilinear ratio is unchanged."""
    c = np.zeros(grid.size, dtype=np.complex128)
    c[: u.grid.size] = u.coef
    return CoefSeq(grid, c)


def bilinear_norm_constant(budget: LatticeBudget, trials: int = 200, seed: int = 0) -> float:
    """Estimate sup ||B(u,v)||_{H^s} / (||u|| ||v||) by random Hermitian
    trials plus greedy coordinate ascent from the best trial: a one-rung
    :func:`bilinear_constant_ladder`.

    Zero-norm trials are degenerate and skipped (ratio treated as 0).
    Deterministic in (trials, seed).
    """
    if budget.s >= 1.0:
        raise ValueError("the bilinear bound is for s < 1")
    return bilinear_constant_ladder([budget.K], budget.s, trials=trials, seed=seed)[0]


def bilinear_constant_ladder(k_values, s: float, trials: int = 200, seed: int = 0) -> list[float]:
    """Estimate the bilinear constant over increasing truncations: per rung,
    the best of a deterministic two-mode start and `trials` random Hermitian
    pairs, refined by greedy coordinate ascent.  Each rung is warm-started
    with the previous rung's maximizer embedded into the finer grid (the
    embedding preserves its ratio exactly, so the estimates are monotone and
    rung-to-rung growth measures the genuine sup, not maximizer-search
    noise)."""
    k_values = sorted(k_values)
    results = []
    carried = None
    rng = np.random.default_rng(seed)
    for K in k_values:
        grid = GridSpec(K)
        # deterministic two-mode seed keeps the estimate comparable across K
        u = v = CoefSeq.from_modes(grid, {1: 1.0})
        best = _bilinear_ratio(u, v, s)
        for _ in range(trials):
            uc = _random_hermitian(grid, rng)
            vc = _random_hermitian(grid, rng)
            r = _bilinear_ratio(uc, vc, s)
            if r > best:
                best, u, v = r, uc, vc
        if carried is not None:
            cu, cv = (_embed(w, grid) for w in carried)
            r = _bilinear_ratio(cu, cv, s)
            if r > best:
                best, u, v = r, cu, cv
        best, u, v = _ascend(u, v, s)
        carried = (u, v)
        results.append(best)
    return results
