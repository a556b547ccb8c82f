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
from numpy.lib.stride_tricks import sliding_window_view

from .normal_form import _full_spectrum, normal_form_bilinear
from .spectral import CoefSeq, GridSpec, power_decay, sobolev_norm

# int64 stays exact for the vectorized scans up to this radius.  Every
# intermediate of the quartic scan is at most 30 R^3 in absolute value
# (|k4| <= 3R, so |k1^3 + k2^3 + k3^3 + k4^3| <= 3R^3 + 27R^3), which fits
# int32 for R <= 415 and int64 for R up to about 674,000; the cubic scan's
# terms are at most 8 R^3.
INT64_SAFE_RADIUS = 100_000

# Rows per block of the exhaustive scans (k1 rows; k2 rows of a quartic slice).
# 48 to 192 timed alike; whole quartic slices (2R + 1 rows, R = 1000) took 16 s, not 12 s.
_SCAN_ROWS = 128

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
    """Check the cubic identity for every pair |k1|,|k2| <= radius, _SCAN_ROWS
    k1 rows at a time; returns the number of pairs checked."""
    if radius > INT64_SAFE_RADIUS:
        raise ValueError(
            f"radius {radius} exceeds the int64-exact range; use the sampled check"
        )
    k = np.arange(-radius, radius + 1, dtype=np.int64)
    for r0 in range(0, k.size, _SCAN_ROWS):
        k1 = k[r0 : r0 + _SCAN_ROWS]
        s12 = np.add.outer(k1, k)  # k1 + k2
        lhs = 3 * s12 * k1[:, None] * k
        rhs = s12**3 - k1[:, None] ** 3 - k**3
        if not np.array_equal(lhs, rhs):
            i, j = np.argwhere(lhs != rhs)[0]
            raise AssertionError(f"cubic phase identity failed at ({k1[i]}, {k[j]})")
    return k.size**2


def verify_quartic_phase_exhaustive(radius: int) -> int:
    """Check the quartic identity for every triple |k_i| <= radius.

    The identity is symmetric in (k1, k2, k3), so enumeration fixes k1 as the
    minimum (pure slicing, no masks) and covers each unordered triple at
    least once; returns the number of ordered-representative triples,
    sum of m^2 over m = 1..2*radius+1.

    Within one k1 slice, k2+k3 and -k4^3 = (k1+k2+k3)^3 depend only on the
    sum, so both are evaluated once per distinct k2+k3 and read on the
    (k2, k3) grid through Hankel views.  Each slice is compared in blocks of
    _SCAN_ROWS k2 rows, so the temporaries stay cache-sized.  Every
    intermediate is at most 30 R^3 in absolute value, so the scan is exact
    in int32 for R <= 415 (30 R^3 < 2^31) and in int64 up to
    INT64_SAFE_RADIUS.
    """
    if radius > INT64_SAFE_RADIUS:
        raise ValueError(
            f"radius {radius} exceeds the int64-exact range; use the sampled check"
        )
    dtype = np.int32 if 30 * radius**3 < 2**31 else np.int64
    k = np.arange(-radius, radius + 1, dtype=dtype)
    cube = k**3
    checked = 0
    for i1, k1 in enumerate(k):
        tail = k[i1:]  # the k2 and the k3 values
        m = tail.size
        sums = np.arange(2 * k1, 2 * radius + 1, dtype=dtype)  # k2 + k3, 2m - 1 of them
        s23 = sliding_window_view(sums, m)  # s23[i, j] = tail[i] + tail[j]
        neg_k4_cube = sliding_window_view((k1 + sums) ** 3, m)  # -k4^3
        f = k1 + tail
        row_rhs = -(cube[i1] + cube[i1:])  # -(k1^3 + k2^3)
        for r0 in range(0, m, _SCAN_ROWS):
            rows = slice(r0, r0 + _SCAN_ROWS)
            lhs = np.multiply.outer(3 * f[rows], f)
            lhs *= s23[rows]
            rhs = np.subtract.outer(row_rhs[rows], cube[i1:])
            rhs += neg_k4_cube[rows]
            if not np.array_equal(lhs, rhs):
                i, j = np.argwhere(lhs != rhs)[0]
                raise AssertionError(
                    f"quartic phase identity failed at ({k1}, {tail[r0 + i]}, {tail[j]})"
                )
        checked += m * m
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
    u = (z[:, 0] + 1j * z[:, 1]) * power_decay(grid.K, decay)
    return CoefSeq(grid, np.concatenate(([0.0], u)))


def _bilinear_ratio(u: CoefSeq, v: CoefSeq, s: float) -> float:
    nu, nv = u.l2(), v.l2()
    if nu == 0.0 or nv == 0.0:
        return 0.0  # degenerate trial, skipped by the caller
    return sobolev_norm(normal_form_bilinear(u, v), s) / (nu * nv)


def _bilinear_matrix(v: CoefSeq, s: float) -> np.ndarray:
    """The real 2K x 2K matrix M of u -> |k|^s B(u, v)_k (t = 0, k = 1..K)
    on x = (Re u_1..K, Im u_1..K): ||M x|| sqrt(2) = ||B(u, v)||_{H^s}.

    B_k = sum_j A_kj u_j + C_kj conj(u_j) over j = 1..K, with
    A_kj = v_{k-j} / (6 j (k-j)) and C_kj = -v_{k+j} / (6 j (k+j)), v read at
    negative wavenumbers through conjugation and as zero beyond K.
    """
    K = v.grid.K
    # v_m at index m + K, m = -K..2K
    full = np.concatenate((_full_spectrum(v.coef), np.zeros(K)))
    k = np.arange(1, K + 1)
    d = k[:, None] - k[None, :]
    a = full[K + d] / (6.0 * k * np.where(d == 0, 1, d))  # v_0 = 0 on the diagonal
    c = -full[K + k[:, None] + k] / (6.0 * k * (k[:, None] + k))
    w = k[:, None] ** s
    p, m = w * (a + c), w * (a - c)
    return np.block([[p.real, -m.imag], [p.imag, m.real]])


# Eigenvalues of M^T M within this relative distance of the largest count as
# tied with it in _maximizer.
_TOP_TIE = 1e-12


def _maximizer(v: CoefSeq, s: float) -> CoefSeq:
    """A u maximizing ||B(u, v)||_{H^s} / ||u||, with ||u|| = sqrt(2): a top
    right singular vector of M = :func:`_bilinear_matrix`, taken from the
    eigenvectors of the symmetric M^T M (one eigh, cheaper than an SVD).

    When the top singular value is multiple, u is the maximizer nearest v,
    the projection of v onto its singular space (or, if v is orthogonal to
    that space, the eigenvector eigh lists last): the alternation's fixed
    point has u parallel to v, since B is symmetric.  A v on mode 1 alone
    makes it double (its u and the quarter-period shift i u_k score alike),
    and there the projection keeps the cosine-type u the alternation climbs
    from best.  At K = 1, where M = 0, u is v rescaled.
    """
    m = _bilinear_matrix(v, s)
    values, vectors = np.linalg.eigh(m.T @ m)
    top = vectors[:, values >= values[-1] * (1.0 - _TOP_TIE)]
    x = top @ (top.T @ np.concatenate((v.coef[1:].real, v.coef[1:].imag)))
    norm = np.linalg.norm(x)
    x = x / norm if norm > 0 else vectors[:, -1]  # v orthogonal to that space
    K = v.grid.K
    return CoefSeq(v.grid, np.concatenate(([0.0], x[:K] + 1j * x[K:])))


def _alternate(v: CoefSeq, s: float):
    """Raise the bilinear ratio from v by exact alternating solves (the
    higher-order power method): u becomes the maximizer for v, then v the
    one for u (B is symmetric), so no half-step lowers the ratio.  Stops when
    a round gains less than a relative 1e-12; returns (ratio, v)."""
    best = 0.0
    while True:
        u = _maximizer(v, s)
        v = _maximizer(u, s)
        r = _bilinear_ratio(u, v, s)
        if r <= best * (1.0 + 1e-12):
            return r, v
        best = r


def _embed(u: CoefSeq, grid: GridSpec) -> CoefSeq:
    """Zero-pad a state onto a finer grid; the bilinear ratio is unchanged."""
    c = np.zeros(grid.size, dtype=np.complex128)
    c[: u.grid.size] = u.coef
    return CoefSeq(grid, c)


def bilinear_constant_ladder(k_values, s: float, trials: int = 200, seed: int = 0) -> list[float]:
    """Estimate sup ||B(u,v)||_{H^s} / (||u|| ||v||), s < 1, over increasing
    truncations: per rung, the best of :func:`_alternate` from three starts,
    a deterministic two-mode state, the best-scoring of `trials` random
    Hermitian pairs and the previous rung's maximizer embedded into the finer
    grid.  Embedding loses none of its ratio, so the estimates are monotone
    to roundoff and rung-to-rung growth measures the genuine sup.
    Deterministic in (k_values, s, trials, seed).
    """
    if s >= 1.0:
        raise ValueError("the bilinear bound is for s < 1")
    results = []
    carried = None
    rng = np.random.default_rng(seed)
    for K in sorted(k_values):
        grid = GridSpec(K)
        starts = [CoefSeq.from_modes(grid, {1: 1.0})]
        if trials:
            pairs = [(_random_hermitian(grid, rng), _random_hermitian(grid, rng))
                     for _ in range(trials)]
            # the first half-step maximizes over u, so a start is its v
            starts.append(max(pairs, key=lambda p: _bilinear_ratio(*p, s))[1])
        if carried is not None:
            starts.append(_embed(carried, grid))
        best, carried = max((_alternate(v, s) for v in starts), key=lambda x: x[0])
        results.append(best)
    return results
