"""Twisted-variable change of coordinates and the operators produced by
integrating the oscillatory phase of the quadratic term by parts.

Writing u = w + v with v the third antiderivative of the forcing, and
twisting w_k(t) = z_k(t) e^{(-gamma + i k^3) t}, the evolution of z has a
quadratic term whose phase e^{-3i k k1 k2 t} can be integrated by parts.
That trades the derivative in the nonlinearity for:

* a bilinear boundary term with 1/(k1 k2) weights (``normal_form_bilinear``),
* a diagonal resonant cubic term (``resonant_cubic``),
* a nonresonant cubic remainder with oscillatory phase and a 1/k1 weight
  (``nonresonant_cubic``).

``normal_form_residual`` verifies the resulting differential identity along
computed trajectories as a numerical residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import linear_multiplier
from .spectral import NORM_ROWS, CoefSeq, product_half, sobolev_norms

# sobolev_norm stays bound here: the traced benchmark (bench/tracing.py)
# patches it on this module.
from .spectral import sobolev_norm  # noqa: F401


def third_antiderivative(f: CoefSeq) -> CoefSeq:
    """v with d^3 v / dx^3 = f:  v_k = f_k / (i k)^3, v_0 = 0.

    Gaining three derivatives, ||v||_{H^s} = ||f||_{H^{s-3}} <= ||f|| for
    s < 3 on mean-zero sequences.
    """
    k = f.grid.modes.astype(np.float64)
    denom = (1j * k) ** 3
    denom[0] = 1.0  # k = 0 slot: v_0 = f_0 = 0
    return f.with_coef(f.coef / denom)


@dataclass(frozen=True)
class NormalFormFrame:
    """The v-profile and damping rate defining the twisted variables.

    z(t) carries the unknown: z_k = (u_k - v_k) e^{(gamma - i k^3) t}.
    y(t) is the twisted image of the static profile v, |y_k| = |v_k| e^{gamma t}.
    """

    v: CoefSeq
    gamma: float

    @classmethod
    def from_forcing(cls, f: CoefSeq, gamma: float) -> "NormalFormFrame":
        return cls(third_antiderivative(f), gamma)

    def _twist(self, t: float) -> np.ndarray:
        """e^{(gamma - i k^3) t}: the damped Airy factor run backwards."""
        return linear_multiplier(self.v.grid.modes, -t, self.gamma)

    def y_at(self, t: float) -> CoefSeq:
        return self.v.with_coef(self.v.coef * self._twist(t))

    def y_rate_minus_gamma_y(self, t: float) -> CoefSeq:
        """d/dt y - gamma y = -i k^3 y, evaluated in closed form.

        Equivalently e^{(gamma - i k^3) t} f_k: the forcing seen in the
        twisted frame (no differencing involved).
        """
        k = self.v.grid.modes.astype(np.float64)
        return self.v.with_coef(-1j * k**3 * self.v.coef * self._twist(t))

    def to_z(self, u: CoefSeq, t: float) -> CoefSeq:
        return u.with_coef((u.coef - self.v.coef) * self._twist(t))


def _twisted_antiderivative(u: CoefSeq, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(q, e^{i t k^3}) on k = 0..K, with q_k = u_k e^{i t k^3} / (i k) and
    q_0 = 0: the half spectrum of the antiderivative of the twisted field,
    which is real because u is.

    The twist factors the cubic phases: 3 k k1 k2 = k^3 - k1^3 - k2^3 on
    k = k1 + k2, and 3 (k1+k2)(k1+k3)(k2+k3) = k^3 - k1^3 - k2^3 - k3^3 on
    k = k1 + k2 + k3, so every phase-weighted sum becomes e^{-i t k^3} times
    a plain product of twisted real fields.  At t = 0 the twist is 1 and is
    not applied.
    """
    k = np.arange(u.grid.K + 1, dtype=np.float64)
    twist = linear_multiplier(k, t, 0.0) if t != 0.0 else np.ones_like(k)
    q = np.zeros(k.size, dtype=np.complex128)
    q[1:] = u.coef[1:] * twist[1:] / (1j * k[1:])
    return q, twist


def normal_form_bilinear(u: CoefSeq, v: CoefSeq, t: float = 0.0) -> CoefSeq:
    """Boundary bilinear form: (1/6) sum_{k1+k2=k} e^{-3i k k1 k2 t} u_{k1} v_{k2} / (k1 k2).

    The k = 0 output is zero by definition.  t = 0 gives the stationary form;
    the phase preserves Hermitian symmetry at every t, so the result is a
    real field.  Inputs are mean-zero, so k1, k2 never vanish.  Computed
    as -e^{-i t k^3} (q_u q_v) / 6 with q the twisted antiderivative
    (:func:`_twisted_antiderivative`), O(K log K).
    """
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    a, twist = _twisted_antiderivative(u, t)
    b = a if v is u else _twisted_antiderivative(v, t)[0]
    out = product_half(a, b, u.grid) / -6.0
    if t != 0.0:
        out *= np.conj(twist)
    out[0] = 0.0
    return CoefSeq(u.grid, out)


def resonant_cubic(u: CoefSeq) -> CoefSeq:
    """Diagonal resonant term: -(i / 6k) |u_k|^2 u_k, zero at k = 0.

    For s < 1 its H^s norm is bounded by ||u||^3 (the 1/k weight absorbs the
    |k|^s factor).
    """
    return u.with_coef(resonant_cubic_coefs(u.coef))


def resonant_cubic_coefs(a: np.ndarray) -> np.ndarray:
    """:func:`resonant_cubic` of every half spectrum k = 0..K along the last
    axis of a, with the same operations on each."""
    k = np.arange(1, a.shape[-1], dtype=np.float64)
    out = np.zeros(a.shape, dtype=np.complex128)
    out[..., 1:] = (-1j / (6.0 * k)) * np.abs(a[..., 1:]) ** 2 * a[..., 1:]
    return out


def nonresonant_cubic(u: CoefSeq, t: float = 0.0) -> CoefSeq:
    """Cubic remainder over nonresonant triples:

        (i/6) sum_{k1+k2+k3=k} e^{-3i t (k1+k2)(k1+k3)(k2+k3)} u_{k1} u_{k2} u_{k3} / k1

    restricted to (k1+k2)(k1+k3)(k2+k3) != 0 and to pair sums
    |k2 + k3| <= K.  That is the domain generated when the truncated
    quadratic dynamics are substituted into the bilinear term, so the
    differential identity at truncation K holds exactly on it (see
    normal_form_residual).

    The sum over all triples with k2 + k3 = m != 0, |m| <= K is
    -e^{-i t k^3} (q (u~ u~)) / 6 with u~_j = u_j e^{i t j^3} and q the
    twisted antiderivative (:func:`_twisted_antiderivative`): two products
    of real fields on u's grid, whose P >= 3K + 1 keeps every mode |k| <= K
    of each exact, and the first of which stops at |m| <= K.  The resonant
    triples in it have phase 1 and are subtracted in closed form
    (:func:`_resonant_cubic_banded`); O(K log K) overall.  The nonresonant
    domain is empty at K = 1 (every triple is resonant), and there the
    result is exactly zero.
    """
    if u.grid.K == 1:
        return CoefSeq.zeros(u.grid)
    q, twist = _twisted_antiderivative(u, t)
    tilde = u.coef * twist
    pairs = product_half(tilde, tilde, u.grid)
    pairs[0] = 0.0
    full = product_half(q, pairs, u.grid) / -6.0
    if t != 0.0:
        full *= np.conj(twist)
    out = full - _resonant_cubic_banded(u.coef)
    out[0] = 0.0
    return CoefSeq(u.grid, out)


def _full_spectrum(a: np.ndarray) -> np.ndarray:
    """Coefficients k = -K..K of the real field with half spectrum a
    (k = 0..K), for the two sums that index negative wavenumbers."""
    return np.concatenate((np.conj(a[:0:-1]), a))


def _resonant_cubic_banded(a: np.ndarray) -> np.ndarray:
    """Resonant part of the cubic sum (triples with k1 + k2 = 0 or
    k1 + k3 = 0) on the domain |k2 + k3| <= K, for the half spectrum a;
    returns k = 0..K.

    Both pair classes contribute a_k sum_j |a_j|^2 / j over 0 < |j| <= K,
    j != +-k, j >= k - K; the doubly resonant diagonal -|a_k|^2 a_k / k
    survives only for 2k <= K.  The pair sums cancel in j <-> -j pairs
    except for j > K - k, whose mirrors fall below the window.  Window sums
    over j = k - K..K come from one prefix sum, O(K).
    """
    K = a.size - 1
    j = np.arange(-K, K + 1)
    nz = j != 0
    w = np.zeros(j.size)
    w[nz] = np.abs(_full_spectrum(a)[nz]) ** 2 / j[nz]
    prefix = np.concatenate(([0.0], np.cumsum(w)))
    k = np.arange(K + 1)
    w_k, w_minus_k = w[k + K], w[K - k]
    diagonal = 2 * k <= K
    # the window j = k - K..K (indices k..2K) always holds j = k, and holds
    # j = -k exactly when 2k <= K
    window = prefix[2 * K + 1] - prefix[k] - w_k - np.where(diagonal, w_minus_k, 0.0)
    # w_k a_k = |a_k|^2 a_k / k is the diagonal term
    out = (1j / 6.0) * a * (2.0 * window - np.where(diagonal, w_k, 0.0))
    out[0] = 0.0
    return out


# Output modes per block of the resonant enumeration: temporaries are
# _RESONANT_ROWS x (2K + 1), so memory stays linear in K.
_RESONANT_ROWS = 128


def _resonant_sums(a: np.ndarray) -> np.ndarray:
    """For each k = -K..K, the sum of (u_{k1} / k1) u_{k2} u_{k3} over the
    resonant triples of the cubic sum, those with k1 + k2 + k3 = k, all of
    k1, k2, k3, k2 + k3 nonzero and in band, and k1 + k2 = 0 or k1 + k3 = 0,
    for the half spectrum a.

    The two pair classes are enumerated term by term on the (k, k1) grid:
    k2 = -k1 puts k3 = k, and k3 = -k1 puts k2 = k, so both are in band and
    k2 + k3 = k - k1 is nonzero off k1 = k.  Their overlap, k1 = -k with
    k2 = k3 = k, lies in both and is subtracted once.  O(K^2) work, in blocks
    of _RESONANT_ROWS output modes.
    """
    K = a.size - 1
    c = _full_spectrum(a)  # u_j at index j + K
    j = np.arange(-K, K + 1)
    nz = j != 0
    w = np.zeros_like(c)
    w[nz] = c[nz] / j[nz]  # u_{k1} / k1, zero at k1 = 0
    c_neg = c[::-1]  # u_{-k1}
    sums = np.empty_like(c)
    for r0 in range(0, j.size, _RESONANT_ROWS):
        k = j[r0 : r0 + _RESONANT_ROWS, None]
        ck = c[k + K]
        off = k != j  # k1 != k
        pair12 = np.where(off, w * c_neg, 0.0) * ck  # k2 = -k1, k3 = k
        pair13 = np.where(off, w * ck, 0.0) * c_neg  # k2 = k, k3 = -k1
        overlap = w[K - k] * ck * ck  # k1 = -k, k2 = k3 = k
        sums[r0 : r0 + k.size] = pair12.sum(axis=1) + pair13.sum(axis=1) - overlap[:, 0]
    return sums


def resonant_cancellation_residual(u: CoefSeq) -> float:
    """Enumerate every resonant in-band triple of the cubic sum
    (:func:`_resonant_sums`) and compare against the closed diagonal form
    -(|u_k|^2 u_k)/k.

    The two pair classes contribute u_k sum_j |u_j|^2 / j each, which cancels
    in j <-> -j pairs for a real field; the residual is roundoff-level.
    """
    K = u.grid.K
    c = _full_spectrum(u.coef)
    k = np.arange(-K, K + 1).astype(np.float64)
    expected = np.zeros_like(c)
    nz = k != 0
    expected[nz] = -np.abs(c[nz]) ** 2 * c[nz] / k[nz]
    return float(np.max(np.abs(_resonant_sums(u.coef) - expected)))


def normal_form_residual(states, frame: NormalFormFrame, t: float, dt: float) -> float:
    """Max-mode residual of the differential identity along a trajectory.

    states are u(t - dt), u(t), u(t + dt), in that order.  The left side
    central-differences d/dt [z - e^{-gamma t} B(z+y, z+y)] from them; the
    right side evaluates, at time t,

        e^{-2 gamma t} * (resonant cubic)  -  gamma y
        + gamma e^{-gamma t} B(z+y, z+y)
        - 2 e^{-gamma t} B(z+y, d/dt y - gamma y)
        + e^{-2 gamma t} * (nonresonant cubic, pair sums banded to K)

    with d/dt y - gamma y in closed form.  The cubic terms live on the
    truncation-consistent domain, so the residual is O(dt^2) differencing
    error plus solver error.  Note the bilinear-times-forcing coefficient is
    2, not 1/3: the 1/6 weight inside the bilinear form must be compensated
    (verified to 5e-14 by brute-force substitution at small K).
    """
    g = frame.gamma
    before, now, after = (
        frame.to_z(u, tau) for u, tau in zip(states, (t - dt, t, t + dt), strict=True)
    )

    def bracket(z: CoefSeq, tau: float) -> np.ndarray:
        a = z.with_coef(z.coef + frame.y_at(tau).coef)
        return z.coef - np.exp(-g * tau) * normal_form_bilinear(a, a, tau).coef

    lhs = (bracket(after, t + dt) - bracket(before, t - dt)) / (2.0 * dt)
    return float(np.max(np.abs(lhs - _identity_rhs(now, frame, t))))


def _identity_rhs(z: CoefSeq, frame: NormalFormFrame, t: float) -> np.ndarray:
    """Right side of the differential identity (see normal_form_residual)
    at the twisted state z at time t, on k = 0..K."""
    g = frame.gamma
    y = frame.y_at(t)
    a = z.with_coef(z.coef + y.coef)
    return (
        np.exp(-2.0 * g * t) * _resonant_cubic_banded(a.coef)
        - g * y.coef
        + g * np.exp(-g * t) * normal_form_bilinear(a, a, t).coef
        - 2.0 * np.exp(-g * t)
        * normal_form_bilinear(a, frame.y_rate_minus_gamma_y(t), t).coef
        + np.exp(-2.0 * g * t) * nonresonant_cubic(a, t).coef
    )


def smoothing_gap(u0: np.ndarray, coefs: np.ndarray, t, gamma: float, s: float) -> np.ndarray:
    """||u(t) - e^{-gamma t} e^{t L} u0||_{H^s}, the nonlinear remainder norm,
    of each state u(t) of the run from u0: row i of coefs at time t[i] (half
    spectra k = 0..K), each by the same operations, NORM_ROWS rows at a time.

    Measures how much smoother the solution is than its damped Airy
    evolution.
    """
    k, gaps = np.arange(u0.shape[-1]), np.empty(len(t))
    for i in range(0, len(t), NORM_ROWS):
        lin = linear_multiplier(k, t[i : i + NORM_ROWS, None], gamma)
        gaps[i : i + NORM_ROWS] = sobolev_norms(coefs[i : i + NORM_ROWS] - u0 * lin, s)
    return gaps
