"""Time evolution of u_t + u_xxx + gamma*u + u*u_x = f in Fourier space.

The linear dispersive + damping part is diagonal, lambda_k = i k^3 - gamma,
and is applied exactly.  Two fourth-order schemes advance the quadratic term
and the forcing:

* ``ifrk4`` (default): integrating-factor Runge-Kutta.  Simple and exact on
  the semigroup, but its stage quadrature saturates for modes with
  |k^3 h| >> 1, which pollutes high wavenumbers of rough states.
* ``etdrk4``: exponential time differencing (Cox-Matthews stages, coefficients
  by contour averaging).  Exact for constant nonlinear load per mode, so the
  saturation error is suppressed by 1/|k^3 h|; required for the smoothing and
  attractor studies on rough data at large K.

The stepper works on half spectra: a real field is carried by its
coefficients k = 0..K, and a batch of fields sharing (gamma, f, h, scheme)
is an array of shape (M, K+1) stepped together.  The quadratic term is the
real-transform square :func:`~fdkdv.spectral.square_half`; the negative
modes are rebuilt by conjugation only when a :class:`CoefSeq` is made.  A
single run is a batch of one, and each member of a batch is bit-identical to
its solo run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# sobolev_norm stays bound here: the traced benchmark (bench/tracing.py)
# patches it on this module.
from .spectral import CoefSeq, GridSpec, sobolev_norm, square_half  # noqa: F401


class StepFailureError(RuntimeError):
    """Non-finite state encountered while stepping (blow-up or h too large).

    `member` is the index of the failing state in its batch (0 for a single
    run); `label` names it in the message.
    """

    def __init__(self, time: float, member: int = 0, label: str = ""):
        who = f" of {label}" if label else ""
        super().__init__(f"non-finite state{who} at t = {time:.6g}; reduce the step size")
        self.time = time
        self.member = member


SCHEMES = ("ifrk4", "etdrk4")


@dataclass(frozen=True)
class FlowParams:
    """Damping gamma, time-independent mean-zero real forcing, step size h.

    gamma > 0 throughout; the undamped/unforced limit used by the
    conservation experiment must be built through :meth:`kdv_limit`.
    `include_nonlinear=False` switches the quadratic term off (test hook for
    exact-semigroup comparisons; the forcing stays active).
    """

    gamma: float
    forcing: CoefSeq
    h: float = 0.0
    include_nonlinear: bool = True
    scheme: str = "ifrk4"

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        self._validate_common()

    def _validate_common(self):
        if not self.forcing.is_mean_zero():
            raise ValueError("forcing must be mean-zero")
        if not self.forcing.is_real_field():
            raise ValueError("forcing must be a real field (Hermitian coefficients)")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.h == 0.0:
            object.__setattr__(self, "h", default_step(self.grid.K))
        if self.h <= 0:
            raise ValueError(f"step size must be positive, got {self.h}")

    @classmethod
    def kdv_limit(cls, forcing: CoefSeq, h: float = 0.0, scheme: str = "ifrk4") -> "FlowParams":
        """gamma = 0 variant (conservation experiments only)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "gamma", 0.0)
        object.__setattr__(obj, "forcing", forcing)
        object.__setattr__(obj, "h", h)
        object.__setattr__(obj, "include_nonlinear", True)
        object.__setattr__(obj, "scheme", scheme)
        obj._validate_common()
        return obj

    @property
    def grid(self) -> GridSpec:
        return self.forcing.grid


def default_step(K: int) -> float:
    # the convective term limits h; the exactly-integrated linear part does not
    return min(1e-3, 0.5 / K)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled states of one run: strictly increasing times, one CoefSeq each.

    dense_times / dense_l2, when present, carry the l2 norm at every solver
    step (states are only kept at the sampled times).
    """

    times: np.ndarray
    states: tuple[CoefSeq, ...]
    gamma: float
    forcing_l2: float
    l2_norms: np.ndarray = field(default=None)
    dense_times: np.ndarray = field(default=None, repr=False)
    dense_l2: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if len(self.states) != t.size:
            raise ValueError("times and states length mismatch")
        object.__setattr__(self, "times", t)
        if self.l2_norms is None:
            object.__setattr__(
                self, "l2_norms", np.array([s.l2() for s in self.states])
            )

    def state_at(self, t: float, tol: float = 1e-9) -> CoefSeq:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol * max(1.0, abs(t)):
            raise KeyError(f"no sample at t = {t:.9g} (nearest: {self.times[i]:.9g})")
        return self.states[i]

    def initial_state(self) -> CoefSeq:
        return self.states[0]


def linear_multiplier(k, t: float, gamma: float):
    """exp((i k^3 - gamma) t): the exact damped Airy factor for mode k."""
    k = np.asarray(k, dtype=np.float64)
    return np.exp((1j * k**3 - gamma) * t)


def linear_flow(u0: CoefSeq, t: float, gamma: float) -> CoefSeq:
    """Exact damped linear evolution; ||result|| = e^{-gamma t} ||u0||."""
    return u0.with_coef(u0.coef * linear_multiplier(u0.grid.modes, t, gamma))


def _etdrk4_coeffs(lam: np.ndarray, h: float, contour_points: int = 32):
    """Cox-Matthews stage weights, evaluated by averaging over a unit contour
    around each lambda*h (the phi functions are entire, so the circle mean is
    exact and dodges the small-|z| cancellation)."""
    z = lam * h
    r = np.exp(2j * np.pi * (np.arange(contour_points) + 0.5) / contour_points)
    LR = z[:, None] + r[None, :]
    eLR = np.exp(LR)
    Q = h * np.mean((np.exp(LR / 2.0) - 1.0) / LR, axis=1)
    f1 = h * np.mean((-4.0 - LR + eLR * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1)
    f2 = h * np.mean((2.0 + LR + eLR * (-2.0 + LR)) / LR**3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * LR - LR**2 + eLR * (4.0 - LR)) / LR**3, axis=1)
    return Q, f1, f2, f3


class _Stepper:
    """Precomputed one-step kernel for a fixed (params, h), acting on half
    spectra of shape (M, K+1): modes k = 0..K, one row per batch member.
    The k = 0 slot of every output is zero."""

    def __init__(self, params: FlowParams, h: float):
        self.params = params
        self.h = h
        K = params.grid.K
        k = np.arange(K + 1, dtype=np.float64)
        self.lam = 1j * k**3 - params.gamma
        self.convect = -0.5j * k
        self.forcing = params.forcing.coef[K:]
        self.E = np.exp(self.lam * (h / 2.0))
        self.E2 = np.exp(self.lam * h)
        if params.scheme == "etdrk4":
            self.Q, self.f1, self.f2, self.f3 = _etdrk4_coeffs(self.lam, h)
            self._step = self._etdrk4
        else:
            self._step = self._ifrk4

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        """Quadratic + forcing part of du/dt, -(i k / 2)(u*u)_k + f_k; zero
        at k = 0 because f is mean-zero."""
        if not self.params.include_nonlinear:
            return np.broadcast_to(self.forcing, c.shape)
        return self.convect * square_half(c, self.params.grid) + self.forcing

    def __call__(self, c: np.ndarray) -> np.ndarray:
        out = self._step(c)
        out[:, 0] = 0.0
        return out

    def _ifrk4(self, c):
        # state multiplies the factor from the left throughout so that the
        # pure semigroup case reproduces linear_flow bit for bit
        N, h, E, E2 = self.nonlinear, self.h, self.E, self.E2
        cE2 = c * E2
        n1 = N(c)
        n2 = N((c + (h / 2.0) * n1) * E)
        n3 = N(c * E + (h / 2.0) * n2)
        n4 = N(cE2 + h * (n3 * E))
        return cE2 + (h / 6.0) * (n1 * E2 + 2.0 * ((n2 + n3) * E) + n4)

    def _etdrk4(self, c):
        N, half, Q = self.nonlinear, self.E, self.Q
        ch = c * half
        n0 = N(c)
        a = ch + Q * n0
        na = N(a)
        nb = N(ch + Q * na)
        nc = N(a * half + Q * (2.0 * nb - n0))
        return c * self.E2 + self.f1 * n0 + 2.0 * self.f2 * (na + nb) + self.f3 * nc


def _half(u: CoefSeq, grid: GridSpec) -> np.ndarray:
    """Coefficients k = 0..K of a real field on `grid`."""
    if u.grid != grid:
        raise ValueError(f"grid mismatch: {u.grid} vs {grid}")
    if not u.is_real_field():
        raise ValueError("the flow acts on real fields (Hermitian coefficients)")
    return u.coef[grid.K :]


def _half_sq_norms(c: np.ndarray, t: float) -> np.ndarray:
    """Per-member sum_{k >= 1} |c_k|^2 of a half-spectrum batch (half the
    squared l2 norm).  A non-finite state gives a non-finite sum, so this is
    also the solver's finiteness check: it raises StepFailureError naming the
    first failing member and the time t."""
    v = c[:, 1:].view(np.float64)
    sq = np.einsum("ij,ij->i", v, v)
    if not np.isfinite(sq).all():
        m = int(np.argmin(np.isfinite(sq)))
        raise StepFailureError(t, m, f"batch member {m}" if len(c) > 1 else "")
    return sq


def rhs(u: CoefSeq, params: FlowParams) -> CoefSeq:
    """du_k/dt = (i k^3 - gamma) u_k - (i k / 2)(u*u)_k + f_k, k != 0."""
    kernel = _Stepper(params, params.h)
    c = _half(u, params.grid)[None, :]
    d = kernel.lam * c + kernel.nonlinear(c)
    d[:, 0] = 0.0
    return CoefSeq.from_half(params.grid, d[0])


def step(u: CoefSeq, t: float, params: FlowParams, h: float | None = None) -> CoefSeq:
    """Advance one step of size h (params.h by default) from time t.

    Both schemes apply the factor exp((i k^3 - gamma) h) exactly between
    stage evaluations of the nonlinear + forcing part; with that part
    switched off the ifrk4 step reproduces :func:`linear_flow` to the bit.
    """
    h = params.h if h is None else h
    out = _Stepper(params, h)(_half(u, params.grid)[None, :])
    _half_sq_norms(out, t + h)
    return CoefSeq.from_half(params.grid, out[0])


def evolve_batch(
    u0s, T: float, params: FlowParams, sample_every: int = 1
) -> tuple[TrajectoryRecord, ...]:
    """March every initial state in u0s from t = 0 to T under one shared
    params, as one batch; one TrajectoryRecord per member, in order.

    Each member's record is bit-identical to its :func:`evolve` run.  A
    non-finite member stops the whole batch with StepFailureError carrying
    the time and the member's index.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    u0s = tuple(u0s)
    if not u0s:
        raise ValueError("evolve_batch needs at least one initial state")
    h = params.h
    g = params.grid

    n_full = int(np.floor(T / h + 1e-9))
    h_last = T - n_full * h
    if h_last < 1e-12 * max(T, 1.0):
        h_last = 0.0

    times = [0.0]
    states = [[u0] for u0 in u0s]

    def record(t, c):
        times.append(t)
        for member, row in zip(states, c):
            member.append(CoefSeq.from_half(g, row))

    coef = np.stack([_half(u, g) for u in u0s])
    sq = np.empty((n_full + 1 + (h_last > 0.0), len(u0s)))
    sq[0] = _half_sq_norms(coef, 0.0)
    kernel = _Stepper(params, h)
    for i in range(1, n_full + 1):
        coef = kernel(coef)
        sq[i] = _half_sq_norms(coef, i * h)
        if i % sample_every == 0 and not (i == n_full and h_last == 0.0):
            record(i * h, coef)
    dense_t = np.arange(n_full + 1) * h
    if h_last > 0.0:
        coef = _Stepper(params, h_last)(coef)
        sq[-1] = _half_sq_norms(coef, T)
        dense_t = np.append(dense_t, T)
    record(T, coef)

    return tuple(
        TrajectoryRecord(
            times=np.array(times), states=tuple(member),
            gamma=params.gamma, forcing_l2=params.forcing.l2(),
            dense_times=dense_t.copy(), dense_l2=np.sqrt(2.0 * sq[:, m]),
        )
        for m, member in enumerate(states)
    )


def evolve(u0: CoefSeq, T: float, params: FlowParams, sample_every: int = 1) -> TrajectoryRecord:
    """March from t = 0 to T, recording every sample_every-th state.

    The last step is shortened to land on T exactly; the final state is
    always recorded.  Deterministic: pure function of (u0, T, params).  A
    batch of one of :func:`evolve_batch`.
    """
    return evolve_batch((u0,), T, params, sample_every)[0]


def energy_envelope(t: float, u0_l2: float, f_l2: float, gamma: float) -> float:
    """e^{-gamma t} ||u0|| + (||f||/gamma)(1 - e^{-gamma t}).

    Monotone path from ||u0|| to the limit radius ||f||/gamma; bounds the l2
    norm of every solution for positive times.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return float(np.exp(-gamma * t) * u0_l2 + (f_l2 / gamma) * (1.0 - np.exp(-gamma * t)))
