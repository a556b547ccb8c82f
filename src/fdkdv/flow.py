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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import CoefSeq, GridSpec, convolve_raw, sobolev_norm


class StepFailureError(RuntimeError):
    """Non-finite state encountered while stepping (blow-up or h too large)."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t = {time:.6g}; reduce the step size")
        self.time = time


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


def _nonlinear_raw(coef: np.ndarray, params: FlowParams, k: np.ndarray) -> np.ndarray:
    """Quadratic + forcing part of du/dt on raw arrays (k = 0 forced to zero)."""
    out = np.zeros_like(coef)
    if params.include_nonlinear:
        out = -0.5j * k * convolve_raw(coef, coef, params.grid)
    out = out + params.forcing.coef
    out[params.grid.K] = 0.0
    return out


def rhs(u: CoefSeq, params: FlowParams) -> CoefSeq:
    """du_k/dt = (i k^3 - gamma) u_k - (i k / 2)(u*u)_k + f_k, k != 0."""
    k = u.grid.modes.astype(np.float64)
    d = (1j * k**3 - params.gamma) * u.coef + _nonlinear_raw(u.coef, params, k)
    d[u.grid.K] = 0.0
    return u.with_coef(d)


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
    """Precomputed one-step kernel for a fixed (params, h)."""

    def __init__(self, params: FlowParams, h: float):
        self.params = params
        self.h = h
        self.k = params.grid.modes.astype(np.float64)
        lam = 1j * self.k**3 - params.gamma
        self.E = np.exp(lam * (h / 2.0))
        self.E2 = np.exp(lam * h)
        if params.scheme == "etdrk4":
            self.Q, self.f1, self.f2, self.f3 = _etdrk4_coeffs(lam, h)

    def __call__(self, coef: np.ndarray) -> np.ndarray:
        if self.params.scheme == "etdrk4":
            return self._etdrk4(coef)
        return self._ifrk4(coef)

    def _ifrk4(self, coef):
        # state multiplies the factor from the left throughout so that the
        # pure semigroup case reproduces linear_flow bit for bit
        params, k, h, E, E2 = self.params, self.k, self.h, self.E, self.E2
        n1 = _nonlinear_raw(coef, params, k)
        u2 = (coef + (h / 2.0) * n1) * E
        n2 = _nonlinear_raw(u2, params, k)
        u3 = coef * E + (h / 2.0) * n2
        n3 = _nonlinear_raw(u3, params, k)
        u4 = coef * E2 + h * (n3 * E)
        n4 = _nonlinear_raw(u4, params, k)
        out = coef * E2 + (h / 6.0) * (n1 * E2 + 2.0 * ((n2 + n3) * E) + n4)
        out[params.grid.K] = 0.0
        return out

    def _etdrk4(self, coef):
        params, k = self.params, self.k
        half, full = self.E, self.E2
        n0 = _nonlinear_raw(coef, params, k)
        a = coef * half + self.Q * n0
        na = _nonlinear_raw(a, params, k)
        b = coef * half + self.Q * na
        nb = _nonlinear_raw(b, params, k)
        c = a * half + self.Q * (2.0 * nb - n0)
        nc = _nonlinear_raw(c, params, k)
        out = coef * full + self.f1 * n0 + 2.0 * self.f2 * (na + nb) + self.f3 * nc
        out[params.grid.K] = 0.0
        return out


def step(u: CoefSeq, t: float, params: FlowParams, h: float | None = None) -> CoefSeq:
    """Advance one step of size h (params.h by default) from time t.

    Both schemes apply the factor exp((i k^3 - gamma) h) exactly between
    stage evaluations of the nonlinear + forcing part; with that part
    switched off the ifrk4 step reproduces :func:`linear_flow` to the bit.
    """
    h = params.h if h is None else h
    out = _Stepper(params, h)(u.coef)
    if not np.all(np.isfinite(out.view(np.float64))):
        raise StepFailureError(t + h)
    return u.with_coef(out)


def evolve(u0: CoefSeq, T: float, params: FlowParams, sample_every: int = 1) -> TrajectoryRecord:
    """March from t = 0 to T, recording every sample_every-th state.

    The last step is shortened to land on T exactly; the final state is
    always recorded.  Deterministic: pure function of (u0, T, params).
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    h = params.h
    g = params.grid
    kernel = _Stepper(params, h)

    n_full = int(np.floor(T / h + 1e-9))
    h_last = T - n_full * h
    if h_last < 1e-12 * max(T, 1.0):
        h_last = 0.0

    times = [0.0]
    states = [u0]
    dense_t = [0.0]
    dense_n = [float(np.sqrt(np.sum(np.abs(u0.coef) ** 2)))]
    coef = u0.coef.copy()
    for i in range(1, n_full + 1):
        coef = kernel(coef)
        if not np.all(np.isfinite(coef.view(np.float64))):
            raise StepFailureError(i * h)
        dense_t.append(i * h)
        dense_n.append(float(np.sqrt(np.sum(np.abs(coef) ** 2))))
        if i % sample_every == 0 and not (i == n_full and h_last == 0.0):
            times.append(i * h)
            states.append(CoefSeq(g, coef))
    if h_last > 0.0:
        coef = _Stepper(params, h_last)(coef)
        if not np.all(np.isfinite(coef.view(np.float64))):
            raise StepFailureError(T)
        dense_t.append(T)
        dense_n.append(float(np.sqrt(np.sum(np.abs(coef) ** 2))))
    times.append(T)
    states.append(CoefSeq(g, coef))
    return TrajectoryRecord(
        times=np.array(times), states=tuple(states),
        gamma=params.gamma, forcing_l2=params.forcing.l2(),
        dense_times=np.array(dense_t), dense_l2=np.array(dense_n),
    )


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


def hs_norms(traj: TrajectoryRecord, s: float) -> np.ndarray:
    return np.array([sobolev_norm(u, s) for u in traj.states])
