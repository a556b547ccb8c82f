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

The stepper works on the stored half spectra k = 0..K of
:class:`~fdkdv.spectral.CoefSeq`: a batch of fields sharing
(gamma, f, h, scheme) is an array of shape (M, K+1) stepped together.  The
quadratic term is the package's one product kernel,
:func:`~fdkdv.spectral.product_half`, on the state twice (one inverse
transform, squared, one transform).  A single run is a batch of one, and
each member of a batch is bit-identical to its solo run.

The stages allocate nothing.  The kernel for one (params, h, M)
owns its work arrays: a physical buffer (M, P) and a spectrum (M, P//2+1)
that product_half computes in, four stage results and two temporaries.
Every other operation is an in-place ufunc.  Each in-place operation is one
of the plain expressions quoted in the kernel, applied to the same operands
in the same order, so every state is bit-identical to the plain
expressions' result; ``tests/test_flow.py`` pins this against an allocating
copy of them.  :func:`evolve_batch` steps its batch in place and checks
the norm and finiteness of every state before it is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# sobolev_norm stays bound here: the traced benchmark (bench/tracing.py)
# patches it on this module.
from .spectral import CoefSeq, GridSpec, product_half, sobolev_norm  # noqa: F401


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

    gamma >= 0: gamma = 0 with zero forcing is the undamped KdV limit of the
    conservation experiment.
    """

    gamma: float
    forcing: CoefSeq
    h: float
    scheme: str = "ifrk4"

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.h <= 0:
            raise ValueError(f"step size must be positive, got {self.h}")

    @property
    def grid(self) -> GridSpec:
        return self.forcing.grid


def default_step(K: int) -> float:
    # the convective term limits h; the exactly-integrated linear part does not
    return min(1e-3, 0.5 / K)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled states of one run: strictly increasing times, one CoefSeq each.

    l2_norms holds the l2 norm of each sampled state; dense_times /
    dense_l2 carry the l2 norm at every solver step (states are only kept
    at the sampled times).  :func:`evolve_batch` is the one constructor.
    """

    times: np.ndarray
    states: tuple[CoefSeq, ...]
    gamma: float
    forcing_l2: float
    l2_norms: np.ndarray = field(init=False)
    dense_times: np.ndarray = field(repr=False)
    dense_l2: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if len(self.states) != t.size:
            raise ValueError("times and states length mismatch")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "l2_norms", np.array([s.l2() for s in self.states]))


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


def _symbols(grid: GridSpec, gamma: float):
    """lambda_k = i k^3 - gamma and the convective factor -i k / 2, k = 0..K."""
    k = np.arange(grid.K + 1, dtype=np.float64)
    return 1j * k**3 - gamma, -0.5j * k


class _Stepper:
    """Precomputed one-step kernel for a fixed (params, h) and batch size M,
    acting on half spectra of shape (M, K+1): modes k = 0..K, one row per
    batch member.  The k = 0 slot of every output is zero.

    The stages compute into work arrays made here once.  Each scheme
    performs the operations of the expressions quoted in its comment, in
    the same order, so the buffering changes no bit of the result.
    """

    def __init__(self, params: FlowParams, h: float, M: int):
        self.h = h
        g = params.grid
        lam, self.convect = _symbols(g, params.gamma)
        self.forcing = params.forcing.coef
        self.E = np.exp(lam * (h / 2.0))
        self.E2 = np.exp(lam * h)
        if params.scheme == "etdrk4":
            self.Q, self.f1, f2, self.f3 = _etdrk4_coeffs(lam, h)
            self.f2x2 = 2.0 * f2
            self._step = self._etdrk4
        else:
            self._step = self._ifrk4
        self.grid = g
        self._phys = np.empty((M, g.P))
        self._spec = np.empty((M, g.P // 2 + 1), dtype=np.complex128)
        self._n = [np.empty((M, g.K + 1), dtype=np.complex128) for _ in range(4)]
        self._tmp = [np.empty((M, g.K + 1), dtype=np.complex128) for _ in range(2)]

    def nonlinear(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Quadratic + forcing part of du/dt, -(i k / 2)(u*u)_k + f_k, written
        to out (which may be c); zero at k = 0 because f is mean-zero.  The
        product is computed in the work arrays."""
        uu = product_half(c, c, self.grid, phys=self._phys, spec=self._spec)
        np.multiply(self.convect, uu, out=out)
        return np.add(out, self.forcing, out=out)

    def __call__(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One step from c, written to out; returns out.  out may be c: the
        stages read c before the last operation writes out."""
        self._step(c, out)
        out[:, 0] = 0.0
        return out

    def _ifrk4(self, c, out):
        # cE2 = c * E2
        # n1 = N(c)
        # n2 = N((c + (h / 2) * n1) * E)
        # n3 = N(c * E + (h / 2) * n2)
        # n4 = N(cE2 + h * (n3 * E))
        # out = cE2 + (h / 6) * (n1 * E2 + 2 * ((n2 + n3) * E) + n4)
        # The state multiplies the factor from the left throughout so that
        # the pure semigroup case reproduces linear_flow bit for bit.
        N, h, E, E2 = self.nonlinear, self.h, self.E, self.E2
        mul, add = np.multiply, np.add
        n1, n2, n3, n4 = self._n
        a, cE2 = self._tmp
        N(c, n1)
        N(mul(add(c, mul(h / 2.0, n1, out=a), out=a), E, out=a), n2)
        N(add(mul(c, E, out=a), mul(h / 2.0, n2, out=n3), out=n3), n3)
        mul(c, E2, out=cE2)
        N(add(cE2, mul(h, mul(n3, E, out=n4), out=n4), out=n4), n4)
        mul(2.0, mul(add(n2, n3, out=a), E, out=a), out=a)
        add(add(mul(n1, E2, out=n1), a, out=a), n4, out=a)
        add(cE2, mul(h / 6.0, a, out=a), out=out)

    def _etdrk4(self, c, out):
        # ch = c * E
        # n0 = N(c)
        # a = ch + Q * n0
        # na = N(a)
        # nb = N(ch + Q * na)
        # nc = N(a * E + Q * (2 * nb - n0))
        # out = c * E2 + f1 * n0 + (2 * f2) * (na + nb) + f3 * nc
        N, E, Q = self.nonlinear, self.E, self.Q
        mul, add = np.multiply, np.add
        n0, na, nb, nc = self._n
        ch, a = self._tmp
        mul(c, E, out=ch)
        N(c, n0)
        N(add(ch, mul(Q, n0, out=a), out=a), na)
        N(add(ch, mul(Q, na, out=nb), out=nb), nb)
        mul(Q, np.subtract(mul(2.0, nb, out=nc), n0, out=nc), out=nc)
        N(add(mul(a, E, out=ch), nc, out=nc), nc)
        add(mul(c, self.E2, out=ch), mul(self.f1, n0, out=a), out=ch)
        add(ch, mul(self.f2x2, add(na, nb, out=a), out=a), out=ch)
        add(ch, mul(self.f3, nc, out=a), out=out)


def _batch(states, grid: GridSpec) -> np.ndarray:
    """The coefficients of states on `grid`, stacked as a batch (M, K+1)."""
    for u in states:
        if u.grid != grid:
            raise ValueError(f"grid mismatch: {u.grid} vs {grid}")
    return np.stack([u.coef for u in states])


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
    g = params.grid
    lam, convect = _symbols(g, params.gamma)
    c = _batch((u,), g)
    # the forcing joins the quadratic term first, as in the stepper's N
    d = lam * c + (convect * product_half(c, c, g) + params.forcing.coef)
    d[:, 0] = 0.0
    return CoefSeq(g, d[0])


def step(u: CoefSeq, t: float, params: FlowParams, h: float | None = None) -> CoefSeq:
    """Advance one step of size h (params.h by default) from time t.

    Both schemes apply the factor exp((i k^3 - gamma) h) exactly between
    stage evaluations of the nonlinear + forcing part; with that part
    switched off the ifrk4 step reproduces :func:`linear_flow` to the bit.
    """
    h = params.h if h is None else h
    c = _batch((u,), params.grid)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        out = _Stepper(params, h, 1)(c, c)
        _half_sq_norms(out, t + h)
    return CoefSeq(params.grid, out[0])


def evolve_batch(
    u0s, T: float, params: FlowParams, sample_every: int = 1
) -> tuple[TrajectoryRecord, ...]:
    """March every initial state in u0s from t = 0 to T under one shared
    params, as one batch; one TrajectoryRecord per member, in order.

    Each member's record is bit-identical to its :func:`evolve` run.  A
    non-finite member stops the whole batch with StepFailureError carrying
    the time of its first non-finite state and the member's index; no state
    after that time is recorded.
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
    M = len(u0s)

    n_full = int(np.floor(T / h + 1e-9))
    h_last = T - n_full * h
    if h_last < 1e-12 * max(T, 1.0):
        h_last = 0.0

    times = [0.0]
    states = [[u0] for u0 in u0s]

    def record(t, c):
        times.append(t)
        for member, row in zip(states, c):
            member.append(CoefSeq(g, row))

    coef = _batch(u0s, g)
    sq = np.empty((n_full + 1 + (h_last > 0.0), M))
    sq[0] = _half_sq_norms(coef, 0.0)
    kernel = _Stepper(params, h, M)
    # the batch is stepped in place; CoefSeq copies the rows it records
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        for i in range(1, n_full + 1):
            kernel(coef, coef)
            sq[i] = _half_sq_norms(coef, i * h)
            if i % sample_every == 0 and not (i == n_full and h_last == 0.0):
                record(i * h, coef)
        dense_t = np.arange(n_full + 1) * h
        if h_last > 0.0:
            _Stepper(params, h_last, M)(coef, coef)
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


def energy_envelope(t, u0_l2: float, f_l2: float, gamma: float):
    """e^{-gamma t} ||u0|| + (||f||/gamma)(1 - e^{-gamma t}) at a time t or
    an array of times (a float or an array back).

    Monotone path from ||u0|| to the limit radius ||f||/gamma; bounds the l2
    norm of every solution for positive times.  At gamma = 0 it is the limit
    ||u0|| + ||f|| t, the conserved norm when f = 0.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0) or gamma < 0:
        raise ValueError(f"t and gamma must be >= 0, got t >= {np.min(t, initial=0.0)}, "
                         f"gamma = {gamma}")
    if gamma == 0:
        env = u0_l2 + f_l2 * t
    else:
        decay = np.exp(-gamma * t)
        env = decay * u0_l2 + (f_l2 / gamma) * (1.0 - decay)
    return env if env.ndim else float(env)
