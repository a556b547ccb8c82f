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
transform, squared, one transform).  It calls numpy's pocketfft transforms
directly: at these sizes the ``np.fft`` wrappers' argument handling costs
about as much as a transform, and the results are the wrappers' bit for
bit.  A single run is a batch of one, and each member of a fixed-step
batch is bit-identical to its solo run.

No stage forms the nonlinear term N(c) = -(i k / 2)(u^2)_k + f_k.  Each
stage input and the step's output are the state times its linear factor,
plus per-mode weights times the raw squares y = (u^2)_k, plus a constant
per mode: the convective factor -i k / 2 and the forcing are folded into
weights made once per step size.  The stages allocate nothing.  The kernel
for one (params, h, M) owns its work arrays: a physical buffer (M, P), one
spectrum (M, P//2+1) per stage that product_half squares into (so the four
squares live side by side) and three temporaries; kernels for other step
sizes of the same batch share them.  Every other operation is an in-place
ufunc.  Each in-place operation is one of the folded expressions quoted in
the kernel, applied to the same operands in the same order, so every state
is bit-identical to those expressions' result; ``tests/test_flow.py`` pins
this against an allocating copy of them, and holds the folded step to the
N-form scheme at roundoff.

A step is the square of the state, which does not depend on the step
size, then the stages that do.  After the square the physical buffer holds
u(x)^2 of every member, so max|u| costs one reduction, and the square's
k = 0 slot is (u^2)_0 = sum_k |u_k|^2 = ||u||^2.  :func:`evolve_batch`
steps its batch in place and takes every dense l2 norm from that slot; it
checks the stored norms for finiteness before each recorded state and at
the end, and sums the norm of the final state, which starts no step,
directly.  Each member's samples are one read-only array, whose l2 norms
are summed from it (the dense slots differ by roundoff).
``evolve_batch(..., coarsen=True)`` uses max|u| to take, at each step,
the longest step h * 2^j whose convective number
(h * 2^j) * K * max|u| stays within CONVECTIVE_LIMIT, among those
that divide the sampling stride and start on a multiple of 2^j: every
sample lands on its fixed-step time, and h becomes the finest step.  Only
the attractor probe under ETDRK4 coarsens; every other run, and every
IFRK4 run (whose stage quadrature saturates as |k^3 h| grows), keeps its
fixed step and does no reduction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

# sobolev_norm stays bound here: the traced benchmark (bench/tracing.py)
# patches it on this module.
from .spectral import CoefSeq, GridSpec, product_half, sobolev_norm, sobolev_norms  # noqa: F401


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


# the largest (step size) * K * max|u| at which a coarsened run
# (evolve_batch(..., coarsen=True)) may take a step longer than params.h
CONVECTIVE_LIMIT = 0.5


def default_step(K: int) -> float:
    # the convective term limits h; the exactly-integrated linear part does not
    return min(1e-3, 0.5 / K)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled states of one run: strictly increasing times, one row of coefs each.

    coefs (read-only) holds the half spectrum k = 0..K of each sampled
    state and l2_norms its l2 norm; dense_times /
    dense_l2 carry the l2 norm at every solver step (states are only kept
    at the sampled times).  step_counts maps each step size the batch took
    to its number of steps; max_convective is the batch's worst
    (step size) * K * max|u| at the start of a step, measured only by a
    coarsened run (None otherwise).  :func:`evolve_batch` is the one
    constructor.
    """

    times: np.ndarray
    coefs: np.ndarray = field(repr=False)
    gamma: float
    forcing_l2: float
    l2_norms: np.ndarray
    dense_times: np.ndarray = field(repr=False)
    dense_l2: np.ndarray = field(repr=False)
    step_counts: dict
    max_convective: float | None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")


def linear_multiplier(k, t, gamma: float):
    """exp((i k^3 - gamma) t): the exact damped Airy factor for modes k at times t."""
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

    A step is :meth:`first`, the square of the state, which does not depend
    on h, then :meth:`finish`, the stages that do.  The stages use the raw
    squares y = (u^2)_k: the convective factor -i k / 2 and the forcing are
    folded into the per-mode weights that :meth:`_set_step` makes, so
    N = -(i k / 2) y + f is never formed.  The stages compute into work
    arrays made here once; :meth:`at_step` gives a kernel for another step
    size that shares them.  Each scheme performs the operations of the
    expressions quoted in its comment, in the same order, so the buffering
    changes no bit of the result.
    """

    def __init__(self, params: FlowParams, h: float, M: int):
        g = params.grid
        self._lam, self._convect = _symbols(g, params.gamma)
        self._scheme = params.scheme
        self._forcing = params.forcing.coef
        self.grid = g
        self._phys = np.empty((M, g.P))
        # one spectrum per stage square; finish reads the first square, which
        # first() left there, through _y1
        self._spec = [np.empty((M, g.P // 2 + 1), dtype=np.complex128) for _ in range(4)]
        self._y1 = self._spec[0][:, : g.K + 1]
        self._tmp = [np.empty((M, g.K + 1), dtype=np.complex128) for _ in range(3)]
        self._set_step(h)

    def _set_step(self, h: float) -> None:
        lam, cv, f = self._lam, self._convect, self._forcing
        self.h = h
        self.E = E = np.exp(lam * (h / 2.0))
        self.E2 = E2 = np.exp(lam * h)
        # N = cv * y + f, so a scheme's weight w on N becomes the weight
        # w * cv on the square y (C, QC, W) plus the constant w * f (F, QF, Fs)
        if self._scheme == "etdrk4":
            Q, f1, f2, f3 = _etdrk4_coeffs(lam, h)
            self.QC, self.QF = Q * cv, Q * f
            self.W = (f1 * cv, (2.0 * f2) * cv, f3 * cv)
            self.Fs = (f1 + 4.0 * f2 + f3) * f
        else:
            self.C = ((h / 2.0) * E * cv, (h / 2.0) * cv, h * E * cv)
            self.F = ((h / 2.0) * E * f, (h / 2.0) * f, h * E * f)
            self.W = ((h / 6.0) * E2 * cv, (h / 3.0) * E * cv, (h / 6.0) * cv)
            self.Fs = (h / 6.0) * (E2 + 4.0 * E + 1.0) * f

    def at_step(self, h: float) -> "_Stepper":
        """The kernel for step size h on the same params and batch, sharing
        this one's work arrays (so a step of either overwrites them)."""
        other = copy.copy(self)
        other._set_step(h)
        return other

    def _square(self, a: np.ndarray, stage: int) -> np.ndarray:
        """(u^2)_k, k = 0..K, of the fields a, into the stage's spectrum."""
        return product_half(a, a, self.grid, phys=self._phys, spec=self._spec[stage])

    def first(self, c: np.ndarray) -> np.ndarray:
        """The square (u^2)_k, k = 0..K, of every member, the first stage of
        every step size; returns it.  Its k = 0 slot is sum_k |u_k|^2 = ||u||^2.
        Until the next stage runs, the physical buffer holds u(x)^2."""
        return self._square(c, 0)

    def max_abs_u(self) -> float:
        """max |u(x)| over the batch, read from the physical buffer that
        :meth:`first` leaves holding u(x)^2."""
        return float(np.sqrt(self._phys.max()))

    def finish(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The rest of the step from c after :meth:`first` (by this kernel or
        one sharing its work arrays), written to out; returns out.  out may
        be c: the stages read c before the last operation writes out."""
        # dispatched here, not through a bound method stored on self: that
        # would be a reference cycle, and the kernel's work arrays would
        # outlive the run until the cyclic collector found them
        if self._scheme == "etdrk4":
            self._etdrk4(c, out)
        else:
            self._ifrk4(c, out)
        out[:, 0] = 0.0
        return out

    def _ifrk4(self, c, out):
        # cE, cE2 = c * E, c * E2
        # y1 = (c^2)_k                    (first)
        # y2 = sq(cE + C1 * y1 + F1)
        # y3 = sq(cE + C2 * y2 + F2)
        # y4 = sq(cE2 + C3 * y3 + F3)
        # out = cE2 + W1 * y1 + W23 * (y2 + y3) + W4 * y4 + Fs
        # The state multiplies the factor from the left throughout so that
        # the pure semigroup case reproduces linear_flow bit for bit.
        (C1, C2, C3), (F1, F2, F3), (W1, W23, W4) = self.C, self.F, self.W
        mul, add, sq = np.multiply, np.add, self._square
        y1, a = self._y1, self._tmp[2]
        cE, cE2 = mul(c, self.E, out=self._tmp[0]), mul(c, self.E2, out=self._tmp[1])
        y2 = sq(add(add(cE, mul(C1, y1, out=a), out=a), F1, out=a), 1)
        y3 = sq(add(add(cE, mul(C2, y2, out=a), out=a), F2, out=a), 2)
        y4 = sq(add(add(cE2, mul(C3, y3, out=a), out=a), F3, out=a), 3)
        add(cE2, mul(W1, y1, out=a), out=cE2)
        add(cE2, mul(W23, add(y2, y3, out=a), out=a), out=cE2)
        add(cE2, mul(W4, y4, out=a), out=cE2)
        add(cE2, self.Fs, out=out)

    def _etdrk4(self, c, out):
        # cE = c * E
        # y0 = (c^2)_k                    (first)
        # a = cE + QC * y0 + QF
        # ya = sq(a)
        # yb = sq(cE + QC * ya + QF)
        # yc = sq(a * E + QC * (2 * yb - y0) + QF)
        # out = c * E2 + W0 * y0 + Wab * (ya + yb) + Wc * yc + Fs
        E, QC, QF, (W0, Wab, Wc) = self.E, self.QC, self.QF, self.W
        mul, add, sq = np.multiply, np.add, self._square
        y0 = self._y1
        cE, a, b = self._tmp
        mul(c, E, out=cE)
        ya = sq(add(add(cE, mul(QC, y0, out=a), out=a), QF, out=a), 1)
        yb = sq(add(add(cE, mul(QC, ya, out=b), out=b), QF, out=b), 2)
        mul(QC, np.subtract(mul(2.0, yb, out=b), y0, out=b), out=b)
        yc = sq(add(add(mul(a, E, out=a), b, out=a), QF, out=a), 3)
        mul(c, self.E2, out=cE)
        add(cE, mul(W0, y0, out=a), out=cE)
        add(cE, mul(Wab, add(ya, yb, out=a), out=a), out=cE)
        add(cE, mul(Wc, yc, out=a), out=cE)
        add(cE, self.Fs, out=out)


def _batch(states, grid: GridSpec) -> np.ndarray:
    """The coefficients of states on `grid`, stacked as a batch (M, K+1)."""
    for u in states:
        if u.grid != grid:
            raise ValueError(f"grid mismatch: {u.grid} vs {grid}")
    return np.stack([u.coef for u in states])


def _raise_first_failure(sq: np.ndarray, times) -> None:
    """Raise StepFailureError if sq, one row of per-member squared norms per
    state at times[row], holds a non-finite value: name the time of the
    first such row and the first non-finite member in it."""
    ok = np.isfinite(sq)
    if not ok.all():
        row = int(np.argmin(ok.all(axis=1)))
        m = int(np.argmin(ok[row]))
        raise StepFailureError(times[row], m, f"batch member {m}" if sq.shape[1] > 1 else "")


def _half_sq_norms(c: np.ndarray, t: float) -> np.ndarray:
    """Per-member sum_{k >= 1} |c_k|^2 of a half-spectrum batch (half the
    squared l2 norm), for a state that starts no step: the one :func:`step`
    returns and the last of an :func:`evolve_batch` run (every earlier state's
    norm is the k = 0 slot of its step's first square).  A non-finite state
    gives a non-finite sum, so this also checks finiteness: it raises
    StepFailureError naming the first failing member and the time t."""
    v = c[:, 1:].view(np.float64)
    sq = np.einsum("ij,ij->i", v, v)
    _raise_first_failure(sq[None], (t,))
    return sq


def rhs(u: CoefSeq, params: FlowParams) -> CoefSeq:
    """du_k/dt = (i k^3 - gamma) u_k - (i k / 2)(u*u)_k + f_k, k != 0."""
    g = params.grid
    lam, convect = _symbols(g, params.gamma)
    c = _batch((u,), g)
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
    kernel = _Stepper(params, h, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        kernel.first(c)
        out = kernel.finish(c, c)
        _half_sq_norms(out, t + h)
    return CoefSeq(params.grid, out[0])


def evolve_batch(
    u0s, T: float, params: FlowParams, sample_every: int = 1, *, coarsen: bool = False
) -> tuple[TrajectoryRecord, ...]:
    """March every initial state in u0s from t = 0 to T under one shared
    params, as one batch; one TrajectoryRecord per member, in order.

    Without coarsen, each member's record is bit-identical to its
    :func:`evolve` run.  A non-finite member stops the whole batch with
    StepFailureError carrying the time of its first non-finite state and
    the member's index; no state after that time is recorded.  The dense
    l2 norm of each state is the k = 0 slot of the first square of the
    step it starts, checked for finiteness at each sample and at the end;
    only the final state's norm is summed directly.

    With coarsen, params.h is the finest step.  At step index i (in units
    of h) the batch takes the longest step n * h, n = 2^j, for which n
    divides both sample_every and i, i + n is at most the last full step,
    and (n * h) * K * max|u| <= CONVECTIVE_LIMIT for the batch's state at i.
    Every sample therefore lands on its fixed-step time.  max|u| costs one
    reduction per step, of the u(x)^2 the first stage leaves behind; a
    step of n = 1 is the fixed step to the bit.  The batch shares one
    schedule, so a member is no longer bit-identical to its solo run.
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

    coef = _batch(u0s, g)
    buf = np.empty((M, n_full // sample_every + 2, g.size), dtype=np.complex128)
    times = []  # buf[:, j] is the batch at times[j]
    # time and squared l2 norms of every dense state; rows before `checked`
    # are known to be finite
    dense_t = np.empty(n_full + 2)
    sq = np.empty((n_full + 2, M))
    dense_t[0] = 0.0
    checked = 0

    def check(upto):
        # before a state is recorded: no record may outlive an earlier
        # failure or hold a non-finite state
        nonlocal checked
        _raise_first_failure(sq[checked:upto], dense_t[checked:upto])
        checked = upto

    def record(t, c):
        buf[:, len(times)] = c
        times.append(t)

    record(0.0, coef)
    kernel = _Stepper(params, h, M)
    top = 1  # the longest step in units of h: a power of two dividing sample_every
    while coarsen and sample_every % (2 * top) == 0 and 2 * top <= n_full:
        top *= 2
    kernels = {1 << j: kernel.at_step((1 << j) * h) for j in range(1, top.bit_length())}
    kernels[1] = kernel
    counts = dict.fromkeys(kernels, 0)
    conv_per_h = h * g.K
    worst = 0.0
    steps = i = 0
    # the batch is stepped in place; record copies it
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        while i < n_full:
            sq[steps] = kernel.first(coef)[:, 0].real
            if i and i % sample_every == 0:
                check(steps + 1)
                record(i * h, coef)
            if coarsen:
                conv = conv_per_h * kernel.max_abs_u()
                n = top
                while n > 1 and (i % n or i + n > n_full or not n * conv <= CONVECTIVE_LIMIT):
                    n //= 2
                worst = max(worst, n * conv)
            else:
                n = 1
            kernels[n].finish(coef, coef)
            i += n
            steps += 1
            counts[n] += 1
            dense_t[steps] = i * h
        if h_last > 0.0:
            last = kernel.at_step(h_last)
            sq[steps] = last.first(coef)[:, 0].real
            if i and i % sample_every == 0:
                check(steps + 1)
                record(i * h, coef)
            if coarsen:
                worst = max(worst, h_last * g.K * last.max_abs_u())
            last.finish(coef, coef)
            steps += 1
            dense_t[steps] = T
        check(steps)
        sq[steps] = 2.0 * _half_sq_norms(coef, T)
    record(T, coef)
    buf.setflags(write=False)
    coefs = buf[:, : len(times)]  # member m's rows are coefs[m]
    l2 = sobolev_norms(coefs, 0.0)

    step_counts = {n * h: counts[n] for n in sorted(counts) if counts[n]}
    if h_last > 0.0:
        step_counts = {h_last: 1} | step_counts  # h_last < h: the smallest size first
    return tuple(
        TrajectoryRecord(
            times=np.array(times), coefs=coefs[m], gamma=params.gamma,
            forcing_l2=params.forcing.l2(), l2_norms=l2[m],
            dense_times=dense_t[: steps + 1].copy(), dense_l2=np.sqrt(sq[: steps + 1, m]),
            step_counts=dict(step_counts), max_convective=worst if coarsen else None,
        )
        for m in range(M)
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
        # expm1 keeps 1 - e^{-gamma t} ~ gamma t where the subtraction cancels
        env = np.exp(-gamma * t) * u0_l2 + (f_l2 / gamma) * -np.expm1(-gamma * t)
    return env if env.ndim else float(env)
