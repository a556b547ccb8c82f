"""Truncated Fourier representation of mean-zero real fields on the 2*pi torus.

A real field u(x) = sum_k u_k e^{ikx} has u_{-k} = conj(u_k), so its half
spectrum k = 0..K carries it whole; that is the one stored layout.  The
paper works in L^2_0, so every field is mean-zero: u_0 = 0 is checked once,
where a field is made, and a field with a mean cannot be built.  All norms
are sequence norms over both signs of k: ||u||^2 = sum_{k != 0} |u_k|^2.

One product kernel, :func:`product_half`, multiplies real fields given by
their half spectra through real transforms.  The flow's quadratic term and
the normal-form operators (whose twisted operands are real fields too) use
it.  It calls numpy's pocketfft gufuncs (``numpy.fft._pocketfft_umath``,
shipped with numpy >= 2.0) directly, bound once below, because at a few
hundred points the Python wrapper of an ``np.fft`` call costs about as much
as the transform.  Its results are those of ``np.fft.irfft``/``np.fft.rfft``
with ``norm="forward"`` bit for bit; ``tests/test_spectral.py`` pins that,
so a numpy release that changes the gufuncs fails the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

# The transforms np.fft.irfft and np.fft.rfft (even and odd lengths) end in.
_irfft, _rfft_even, _rfft_odd = _pocketfft.irfft, _pocketfft.rfft_n_even, _pocketfft.rfft_n_odd


def next_alias_free_size(min_size: int) -> int:
    """Smallest 5-smooth integer >= min_size (keeps FFTs fast at odd sizes)."""
    n = int(min_size)
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@dataclass(frozen=True)
class GridSpec:
    """Spectral truncation: modes |k| <= K, stored as k = 0..K, and the
    physical sample count P, the smallest 5-smooth size >= 3K + 1.

    P >= 3K + 1 makes quadratic products exact truncations of the full
    convolution (no aliasing back into |k| <= K).
    """

    K: int
    P: int = field(init=False)

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        object.__setattr__(self, "P", next_alias_free_size(3 * self.K + 1))

    @property
    def modes(self) -> np.ndarray:
        """Stored wavenumbers 0..K."""
        return np.arange(self.K + 1)

    @property
    def size(self) -> int:
        return self.K + 1


@dataclass(frozen=True)
class CoefSeq:
    """Fourier coefficients u_k, k = 0..K, of a real mean-zero field; the
    negative side is u_{-k} = conj(u_k) and is never stored.

    The constructor rejects any nonzero u_0, so every instance lies in L^2_0
    and nothing downstream checks the mean again.  u_0 = -0.0 is zero.
    """

    grid: GridSpec
    coef: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coef, dtype=np.complex128)
        if c.shape != (self.grid.size,):
            raise ValueError(f"expected {self.grid.size} coefficients k = 0..K, got {c.shape}")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("non-finite coefficient")
        if c[0] != 0.0:
            raise ValueError(f"fields are mean-zero: the k = 0 coefficient must be 0, got {c[0]}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coef", c)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "CoefSeq":
        return cls(grid, np.zeros(grid.size, dtype=np.complex128))

    @classmethod
    def from_modes(cls, grid: GridSpec, modes: dict[int, complex]) -> "CoefSeq":
        """Build from explicit {k: u_k} entries with 1 <= k <= K; unspecified
        modes are zero."""
        c = np.zeros(grid.size, dtype=np.complex128)
        for k, v in modes.items():
            if not 1 <= k <= grid.K:
                raise ValueError(f"mode {k} outside 1..{grid.K}")
            c[k] = v
        return cls(grid, c)

    @classmethod
    def cosine(cls, grid: GridSpec, mode: int = 1, amplitude: float = 1.0) -> "CoefSeq":
        """amplitude * cos(mode * x), for 1 <= mode <= K."""
        return cls.from_modes(grid, {mode: amplitude / 2.0})

    def mode(self, k: int) -> complex:
        """u_k for any integer k: conj(u_{-k}) for k < 0, zero for |k| > K."""
        if abs(k) > self.grid.K:
            return 0.0 + 0.0j
        c = complex(self.coef[abs(k)])
        return c.conjugate() if k < 0 else c

    def with_coef(self, coef: np.ndarray) -> "CoefSeq":
        return CoefSeq(self.grid, coef)

    def l2(self) -> float:
        return sobolev_norm(self, 0.0)


def sobolev_norm(u: CoefSeq, s: float) -> float:
    """Homogeneous H^s sequence norm ( sum_{k != 0} |k|^{2s} |u_k|^2 )^{1/2},
    summed over both signs of k.

    s = 0 is the plain l2 norm.  u_0 = 0 on this class, so the homogeneous
    weight is well defined.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    x = np.abs(u.coef[1:]) ** 2
    if s != 0:
        x = np.arange(1, u.grid.K + 1, dtype=np.float64) ** (2.0 * s) * x
    # the terms of k < 0 repeat those of k > 0; adding them in the order
    # -K..-1, 1..K keeps the rounding of the sum over the whole spectrum
    return float(np.sqrt(np.sum(np.concatenate((x[::-1], x)))))


def product_half(
    a: np.ndarray, b: np.ndarray, grid: GridSpec, phys: np.ndarray | None = None,
    spec: np.ndarray | None = None,
) -> np.ndarray:
    """(u v)_k for k = 0..K, where u and v are the real fields whose
    coefficients k = 0..K' (K' <= K) are the last axes of a and b; their
    leading axes, the same for both, are a batch.

    Zero padding to P >= 3K+1 makes the result the exact truncation of u*v
    (to roundoff) in O(P log P), through real transforms of the real fields.
    Passing the same array twice saves one transform.  The imaginary parts
    of a[..., 0] and b[..., 0] are ignored.

    phys (real, shape (..., P)) and spec (complex, shape (..., P//2+1)) are
    optional work arrays for a caller that multiplies many times: the
    transforms and the product are written into them, with the same
    operations as without them; the result is a view of spec.  Without
    them the kernel allocates its own.

    The transforms are the pocketfft gufuncs that np.fft wraps, called with
    the factors np.fft passes for norm="forward" (1 to the inverse, 1/P to
    the forward transform), so the result equals
    rfft(irfft(a, n=P) * irfft(b, n=P))[..., :K+1] (norm="forward") bit for
    bit while skipping the wrapper's per-call argument handling.
    """
    P = grid.P
    if phys is None:
        phys = np.empty(a.shape[:-1] + (P,))
    if spec is None:
        spec = np.empty(a.shape[:-1] + (P // 2 + 1,), dtype=np.complex128)
    pa = _irfft(a, 1.0, out=phys)
    pb = pa if b is a else _irfft(b, 1.0, out=np.empty(b.shape[:-1] + (P,)))
    rfft = _rfft_even if P % 2 == 0 else _rfft_odd
    return rfft(np.multiply(pa, pb, out=phys), 1.0 / P, out=spec)[..., : grid.K + 1]


def power_decay(K: int, exponent: float) -> np.ndarray:
    """k^-exponent for k = 1..K, as scalar powers (numpy's array power can
    differ from them in the last bit): the amplitude law of random fields."""
    return np.array([k**-exponent for k in range(1, K + 1)])


def random_rough_state(grid: GridSpec, sigma: float, seed: int, target_l2: float) -> CoefSeq:
    """Random real mean-zero field with |u_k| ~ |k|^{-sigma}, rescaled to target_l2.

    sigma > 1/2 keeps the l2 norm summable as K grows, so the family is
    bounded in l2 but unbounded in H^s for s > sigma - 1/2.  Phases come from
    a seeded 64-bit PCG generator, so the low modes are identical across
    truncations with the same seed.
    """
    if sigma <= 0.5:
        raise ValueError(f"sigma must exceed 1/2, got {sigma}")
    if target_l2 <= 0:
        raise ValueError(f"target_l2 must be positive, got {target_l2}")
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=grid.K)
    half = power_decay(grid.K, sigma) * np.exp(1j * phases)  # k = 1..K
    raw = CoefSeq(grid, np.concatenate(([0.0], half)))
    return raw.with_coef(raw.coef * (target_l2 / raw.l2()))
