"""Truncated Fourier representation of mean-zero real fields on the 2*pi torus.

A field u(x) = sum_k u_k e^{ikx} is stored as the complex coefficient vector
for k = -K..K.  Real fields satisfy u_{-k} = conj(u_k); mean-zero fields have
u_0 = 0.  All norms are sequence norms: ||u||^2 = sum_{k != 0} |u_k|^2.

Two product kernels work on raw arrays: :func:`convolve_raw` on full -K..K
arrays with any complex entries (the twisted operands of the normal-form
operators), and :func:`square_half` on half spectra k = 0..K of real fields
(the flow's quadratic term), which needs only real transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-9


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
    """Spectral truncation: modes |k| <= K, physical sample count P.

    P >= 3K + 1 makes quadratic products exact truncations of the full
    convolution (no aliasing back into |k| <= K).
    """

    K: int
    P: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.P == 0:
            object.__setattr__(self, "P", next_alias_free_size(3 * self.K + 1))
        if self.P < 3 * self.K + 1:
            raise ValueError(f"P={self.P} violates P >= 3K+1 = {3 * self.K + 1}")

    @property
    def modes(self) -> np.ndarray:
        """Wavenumbers -K..K in storage order."""
        return np.arange(-self.K, self.K + 1)

    @property
    def size(self) -> int:
        return 2 * self.K + 1

    @cached_property
    def fft_index(self) -> np.ndarray:
        """Positions of the modes -K..K in a length-P FFT output."""
        idx = np.mod(self.modes, self.P)
        idx.setflags(write=False)
        return idx


@dataclass(frozen=True)
class CoefSeq:
    """Fourier coefficients of a real field, full symmetric range -K..K.

    The redundant negative side is stored deliberately: Hermitian symmetry is
    then a checkable invariant instead of a construction artifact, and the
    resonance sums index negative wavenumbers directly.

    Mean-zero (u_0 = 0) holds for every constructor in this module; products
    from :func:`truncated_convolution` keep their mean in the k = 0 slot until
    the caller projects it away.
    """

    grid: GridSpec
    coef: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coef, dtype=np.complex128)
        if c.shape != (self.grid.size,):
            raise ValueError(f"expected {self.grid.size} coefficients, got {c.shape}")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("non-finite coefficient")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coef", c)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "CoefSeq":
        return cls(grid, np.zeros(grid.size, dtype=np.complex128))

    @classmethod
    def from_modes(cls, grid: GridSpec, modes: dict[int, complex]) -> "CoefSeq":
        """Build from explicit {k: u_k} entries; unspecified modes are zero."""
        c = np.zeros(grid.size, dtype=np.complex128)
        for k, v in modes.items():
            if abs(k) > grid.K:
                raise ValueError(f"mode {k} outside |k| <= {grid.K}")
            c[k + grid.K] = v
        return cls(grid, c)

    @classmethod
    def cosine(cls, grid: GridSpec, mode: int = 1, amplitude: float = 1.0) -> "CoefSeq":
        """amplitude * cos(mode * x)."""
        a = amplitude / 2.0
        return cls.from_modes(grid, {mode: a, -mode: a})

    def mode(self, k: int) -> complex:
        if abs(k) > self.grid.K:
            return 0.0 + 0.0j
        return complex(self.coef[k + self.grid.K])

    @classmethod
    def from_half(cls, grid: GridSpec, half: np.ndarray) -> "CoefSeq":
        """Real field from its coefficients k = 0..K; the negative side is
        rebuilt by conjugation, so the result is exactly Hermitian."""
        c = np.empty(grid.size, dtype=np.complex128)
        c[grid.K :] = half
        c[: grid.K] = np.conj(half[: 0 : -1])
        return cls(grid, c)

    def with_coef(self, coef: np.ndarray) -> "CoefSeq":
        return CoefSeq(self.grid, coef)

    def hermitian_defect(self) -> float:
        """max_k |u_{-k} - conj(u_k)|; zero for a real field."""
        return float(np.max(np.abs(self.coef[::-1] - np.conj(self.coef))))

    def is_real_field(self, tol: float = HERMITIAN_TOL) -> bool:
        return self.hermitian_defect() <= tol

    def is_mean_zero(self) -> bool:
        return self.coef[self.grid.K] == 0.0

    def l2(self) -> float:
        return sobolev_norm(self, 0.0)


def sobolev_norm(u: CoefSeq, s: float) -> float:
    """Homogeneous H^s sequence norm ( sum_{k != 0} |k|^{2s} |u_k|^2 )^{1/2}.

    s = 0 is the plain l2 norm.  The k = 0 entry never contributes, so the
    homogeneous weight is well defined on this class.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    k = u.grid.modes.astype(np.float64)
    mask = k != 0
    w = np.abs(k[mask]) ** (2.0 * s) if s != 0 else 1.0
    return float(np.sqrt(np.sum(w * np.abs(u.coef[mask]) ** 2)))


def project_mean_zero(u: CoefSeq) -> CoefSeq:
    """Zero the k = 0 coefficient; identity on already mean-zero input."""
    if u.is_mean_zero():
        return u
    c = u.coef.copy()
    c[u.grid.K] = 0.0
    return u.with_coef(c)


def _pad_to_physical(coef: np.ndarray, grid: GridSpec) -> np.ndarray:
    buf = np.zeros(grid.P, dtype=np.complex128)
    buf[: grid.K + 1] = coef[grid.K :]          # k = 0..K
    buf[grid.P - grid.K :] = coef[: grid.K]     # k = -K..-1
    return buf


def to_physical(u: CoefSeq) -> np.ndarray:
    """Real samples u(x_j) on the uniform grid x_j = 2*pi*j/P."""
    vals = np.fft.ifft(_pad_to_physical(u.coef, u.grid)) * u.grid.P
    imag = float(np.max(np.abs(vals.imag))) if u.grid.P else 0.0
    scale = max(1.0, float(np.max(np.abs(vals.real))))
    if imag > 1e-10 * scale:
        raise ValueError(f"field is not real: imaginary residue {imag:.3e}")
    return vals.real


def from_physical(samples: np.ndarray, grid: GridSpec) -> CoefSeq:
    """Inverse of :func:`to_physical` for band-limited real samples."""
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        if np.max(np.abs(samples.imag)) > 1e-10 * max(1.0, np.max(np.abs(samples.real))):
            raise ValueError("samples are not real-valued")
        samples = samples.real
    if samples.shape != (grid.P,):
        raise ValueError(f"expected {grid.P} samples, got {samples.shape}")
    spec = np.fft.fft(samples) / grid.P
    return CoefSeq(grid, spec[grid.fft_index])


def convolve_raw(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(a b)_k = sum_{m+n=k, |m|,|n| <= K} a_n b_m for |k| <= K, on raw
    coefficient arrays of length 2K+1 (any complex entries, no symmetry
    assumed).

    Zero-padded transforms of size P >= 3K+1 make the result the exact
    truncation of the full convolution (to roundoff) in O(P log P).  Passing
    the same array twice saves one inverse transform.
    """
    pa = np.fft.ifft(_pad_to_physical(a, grid)) * grid.P
    pb = pa if b is a else np.fft.ifft(_pad_to_physical(b, grid)) * grid.P
    return (np.fft.fft(pa * pb) / grid.P)[grid.fft_index]


def square_half(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(u u)_k for k = 0..K, where u is the real field whose coefficients
    k = 0..K are the last axis of c (shape (..., K+1); leading axes are a
    batch).

    Same zero padding to P >= 3K+1 as :func:`convolve_raw`, so the result is
    the exact truncation of u*u, but through real transforms of the real
    field.  The imaginary part of c[..., 0] is ignored.
    """
    vals = np.fft.irfft(c, n=grid.P, norm="forward")
    return np.fft.rfft(vals * vals, norm="forward")[..., : grid.K + 1]


def truncated_convolution(u: CoefSeq, v: CoefSeq) -> CoefSeq:
    """:func:`convolve_raw` on coefficient sequences of one grid.

    The product of two real mean-zero fields is Hermitian but generally not
    mean-zero; the mean stays in the k = 0 slot for the caller to project.
    """
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: {u.grid} vs {v.grid}")
    return CoefSeq(u.grid, convolve_raw(u.coef, v.coef, u.grid))


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
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.size, dtype=np.complex128)
    for k in range(1, grid.K + 1):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        val = k ** (-sigma) * np.exp(1j * phase)
        c[k + grid.K] = val
        c[-k + grid.K] = np.conj(val)
    raw = CoefSeq(grid, c)
    return raw.with_coef(c * (target_l2 / raw.l2()))
