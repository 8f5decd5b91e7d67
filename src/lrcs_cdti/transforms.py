"""Sparsifying transform and the group-sparsity penalty.

The transform is a separable multi-level symlet-4 wavelet over the three
spatial axes with periodic boundary handling.  Coefficients are packed
in place (approximation block in the low corner of each axis), so the
transform is an orthonormal map from a volume to an equally sized
coefficient volume: adjoint = inverse, and Parseval holds to machine
precision.

Groups are rows of the coefficient matrix: one group per transform-domain
location, spanning all diffusion encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Symlet-4 analysis lowpass, 8 taps.  Standard published values projected
# onto the exact orthonormality conditions (sum = sqrt(2), unit energy,
# vanishing even-shift autocorrelation) so that float64 round trips hold
# to ~1e-15; the projection moves no coefficient by more than 4e-13.
SYM4_DEC_LO = np.array([
    -0.0757657147890035,
    -0.02963552764594251,
    0.49761866763210466,
    0.8037387518055226,
    0.29785779560545095,
    -0.09921954357686891,
    -0.012603967262004611,
    0.03222310060383634,
])
# Quadrature mirror highpass: g[k] = (-1)^k h[L-1-k]
SYM4_DEC_HI = ((-1.0) ** np.arange(8)) * SYM4_DEC_LO[::-1]


def _axis_levels(extent: int, levels: int) -> int:
    """Largest feasible decomposition depth: each level halves the extent
    and requires it even."""
    out = 0
    while out < levels and extent >= 2 and extent % 2 == 0:
        extent //= 2
        out += 1
    return out


@dataclass(frozen=True)
class WaveletSpec:
    """Transform configuration: dims and the requested depth; the depth
    actually used per axis follows from the dims."""

    dims: tuple[int, int, int]
    levels: int = 4
    levels_per_axis: tuple[int, int, int] = field(init=False)

    def __post_init__(self):
        dims = tuple(int(v) for v in self.dims)
        if any(v < 1 for v in dims):
            raise ValidationError(f"zero-sized axis in dims {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "levels_per_axis",
                           tuple(_axis_levels(v, self.levels) for v in dims))


def _analysis_step(block: np.ndarray, axis: int) -> np.ndarray:
    """One periodic decimated filter-bank step along ``axis``.

    Output packs approximation coefficients in [0, n/2) and detail in
    [n/2, n) along the axis.
    """
    x = np.moveaxis(block, axis, 0)
    n = x.shape[0]
    half = n // 2
    idx = (2 * np.arange(half)[:, None] + np.arange(8)[None, :]) % n
    windows = x[idx]                       # (half, 8, ...)
    approx = np.tensordot(SYM4_DEC_LO, windows, axes=(0, 1))
    detail = np.tensordot(SYM4_DEC_HI, windows, axes=(0, 1))
    out = np.concatenate([approx, detail], axis=0)
    return np.moveaxis(out, 0, axis)


def _synthesis_step(block: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint (= inverse) of :func:`_analysis_step`."""
    y = np.moveaxis(block, axis, 0)
    n = y.shape[0]
    half = n // 2
    approx, detail = y[:half], y[half:]
    x = np.zeros_like(y)
    idx = (2 * np.arange(half)[:, None] + np.arange(8)[None, :]) % n
    for m in range(8):
        # indices are distinct for a fixed tap (stride-2 residues), so
        # fancy-indexed accumulation is safe
        x[idx[:, m]] += SYM4_DEC_LO[m] * approx + SYM4_DEC_HI[m] * detail
    return np.moveaxis(x, 0, axis)


def wavelet_forward(volume: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Multi-level separable analysis; same shape out as in."""
    vol = np.asarray(volume)
    if vol.shape != spec.dims:
        raise ValidationError(f"volume shape {vol.shape} != spec dims {spec.dims}")
    out = vol.astype(np.result_type(vol.dtype, np.float64), copy=True)
    cur = list(spec.dims)
    for level in range(spec.levels):
        active = [ax for ax in range(3) if level < spec.levels_per_axis[ax]]
        if not active:
            break
        sl = tuple(slice(0, c) for c in cur)
        block = out[sl]
        for ax in active:
            block = _analysis_step(block, ax)
        out[sl] = block
        for ax in active:
            cur[ax] //= 2
    return out


def wavelet_adjoint(coeffs: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Adjoint of the orthonormal analysis: exact inverse."""
    arr = np.asarray(coeffs)
    if arr.shape != spec.dims:
        raise ValidationError(f"coefficient shape {arr.shape} != spec dims {spec.dims}")
    out = arr.astype(np.result_type(arr.dtype, np.float64), copy=True)
    # reconstruct the per-level block extents, then undo levels in reverse
    extents = []
    cur = list(spec.dims)
    for level in range(spec.levels):
        active = [ax for ax in range(3) if level < spec.levels_per_axis[ax]]
        if not active:
            break
        extents.append((list(cur), active))
        for ax in active:
            cur[ax] //= 2
    for cur, active in reversed(extents):
        sl = tuple(slice(0, c) for c in cur)
        block = out[sl]
        for ax in reversed(active):
            block = _synthesis_step(block, ax)
        out[sl] = block
    return out


def series_forward(matrix: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Apply the transform to each column of an M x K Casorati-layout matrix."""
    nx, ny, nz = spec.dims
    vols = matrix.reshape((nx, ny, nz, -1), order="F")
    out = np.empty_like(vols, dtype=np.complex128 if np.iscomplexobj(matrix) else np.float64)
    for k in range(vols.shape[3]):
        out[..., k] = wavelet_forward(vols[..., k], spec)
    return out.reshape(matrix.shape, order="F")


def series_adjoint(matrix: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    nx, ny, nz = spec.dims
    vols = matrix.reshape((nx, ny, nz, -1), order="F")
    out = np.empty_like(vols, dtype=np.complex128 if np.iscomplexobj(matrix) else np.float64)
    for k in range(vols.shape[3]):
        out[..., k] = wavelet_adjoint(vols[..., k], spec)
    return out.reshape(matrix.shape, order="F")


# ---------------------------------------------------------------------------
# Group penalty
# ---------------------------------------------------------------------------

def group_l12_norm(coeffs: np.ndarray) -> float:
    """Sum over locations of the l2 norm across encodings."""
    return float(np.linalg.norm(np.asarray(coeffs), axis=1).sum())


def group_shrink(z: np.ndarray, alpha: float) -> np.ndarray:
    """Row-wise l2 soft threshold: shrink each group toward zero by alpha,
    exactly zeroing groups at or below the threshold."""
    if alpha < 0:
        raise ValidationError(f"shrink threshold must be >= 0, got {alpha}")
    z = np.asarray(z)
    norms = np.linalg.norm(z, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > alpha, 1.0 - alpha / norms, 0.0)
    return z * scale[:, None]
