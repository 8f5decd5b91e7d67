"""Sparsifying transform and the group-sparsity penalty.

The transform is a separable multi-level symlet-4 wavelet over the three
spatial axes with periodic boundary handling.  Coefficients are packed
in place (approximation block in the low corner of each axis), so the
transform is an orthonormal map from a volume to an equally sized
coefficient volume: adjoint = inverse, and Parseval holds to machine
precision.

One level along an axis of extent n is a real orthogonal n x n analysis
matrix W with W[j, (2j + m) % n] += h[m] and W[n/2 + j, (2j + m) % n] +=
g[m] (lowpass h, highpass g); the sums keep extents below 8, where the
filter wraps more than once, periodic.  :class:`WaveletSpec` builds W for
every (level, axis).  The filter bank copies the (M, K) Casorati matrix
once in C order and views it as (nz, ny, nx, K), since m = x + nx (y + ny
z), with complex entries as real pairs (nz, ny, nx, 2K).  Each level
replaces its low-corner block by W applied along each active axis: one
real matmul over all columns, real and imaginary parts together, batched
over the axes in front of the active one.  The matmuls of a level write
into each other's buffers in turn, the block and one scratch buffer
that every level shares, so a transform makes two arrays of its
output's size (the output and the scratch) and, below the first level,
a copy of each smaller block.  The adjoint applies W^T with levels and
axes reversed.  At these extents (n <= 64) the dense product
spends n multiply-adds per sample where the banded form spends 8, but one
BLAS matmul per (level, axis) is faster than the 16 strided passes over
memory of the banded form.

The bank and the group shrink compute in the precision of their input:
float32 and complex64 stay single (float32 pairs, W cast to float32),
float64 and complex128 stay double, and any other input, integers
included, is taken as float64.

Groups are rows of the coefficient matrix: one group per transform-domain
location, spanning all diffusion encodings.
"""

from __future__ import annotations

import math
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


# the decomposition depth asked of every axis
WAVELET_LEVELS = 4


def _axis_levels(extent: int) -> int:
    """Largest feasible decomposition depth up to ``WAVELET_LEVELS``: each
    level halves the extent and requires it even."""
    out = 0
    while out < WAVELET_LEVELS and extent >= 2 and extent % 2 == 0:
        extent //= 2
        out += 1
    return out


def _analysis_matrix(n: int) -> np.ndarray:
    """One periodic decimated filter-bank level along an axis of extent n:
    approximation rows [0, n/2), detail rows [n/2, n)."""
    half = n // 2
    rows = np.arange(half)[:, None]
    cols = (2 * rows + np.arange(8)) % n
    w = np.zeros((n, n))
    np.add.at(w, (rows, cols), SYM4_DEC_LO)
    np.add.at(w, (half + rows, cols), SYM4_DEC_HI)
    return w


@dataclass(frozen=True)
class WaveletSpec:
    """Transform configuration for dims (nx, ny, nz): the depth used per
    axis is ``WAVELET_LEVELS`` where the extent allows it, less where not.

    ``plan`` holds, per level, the (nx, ny, nz) extent of the block the
    level transforms and its active axes, each with that extent's
    analysis matrix (see the module docstring).
    """

    dims: tuple[int, int, int]
    plan: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(v) for v in self.dims)
        if any(v < 1 for v in dims):
            raise ValidationError(f"zero-sized axis in dims {dims}")
        per_axis = tuple(_axis_levels(v) for v in dims)
        plan, cur = [], list(dims)
        for level in range(max(per_axis)):
            active = [ax for ax in range(3) if level < per_axis[ax]]
            plan.append((tuple(cur),
                         tuple((ax, _analysis_matrix(cur[ax])) for ax in active)))
            for ax in active:
                cur[ax] //= 2
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "plan", tuple(plan))


_FLOAT_DTYPES = tuple(np.dtype(t) for t in
                      (np.float32, np.float64, np.complex64, np.complex128))


def _work_dtype(dtype: np.dtype) -> np.dtype:
    """The input's own float or complex dtype; anything else as float64."""
    return dtype if dtype in _FLOAT_DTYPES else np.result_type(dtype, np.float64)


def _filter_bank(matrix: np.ndarray, spec: WaveletSpec, adjoint: bool) -> np.ndarray:
    """Analysis (or, with ``adjoint``, synthesis) of every column of an
    (nx*ny*nz, K) Casorati matrix in the input's precision; returns a
    new array."""
    nx, ny, nz = spec.dims
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != nx * ny * nz:
        raise ValidationError(f"series shape {arr.shape} does not have "
                              f"{nx * ny * nz} rows for dims {spec.dims}")
    out = np.array(arr, dtype=_work_dtype(arr.dtype), order="C")
    real = np.finfo(out.dtype).dtype
    vols = out.reshape(nz, ny, nx, arr.shape[1]).view(real)
    # each product writes into the other of two buffers: the block (the
    # output itself on the first level, a copy below it) and a scratch
    # buffer of the first level's size, shared by every level
    scratch = np.empty(vols.size, dtype=real)
    for extent, axes in (reversed(spec.plan) if adjoint else spec.plan):
        block = (slice(0, extent[2]), slice(0, extent[1]), slice(0, extent[0]))
        cur = np.ascontiguousarray(vols[block])
        shape = cur.shape
        spare = scratch[:cur.size].reshape(shape)
        for ax, w in (reversed(axes) if adjoint else axes):
            dim = 2 - ax                 # x, y, z are array axes 2, 1, 0
            lines = (math.prod(shape[:dim]), shape[dim], -1)
            np.matmul((w.T if adjoint else w).astype(real, copy=False),
                      cur.reshape(lines), out=spare.reshape(lines))
            cur, spare = spare, cur
        vols[block] = cur
    return out


def series_forward(matrix: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Apply the transform to each column of an M x K Casorati-layout matrix."""
    return _filter_bank(matrix, spec, adjoint=False)


def series_adjoint(matrix: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Apply the adjoint (= inverse) transform to each column."""
    return _filter_bank(matrix, spec, adjoint=True)


# ---------------------------------------------------------------------------
# Group penalty
# ---------------------------------------------------------------------------

def group_shrink(z: np.ndarray, alpha: float) -> np.ndarray:
    """Row-wise l2 soft threshold: shrink each group toward zero by alpha,
    exactly zeroing groups at or below the threshold.  Keeps the dtype
    of float and complex input."""
    if alpha < 0:
        raise ValidationError(f"shrink threshold must be >= 0, got {alpha}")
    z = np.asarray(z)
    z = np.ascontiguousarray(z, dtype=_work_dtype(z.dtype))
    # complex rows as (re, im) pairs: one fused sum of squares per row
    pairs = z.view(np.finfo(z.dtype).dtype)
    norms = np.sqrt(np.einsum("ij,ij->i", pairs, pairs))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > alpha, 1.0 - alpha / norms, 0.0)
    return z * scale.astype(norms.dtype, copy=False)[:, None]
