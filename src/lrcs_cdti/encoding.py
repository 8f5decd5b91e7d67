"""Forward signal model: coil-weighted Fourier encoding with line-based
undersampling, plus sampling-pattern generation.

The forward model A is the complex128 simulation, :func:`coil_kspace`
then :func:`extract_samples`.  The solver applies only A*
(:func:`adjoint_matrix`) and A*A (:func:`normal_matrix`).

Layout conventions:

* Image volumes are (nx, ny, nz).  The two in-plane axes are transformed
  by a centered unitary 2-D DFT per slice; axis 0 (x) is the fully
  sampled readout, axis 1 (y) the phase-encode axis whose lines the mask
  keeps or drops.  DC sits at index n//2 after centering.
* The centered DFT is one formula for every grid size: per axis,
  F_c = kappa diag(b) F diag(a) with a = b = exp(2 pi i (n//2) x / n)
  and kappa = exp(-2 pi i (n//2)^2 / n) (see :func:`_centering_ramps`).
  The operators fold the image-space ramp ``a`` into the precomputed
  coil fields and apply ``kappa b`` on the k-space grid.
* A*A runs no DFT.  ``kappa b`` cancels against its conjugate, and the
  mask is constant along the readout, so F_x^H F_x = I and the x part
  of ``a`` cancels in the conjugate coil combination.  What is left is
  A*A = sum_c (S_c a)^H F_y^H M F_y (S_c a) per (column, slice), with
  F_y the plain unitary DFT along the lines: the coil sum of squares on
  the leading fully sampled columns (F_y^H F_y = I; the b=0 ones), and
  R^H R with R the kept rows of F_y on every later column, fully kept
  or not (R = F_y gives R^H R = I to float32 rounding).  The adjoint
  keeps the 2-D DFT because it maps from the packed samples.
* A*A works on the N_part columns after the leading fully sampled ones
  in blocks of about ``NORMAL_BLOCK_BYTES`` (256 KiB), so that the
  per-coil temporaries of a block stay in L2 (:func:`_column_blocks`: 2
  columns a block on a 64x64x4 grid, 6 on 32x32x3).  Blocks keep each
  entry's operations and the coil summation order, so the result does
  not depend on the block size.  Each block accumulates in its slice of
  the output; all reuse one coil buffer and one kept-line buffer.
* ``normal_matrix`` takes a diagonal shift s and returns (A*A + s I) x,
  adding s x to each block after its conjugate phase, while the block
  is still in cache: the ADMM's CG operator A*A + (rho/2) I costs one
  call and no whole-grid pass for the shift.  The sum is the same
  float32 operation as adding s x afterwards, so the result is
  bit-equal to ``normal_matrix(model, x) + s * x``.  It writes into a
  caller's grid when given one (``out``), so a solver that applies it
  once per CG step reuses one grid.
* The model keeps one complex64 copy of the phase, P, the transposed
  grid ``_phase_t``; ``model.phase.values`` is its (M, N) view, and the
  caller's complex128 map is not kept.  ``normal_matrix`` conjugates
  each block's phase into a spent block buffer while the block is in
  cache, and :func:`unphase` conjugates it once per call.
* The coil and line fields depend on the coils and the mask alone, so
  :func:`with_phase` makes the phased model of a problem from its
  phase-free one by sharing those arrays and adding the phase.
* The operators compute in single precision: :class:`EncodingModel`
  stores its fields as complex64 (``_sos`` as float32), and
  ``adjoint_matrix`` and ``normal_matrix`` cast their input to
  complex64 and return complex64.  :class:`KSpaceData` holds its
  samples in that precision too.  The simulation stays in complex128:
  ``coil_kspace`` makes one grid, the coil product, and runs the DFT
  on it in place, and ``ifft2c`` and ``coil_combine`` take the fully
  sampled least squares in double precision.  ``coil_kspace`` of one
  coil's map is that coil's slice of the grid, so the simulation can
  run one coil at a time: ``extract_samples`` takes per-coil grids, of
  one coil too, and ``coil_combine`` takes them from an iterator as
  well, letting each go once it is added.
* The phase enters the adjoint last (:func:`unphase`), so a solver
  holding A*(d) of the phase-free model derives that of a phased one
  with one product and no DFT.
* The module needs numpy alone.  The 2-D DFTs are ``numpy.fft`` passes
  in place (:func:`_fft2_inplace`; numpy >= 2.0 keeps complex64, where
  1.x computes it in complex128), on the calling thread, and the coil
  maps' smoothing is a separable numpy Gaussian
  (:func:`_gaussian_smooth`).  Both reproduce the scipy routines they
  replaced bit for bit, apart from the complex64 adjoint's scaling off
  a 64x64 grid (about 1 ulp).
* Full k-space grids are (C, N, nz, ny, nx): (coil, column, slice, line,
  readout), keeping the transformed axes contiguous.  A packed sample
  vector enumerates the kept entries of that grid in C order, which
  defines the (coil, column, slice, line, readout) -> position map.
  The order is coil-major, so the kept entries of each coil's (N, nz,
  ny, nx) grid, concatenated in coil order, are the same vector.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from math import ceil
from typing import ClassVar

import numpy as np

from .datamodel import (LABELS_JSON, CasoratiSeries, CoilMaps, PhaseMap,
                        SamplingMask, header_value, labels_from_json,
                        labels_to_json, read_container, write_container)
from .errors import ValidationError

N_CENTER_LINES = 4

# Byte budget of one block of undersampled columns in normal_matrix.  A
# block's coil product, its accumulator and the line products are a few
# block-sized temporaries; at this size they and a coil's field stay in
# L2, where whole-grid temporaries of a 64x64x4 series (1.5 MB each) do
# not.
NORMAL_BLOCK_BYTES = 256 * 1024

# coil maps: in-plane smoothing width (voxels), support share of peak RSS
COIL_SMOOTH_SIGMA = 2.0
COIL_SUPPORT_FRACTION = 0.05

def get_fft_workers() -> int:
    """Threads of one FFT call: always 1 (``numpy.fft`` runs on the
    calling thread)."""
    return 1


_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _unit_root(p: np.ndarray, n: int) -> np.ndarray:
    """exp(2 pi i p / n) for integers p, exact at quarter turns."""
    p = np.asarray(p) % n
    out = np.exp(2j * np.pi * p / n)
    quarter = (4 * p) % n == 0
    out[quarter] = _QUARTER_TURNS[(4 * p[quarter]) // n]
    return out


def _centering_ramps(ny: int, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Image- and k-space ramps of the centered DFT on a (ny, nx) grid.

    Per axis of length n, with c = n//2 and F the unitary DFT,
    F_c = kappa diag(b) F diag(a) where a(x) = b(x) = exp(2 pi i c x/n)
    and kappa = exp(-2 pi i c^2/n), so kappa b(k) = exp(2 pi i c (k - c)/n).
    Returns (a, kappa b) as (ny, nx) outer products.  Even n gives
    a = (-1)^x exactly (checkerboard sign flips); odd n needs nothing else.
    """
    cy, cx = ny // 2, nx // 2
    iy, ix = np.arange(ny)[:, None], np.arange(nx)[None, :]
    a = _unit_root(cy * iy, ny) * _unit_root(cx * ix, nx)
    kb = _unit_root(cy * (iy - cy), ny) * _unit_root(cx * (ix - cx), nx)
    return a, kb


def _fft2_inplace(grid: np.ndarray, inverse: bool = False) -> None:
    """Unitary 2-D DFT (inverse DFT) of ``grid`` over its trailing (line,
    readout) axes, in place: the lines, then the readout.

    complex128 runs both passes unscaled and multiplies by
    1/sqrt(ny nx), rounded from long double, between them, as
    pocketfft's n-D transform does, so the result is bit-equal to
    ``scipy.fft.fftn``/``ifftn`` with ``norm="ortho"``.  complex64
    scales each pass by its own 1/sqrt(n): numpy runs an unscaled
    complex64 pass in complex128 through a whole-grid temporary.  That
    is bit-equal to scipy on a 64x64 grid (both factors powers of two)
    and about 1 ulp off elsewhere.
    """
    fft = np.fft.ifft if inverse else np.fft.fft
    if grid.dtype == np.complex64:
        fft(grid, axis=-2, norm="ortho", out=grid)
        fft(grid, axis=-1, norm="ortho", out=grid)
        return
    unscaled = "forward" if inverse else "backward"
    fft(grid, axis=-2, norm=unscaled, out=grid)
    grid *= float(1 / np.sqrt(np.longdouble(grid.shape[-2] * grid.shape[-1])))
    fft(grid, axis=-1, norm=unscaled, out=grid)


def ifft2c(grid: np.ndarray) -> np.ndarray:
    """Centered unitary inverse 2-D DFT over the trailing (line, readout)
    axes, in complex128: the inverse (= adjoint) of the transform of
    :func:`coil_kspace`."""
    a, kb = _centering_ramps(*grid.shape[-2:])
    out = np.conj(kb) * grid
    _fft2_inplace(out, inverse=True)
    return np.multiply(np.conj(a), out, out=out)


def center_line_block(n_pe: int) -> np.ndarray:
    """Indices of the ``N_CENTER_LINES`` centermost phase-encode lines
    (DC at n_pe//2)."""
    start = n_pe // 2 - N_CENTER_LINES // 2
    return np.arange(start, start + N_CENTER_LINES)


def make_sampling_mask(n_pe: int, nz: int, column_labels, R: float,
                       seed: int) -> SamplingMask:
    """Generate the per-(slice, column) phase-encode sampling pattern.

    Per DW column and slice, keep ceil(n_pe/R) lines drawn without
    replacement with probability proportional to a Gaussian density
    centered at DC (sigma = n_pe/4, which leaves usable tail density
    over outer k-space), always including the 4 centermost lines;
    patterns differ per (slice, column) for incoherence.  b=0 columns
    are always fully kept.  Masks are reproducible from (seed, R, dims)
    alone.
    """
    if not R >= 1:
        raise ValidationError(f"acceleration factor must be >= 1, got {R}")
    if n_pe < 8:
        raise ValidationError(f"need at least 8 phase-encode lines, got {n_pe}")
    labels = tuple(column_labels)
    n_cols = len(labels)
    budget = ceil(n_pe / R)
    if budget < N_CENTER_LINES:
        raise ValidationError(
            f"cannot honor center lines: ceil(n_pe/R) = {budget} < {N_CENTER_LINES}")

    lines = np.arange(n_pe)
    dc = n_pe // 2
    sigma = n_pe / 4.0
    density = np.exp(-0.5 * ((lines - dc) / sigma) ** 2)
    center = center_line_block(n_pe)

    kept = np.zeros((n_pe, nz, n_cols), dtype=bool)
    for k, lab in enumerate(labels):
        if lab.is_b0:
            kept[:, :, k] = True
            continue
        for z in range(nz):
            col = np.zeros(n_pe, dtype=bool)
            if budget >= n_pe:
                col[:] = True
            else:
                rng = np.random.default_rng([seed, k, z])
                col[center] = True
                candidates = lines[~col]
                p = density[candidates]
                extra = rng.choice(candidates, size=budget - N_CENTER_LINES,
                                   replace=False, p=p / p.sum())
                col[extra] = True
            kept[:, z, k] = col
    return SamplingMask(kept, float(R), int(seed), labels)


@dataclass(frozen=True)
class EncodingModel:
    """Coil maps + sampling mask + optional phase map; immutable.

    The solver's view of the forward model: the operators A*
    (:func:`adjoint_matrix`) and A*A (:func:`normal_matrix`) run on it.
    Construction precomputes the transposed coil fields times the
    image-space ramp ``a`` of the centered DFT, the k-space ramp
    ``kappa b`` and the transposed phase field ``_phase_t``, its one
    copy of the phase, in complex64 (the operators take its conjugate
    as they go, and ``phase`` is replaced by the map of its (M, N)
    view), so the operators are pure and cheap to call concurrently.  For
    :func:`normal_matrix` it adds the count ``_n_full`` of the leading
    columns the mask keeps whole, the coil sum of squares ``_sos`` =
    sum_c |S_c a|^2 (nz, ny, nx), and per (column, slice) of the N_part
    columns after them the kept rows of the unitary line DFT, ``_rows``
    (N_part, nz, L, ny) zero-padded to the largest kept count L, with
    their conjugate transpose ``_rows_h``.

    ``dtype`` is the arithmetic of every operator on the model: each
    field is computed in double precision and stored once as complex64
    (``_sos`` as float32).  Solvers take their working precision from
    here.
    """

    dtype: ClassVar[np.dtype] = np.dtype(np.complex64)

    coils: CoilMaps
    mask: SamplingMask
    phase: PhaseMap | None = None

    def __post_init__(self):
        nx, ny, nz = self.coils.spatial_dims
        n_cols = len(self.mask.column_labels)
        if self.mask.kept.shape[0] != ny or self.mask.kept.shape[1] != nz:
            raise ValidationError(
                f"mask lines/slices {self.mask.kept.shape[:2]} do not match "
                f"grid (ny={ny}, nz={nz})")
        _keep_phase(self, self.phase)
        # (C, nz, ny, nx) coil fields with the image-space ramp folded in
        a, kb = _centering_ramps(ny, nx)
        maps_a = np.ascontiguousarray(self.coils.maps.transpose(0, 3, 2, 1)) * a
        maps_a_conj = np.conj(maps_a)
        object.__setattr__(self, "_maps_a", maps_a.astype(self.dtype))
        object.__setattr__(self, "_maps_a_conj", maps_a_conj.astype(self.dtype))
        object.__setattr__(self, "_kb", kb.astype(self.dtype))
        # fields of the normal operator (see the class docstring)
        n_full = int(np.logical_and.accumulate(self.mask.kept.all(axis=(0, 1))).sum())
        object.__setattr__(self, "_n_full", n_full)
        sos = (maps_a * maps_a_conj).real.sum(axis=0)
        object.__setattr__(self, "_sos", sos.astype(np.finfo(self.dtype).dtype))
        kept = self.mask.kept[:, :, n_full:]
        n_rows = int(kept.sum(axis=0).max(initial=0))
        rows = np.zeros((n_cols - n_full, nz, n_rows, ny), dtype=np.complex128)
        for n, z in np.ndindex(n_cols - n_full, nz):
            lines = np.flatnonzero(kept[:, z, n])
            rows[n, z, :lines.size] = _unit_root(-np.outer(lines, np.arange(ny)), ny)
        rows /= np.sqrt(ny)
        object.__setattr__(self, "_rows", rows.astype(self.dtype))
        object.__setattr__(self, "_rows_h",
                           np.ascontiguousarray(np.conj(rows).swapaxes(-1, -2),
                                                dtype=self.dtype))

    @property
    def spatial_dims(self) -> tuple[int, int, int]:
        return self.coils.spatial_dims

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.spatial_dims
        return nx * ny * nz

    @property
    def n_columns(self) -> int:
        return len(self.mask.column_labels)


def _keep_phase(model: EncodingModel, phase: PhaseMap | None) -> None:
    """Give ``model`` the phase ``phase``, kept once: ``_phase_t``, its
    transposed (N, nz, ny, nx) grid in ``model.dtype``, of which
    ``model.phase.values`` becomes the (M, N) view.  The caller's map is
    not kept."""
    phase_t = None
    if phase is not None:
        nx, ny, nz = model.spatial_dims
        shape = (nx * ny * nz, model.n_columns)
        if phase.values.shape != shape:
            raise ValidationError(f"phase map shape {phase.values.shape} does not "
                                  f"match (M={shape[0]}, N={shape[1]})")
        phase_t = np.ascontiguousarray(_series_to_grid(phase.values, (nx, ny, nz)),
                                       dtype=model.dtype)
        phase = PhaseMap(_grid_to_series(phase_t))
    object.__setattr__(model, "phase", phase)
    object.__setattr__(model, "_phase_t", phase_t)


def with_phase(model: EncodingModel, phase: PhaseMap) -> EncodingModel:
    """The model of ``model``'s coil maps and mask with the phase map
    ``phase``, bit-equal to ``EncodingModel(model.coils, model.mask,
    phase)`` but built without it: it shares ``model``'s coil and line
    fields, arrays that depend on the coils and the mask alone, and adds
    only its phase."""
    phased = copy.copy(model)
    _keep_phase(phased, phase)
    return phased


@dataclass(frozen=True)
class KSpaceData:
    """Packed kept samples of the (C, N, nz, ny, nx) grid, C order, held
    in the solver's precision ``EncodingModel.dtype`` (complex64): they
    are cast once on construction, and :func:`adjoint_matrix`, their one
    reader, computes in that precision."""

    samples: np.ndarray
    mask: SamplingMask
    spatial_dims: tuple[int, int, int]
    n_coils: int

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=EncodingModel.dtype))
        nx = self.spatial_dims[0]
        expected = self.n_coils * nx * int(np.count_nonzero(self.mask.kept))
        if self.samples.shape != (expected,):
            raise ValidationError(
                f"sample vector has shape {self.samples.shape}, "
                f"layout implies ({expected},)")
        object.__setattr__(self, "spatial_dims",
                           tuple(int(v) for v in self.spatial_dims))


def _series_to_grid(matrix: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """(M, N) Casorati layout -> (N, nz, ny, nx) work grid (one copy)."""
    nx, ny, nz = dims
    return matrix.T.reshape((-1, nz, ny, nx))


def _grid_to_series(grid: np.ndarray) -> np.ndarray:
    """(N, nz, ny, nx) -> (M, N); the result is an F-ordered view."""
    n = grid.shape[0]
    return grid.reshape((n, -1)).T


def _bool_grid_mask(mask: SamplingMask, n_coils: int, nx: int) -> np.ndarray:
    """The packed-sample layout: a read-only boolean view of the kept
    entries of the (C, N, nz, ny, nx) grid, which samples fill in C order."""
    kept_t = mask.kept.transpose(2, 1, 0)
    n_cols, nz, ny = kept_t.shape
    return np.broadcast_to(kept_t[None, :, :, :, None],
                           (n_coils, n_cols, nz, ny, nx))


def coil_kspace(series: CasoratiSeries, coils: CoilMaps,
                phase: PhaseMap | None = None) -> np.ndarray:
    """Fully sampled multi-coil k-space grid (C, N, nz, ny, nx) of
    ``series``, in complex128: the forward model before the mask.  The
    coil product S_c (P o x) is the one grid made; the image-space ramp,
    the DFT and the k-space ramp of the centered DFT run in place on
    it.  Every step is entrywise or per (coil, column, slice) plane, so
    the grid of ``coils`` cut to one coil is that coil's slice of the
    whole grid, bit for bit."""
    nx, ny, nz = coils.spatial_dims
    vols = _series_to_grid(series.data, (nx, ny, nz))
    if phase is not None:
        vols = vols * _series_to_grid(phase.values, (nx, ny, nz))
    maps_t = coils.maps.transpose(0, 3, 2, 1)
    grid = (maps_t[:, None] * vols[None]).astype(np.complex128, copy=False)
    a, kb = _centering_ramps(ny, nx)
    # the ramps on the left, as in a * grid: complex products with FMA
    # are not commutative in their rounding
    np.multiply(a, grid, out=grid)
    _fft2_inplace(grid)
    return np.multiply(kb, grid, out=grid)


def coil_combine(kgrids, coils: CoilMaps) -> np.ndarray:
    """Least-squares (M, N) series of fully sampled k-space on ``coils``:
    sum_c conj(S_c) F^H k_c / sum_c |S_c|^2 (Roemer et al., MRM 1990;
    Pruessmann et al., MRM 1999), in complex128.  ``kgrids`` gives one
    (N, nz, ny, nx) grid k_c per coil, in coil order: a sequence of
    them, the (C, N, nz, ny, nx) grid, or an iterator that makes each
    grid as it is asked for.  On a full grid A*A is that diagonal sum,
    so this solves A*A x = A*d exactly: it inverts the phase-free
    :func:`coil_kspace` on the coils' support and is zero off it.  One
    coil's grid is transformed at a time and let go before the next is
    asked for, so an iterator's grids are alive one at a time."""
    maps_t = coils.maps.transpose(0, 3, 2, 1)
    combined = None
    c = 0
    # no zip or enumerate: they would hold the last grid while the
    # iterator makes the next
    for k_c in kgrids:
        image = ifft2c(k_c)
        del k_c
        image *= np.conj(maps_t[c])
        if combined is None:
            combined = np.zeros_like(image)
        combined += image
        del image
        c += 1
    if c != coils.n_coils:
        raise ValidationError(f"{c} coil grid(s) for {coils.n_coils} coil maps")
    sos = (maps_t.real ** 2 + maps_t.imag ** 2).sum(axis=0)
    # off the support every S_c is 0, so the sum there is already 0
    np.divide(combined, sos, out=combined, where=sos > 0)
    return _grid_to_series(combined)


def extract_samples(kgrids, mask: SamplingMask) -> KSpaceData:
    """The entries of full k-space that ``mask`` keeps, packed in C order
    and cast to ``EncodingModel.dtype``.  ``kgrids`` holds one (N, nz,
    ny, nx) grid per coil, in coil order: a sequence of them or the (C,
    N, nz, ny, nx) grid.  The packed order is coil-major, so each coil's
    kept entries follow the previous coil's, and the samples of one
    coil's grid alone are its share of the vector; no copy of the whole
    grid is made."""
    _, nz, ny, nx = kgrids[0].shape
    kept = _bool_grid_mask(mask, 1, nx)[0]
    samples = np.concatenate([k_c[kept] for k_c in kgrids],
                             dtype=EncodingModel.dtype)
    return KSpaceData(samples, mask, (nx, ny, nz), len(kgrids))


def adjoint_matrix(model: EncodingModel, samples: np.ndarray) -> np.ndarray:
    """Matrix-level adjoint: packed samples -> (M, N) complex64."""
    nx, ny, nz = model.spatial_dims
    grid = np.zeros((model.coils.n_coils, model.n_columns, nz, ny, nx),
                    dtype=model.dtype)
    grid[_bool_grid_mask(model.mask, model.coils.n_coils, nx)] = samples
    grid *= np.conj(model._kb)
    _fft2_inplace(grid, inverse=True)
    combined = np.einsum("cnzyx,czyx->nzyx", grid, model._maps_a_conj)
    return unphase(model, _grid_to_series(combined))


def unphase(model: EncodingModel, x: np.ndarray) -> np.ndarray:
    """conj(P) o x for a complex64 (M, N) ``x`` and the model's phase map
    P; ``x`` itself on a phase-free model.  :func:`adjoint_matrix` ends
    with it, so the adjoint on a phased model is this of the adjoint on
    the phase-free model of its coils and mask, bit for bit."""
    if model._phase_t is None:
        return x
    out = np.conj(model._phase_t)
    np.multiply(_series_to_grid(x, model.spatial_dims), out, out=out)
    return _grid_to_series(out)


def normal_matrix(model: EncodingModel, x: np.ndarray, shift: float = 0.0,
                  out: np.ndarray | None = None) -> np.ndarray:
    """(A*A + shift I) x with no DFT (see the module notes for the algebra).

    The leading ``_n_full`` columns are ``_sos`` times P o X.  The
    columns after them run in blocks of about ``NORMAL_BLOCK_BYTES``
    (see :func:`_column_blocks`), each a slice of columns; per block
    the phase is applied, then per coil ``_rows_h @ (_rows @ (S_c a P o
    X))`` (two batched matrix products over the kept lines, through one
    reused coil buffer) is combined with conj(S_c a) and summed over the
    coils in coil order, then the conjugate phase, which is taken of the
    block's phase into that spent coil buffer.  Every entry sees the
    same operations in the same order for any block size.  Each block
    accumulates straight into its slice of the output.

    ``shift`` x is added per block after the conjugate phase, while the
    block is in cache, so the result is bit-equal to
    ``normal_matrix(model, x) + shift * x`` for complex64 ``x``; the
    ADMM applies its (rho/2) I shift here.  Computes and returns
    complex64; equal to A*(A x) + shift x, with A the complex128
    simulation (:func:`coil_kspace`, :func:`extract_samples`), up to
    float32 rounding.

    The product is written into ``out`` when it is given, an (N, nz, ny,
    nx) C-contiguous grid of the model's dtype that shares no memory
    with ``x``, and is returned as the (M, N) view of that grid; a solver
    that applies the operator once per step reuses one grid this way.
    """
    vols = _series_to_grid(x, model.spatial_dims).astype(model.dtype, copy=False)
    if out is None:
        out = np.empty(vols.shape, dtype=model.dtype)
    elif not (out.shape == vols.shape and out.dtype == model.dtype
              and out.flags.c_contiguous and out.flags.writeable
              and not np.may_share_memory(out, vols)):
        raise ValidationError(
            f"normal_matrix output must be a writeable C-contiguous {model.dtype} "
            f"grid of shape {vols.shape} apart from the input, got {out.dtype} "
            f"{out.shape}")
    phase = model._phase_t

    def finish(cols, scratch):
        # conjugate phase and shift of the block out[cols], through the
        # spent ``scratch`` of its shape
        acc = out[cols]
        if phase is not None:
            np.conjugate(phase[cols], out=scratch)
            acc *= scratch
        if shift:
            acc += np.multiply(shift, vols[cols], out=scratch)

    n_full = model._n_full
    full = slice(0, n_full)
    v = vols[full] if phase is None else vols[full] * phase[full]
    np.multiply(model._sos, v, out=out[full])
    finish(full, np.empty_like(v))

    blocks = _column_blocks(model.n_columns - n_full, vols[0].nbytes)
    n_max = max((hi - lo for lo, hi in blocks), default=0)
    nz, ny, nx = vols.shape[1:]
    coil_buf = np.empty((n_max, nz, ny, nx), dtype=model.dtype)
    line_buf = np.empty((n_max, nz, model._rows.shape[2], nx), dtype=model.dtype)
    for lo, hi in blocks:
        cols = slice(n_full + lo, n_full + hi)
        v = vols[cols] if phase is None else vols[cols] * phase[cols]
        rows, rows_h = model._rows[lo:hi], model._rows_h[lo:hi]
        buf, lines = coil_buf[:hi - lo], line_buf[:hi - lo]
        acc = out[cols]
        for c, (maps_a, maps_a_conj) in enumerate(zip(model._maps_a,
                                                      model._maps_a_conj)):
            np.multiply(maps_a, v, out=buf)
            np.matmul(rows, buf, out=lines)
            np.matmul(rows_h, lines, out=buf)
            if c == 0:
                np.multiply(buf, maps_a_conj, out=acc)
            else:
                buf *= maps_a_conj
                acc += buf
        finish(cols, buf)
    return _grid_to_series(out)


def _column_blocks(n_cols: int, column_bytes: int) -> list[tuple[int, int]]:
    """Bounds (lo, hi) of the blocks :func:`normal_matrix` splits
    ``n_cols`` columns into: ceil(n_cols * column_bytes /
    NORMAL_BLOCK_BYTES) blocks, at most one per column, sizes differing
    by at most one."""
    n = min(n_cols, ceil(n_cols * column_bytes / NORMAL_BLOCK_BYTES))
    return [(b * n_cols // n, (b + 1) * n_cols // n) for b in range(n)]


def estimate_coil_maps(b0_coil_images: np.ndarray) -> CoilMaps:
    """Sensitivity maps from fully sampled b=0 coil images (C, nx, ny, nz).

    Each coil image is divided by the root-sum-of-squares combination,
    low-pass filtered in-plane (Gaussian, ``COIL_SMOOTH_SIGMA`` voxels),
    and zeroed outside the support (RSS below ``COIL_SUPPORT_FRACTION``
    of its max).  Degenerate support (fewer than 1% of voxels) yields
    all-zero maps with a warning.
    """
    imgs = np.asarray(b0_coil_images, dtype=np.complex128)
    if imgs.ndim != 4:
        raise ValidationError(f"expected (C, nx, ny, nz) images, got {imgs.shape}")
    power = np.abs(imgs)
    rss = np.sqrt(np.square(power, out=power).sum(axis=0))
    del power
    peak = float(rss.max())
    if peak == 0.0:
        raise ValidationError("all-zero coil images")
    support = rss >= COIL_SUPPORT_FRACTION * peak
    if np.count_nonzero(support) < 0.01 * support.size:
        warnings.warn("coil-map support nearly empty; returning zero maps")
        return CoilMaps(np.zeros_like(imgs))
    # the maps are built in this one buffer: the images over the RSS on
    # the support, then each coil's real and imaginary parts smoothed in
    # place of their raw values, then zeroed off the support
    maps = np.zeros_like(imgs)
    np.divide(imgs, rss, out=maps, where=support)
    for coil in maps:
        for part in (coil.real, coil.imag):
            part[...] = _gaussian_smooth(part, COIL_SMOOTH_SIGMA, axes=(0, 1))
    maps[:, ~support] = 0.0
    return CoilMaps(maps)


def _gaussian_smooth(x: np.ndarray, sigma: float, axes: tuple[int, ...]) -> np.ndarray:
    """Separable Gaussian smoothing of the real array ``x`` along ``axes``
    in turn, with edge values extended past the border.

    Per axis: taps exp(-x^2 / 2 sigma^2) out to radius int(4 sigma + 0.5),
    normalized to sum 1; out = x w_0, then out += (x[-j] + x[+j]) w_j for
    j from the radius down to 1.  That is the kernel, the operation order
    and the float64 arithmetic of ``scipy.ndimage.gaussian_filter`` with
    ``mode="nearest"``, so the result is bit-equal to it.
    """
    radius = int(4 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * offsets ** 2)
    taps = (taps / taps.sum())[radius:]
    for axis in axes:
        n = x.shape[axis]
        pad = [(0, 0)] * x.ndim
        pad[axis] = (radius, radius)
        padded = np.moveaxis(np.pad(x, pad, mode="edge"), axis, 0)

        def shifted(j):
            return padded[radius + j:radius + j + n]

        out = shifted(0) * taps[0]
        pair = np.empty_like(out)
        for j in range(radius, 0, -1):
            np.add(shifted(-j), shifted(j), out=pair)
            pair *= taps[j]
            out += pair
        x = np.moveaxis(out, 0, axis)
    return x


def save_kspace(path, d: KSpaceData) -> None:
    write_container(path,
                    {"samples": d.samples, "kept": d.mask.kept},
                    {"kind": "kspace",
                     "spatial_dims": list(d.spatial_dims),
                     "n_coils": d.n_coils,
                     "R_nominal": d.mask.R_nominal,
                     "seed": d.mask.seed,
                     "column_labels": labels_to_json(d.mask.column_labels)})


def load_kspace(path) -> KSpaceData:
    arrays, meta = read_container(path, names=("samples", "kept"), kind="kspace")
    where = f"{path} metadata"
    mask = SamplingMask(
        arrays["kept"], float(header_value(meta, "R_nominal", float, where)),
        header_value(meta, "seed", int, where),
        labels_from_json(header_value(meta, "column_labels", LABELS_JSON, where)))
    return KSpaceData(arrays["samples"], mask,
                      header_value(meta, "spatial_dims", tuple[int, int, int], where),
                      header_value(meta, "n_coils", int, where))
