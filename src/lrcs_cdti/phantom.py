"""Synthetic left-ventricle diffusion phantom with analytically known
ground truth.

The myocardium is an annulus per slice.  Helix angle varies linearly
with transmural depth between configurable endo/epi endpoints; tensors
are axially symmetric (l2 = l3) with eigenvalues chosen in closed form
from the target MD and FA.  Diffusion-weighted columns carry a smooth
random per-slice polynomial phase (eddy-current surrogate); coil maps
are Gaussian-bump magnitudes with linear phase.  Everything is a pure
function of the config, seed included, so a saved ground truth holds
the config and the myocardium mask alone, and loading one rebuilds the
rest with ``build_phantom``.  A ``GroundTruth`` edited with ``replace``
saves as the phantom of its config: the edit is not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .datamodel import (CasoratiSeries, CoilMaps, ColumnLabel, PhaseMap,
                        config_from_json, config_to_json, header_value, make_labels,
                        read_container, reshape_to_casorati, write_container)
from .dti import TensorField
from .errors import ValidationError

# Fixed 12-direction electrostatic-repulsion table (unit vectors, z >= 0;
# minimum axis separation 38.9 deg, quadratic design condition 1.62).
DIRECTIONS_12 = (
    (-0.8937391854328343, -0.37267572402640753, 0.24968594903047117),
    (-0.7617207210809127, 0.6214331768277646, 0.18330943732859648),
    (-0.71570428848257, 0.17611489078911421, 0.6758334977566566),
    (-0.32864217362654946, -0.3711118850335475, 0.8684873577092899),
    (-0.24642665677255254, -0.8841418868112485, 0.39694713353008143),
    (-0.13445986932620138, 0.9277182497519797, 0.34822319368173077),
    (-0.08297845093465611, 0.4295132454425564, 0.899240206324143),
    (0.36648140464411927, -0.2776729591943067, 0.888025398162885),
    (0.4486969214981162, -0.7907029609720075, 0.41648517398367646),
    (0.559488032465256, 0.7989942014998361, 0.2204119041653512),
    (0.6055044650635986, 0.35367591546118565, 0.7129359645934112),
    (0.9452206038243796, -0.1255292802830158, 0.30133106361194095),
)

BACKGROUND_FRACTION = 0.10     # signal level outside the annulus
# Default uniform range (rad) of the random phase-polynomial coefficients.
# Large enough that a center-of-k-space phase estimate leaves a measurable
# residual, mimicking the drastic eddy-current phase of real acquisitions.
PHASE_COEF_RANGE = 20.0


@dataclass(frozen=True)
class PhantomConfig:
    grid: tuple[int, int, int] = (64, 64, 4)
    lv_center: tuple[float, float] | None = None   # defaults to grid center
    r_endo: float = 12.0
    r_epi: float = 24.0
    ha_endo: float = 60.0      # degrees, subendocardial (right-handed)
    ha_epi: float = -60.0      # degrees, subepicardial (left-handed)
    md_true: float = 1.0e-3    # mm^2/s
    fa_true: float = 0.5
    b_values: tuple[float, ...] = (0.0, 1000.0)
    directions: tuple[tuple[float, float, float], ...] = DIRECTIONS_12
    n_coils: int = 4
    snr: float | None = 12.0   # None: noise-free
    phase_order: int = 2
    phase_coef_range: float = PHASE_COEF_RANGE
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(int(v) for v in self.grid))
        nx, ny, _ = self.grid
        cx, cy = self.center
        # the annulus fits in the image about its own center; "not" so
        # that a NaN center fails too
        edge = min(cx + 0.5, nx - 0.5 - cx, cy + 0.5, ny - 0.5 - cy)
        if not 0 < self.r_endo < self.r_epi < edge:
            raise ValidationError(
                f"need 0 < r_endo < r_epi < {edge:g}, the distance from the LV "
                f"center ({cx:g}, {cy:g}) to the edge of the grid, got "
                f"r_endo={self.r_endo}, r_epi={self.r_epi}, grid={self.grid}")
        if not (self.ha_endo > 0 > self.ha_epi):
            raise ValidationError(
                f"need ha_endo > 0 > ha_epi, got {self.ha_endo}, {self.ha_epi}")
        if not self.md_true > 0:
            raise ValidationError(f"md_true must be positive, got {self.md_true}")
        if not (0 <= self.fa_true < 1):
            raise ValidationError(f"fa_true must be in [0, 1), got {self.fa_true}")
        if self.n_coils < 1:
            raise ValidationError(f"n_coils must be >= 1, got {self.n_coils}")
        if len(self.directions) < 6:
            raise ValidationError(
                f"need >= 6 diffusion directions, got {len(self.directions)}")
        if self.snr is not None and not 0 < self.snr < inf:
            raise ValidationError(
                f"snr must be positive and finite, or null for noise-free data, "
                f"got {self.snr}")
        if self.phase_order < 0:
            raise ValidationError(f"phase_order must be >= 0, got {self.phase_order}")
        if self.phase_coef_range < 0:
            raise ValidationError(
                f"phase_coef_range must be >= 0, got {self.phase_coef_range}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "b_values", tuple(float(b) for b in self.b_values))
        if self.b_values.count(0.0) != 1:
            raise ValidationError(
                f"b_values must hold 0 exactly once, got {list(self.b_values)}")
        # with a diffusion shell there are >= 7 columns: the default rank fits
        if len(self.b_values) < 2:
            raise ValidationError(
                f"b_values must hold a nonzero b value, got {list(self.b_values)}")
        object.__setattr__(self, "directions",
                           tuple(tuple(float(v) for v in g) for g in self.directions))

    @property
    def center(self) -> tuple[float, float]:
        if self.lv_center is not None:
            return tuple(float(v) for v in self.lv_center)
        nx, ny, _ = self.grid
        return ((nx - 1) / 2.0, (ny - 1) / 2.0)

    @property
    def column_labels(self) -> list[ColumnLabel]:
        return make_labels(self.b_values, self.directions)


@dataclass(frozen=True)
class GroundTruth:
    tensors: TensorField
    hat_global: float              # deg per %TD, exact slope of the profile
    md_map: np.ndarray             # mm^2/s
    myocardium_mask: np.ndarray
    clean_series: CasoratiSeries   # noiseless, phase-free (positive real)
    phase: PhaseMap
    coils: CoilMaps
    config: PhantomConfig


def axisymmetric_eigenvalues(md: float, fa: float) -> tuple[float, float, float]:
    """Closed-form (l1, l2, l3) with l2 = l3 matching the target MD and FA."""
    f = fa / np.sqrt(3.0 - 2.0 * fa * fa)
    return md * (1.0 + 2.0 * f), md * (1.0 - f), md * (1.0 - f)


def build_phantom(cfg: PhantomConfig) -> GroundTruth:
    nx, ny, nz = cfg.grid
    cx, cy = cfg.center
    labels = cfg.column_labels
    n_cols = len(labels)

    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float),
                         indexing="ij")
    dx, dy = xs - cx, ys - cy
    r = np.hypot(dx, dy)
    plane_mask = (r >= cfg.r_endo) & (r <= cfg.r_epi)
    mask = np.repeat(plane_mask[:, :, None], nz, axis=2)

    td = np.clip((r - cfg.r_endo) / (cfg.r_epi - cfg.r_endo), 0.0, 1.0)
    ha_plane = cfg.ha_endo + (cfg.ha_epi - cfg.ha_endo) * td

    # local frame and primary eigenvector
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = np.where(r > 0, dx / r, 0.0)
        uy = np.where(r > 0, dy / r, 0.0)
    circ = np.stack([-uy, ux, np.zeros_like(ux)], axis=-1)
    longv = np.array([0.0, 0.0, 1.0])
    ha_rad = np.radians(ha_plane)
    e1_plane = np.cos(ha_rad)[..., None] * circ + np.sin(ha_rad)[..., None] * longv

    l1, l2, _ = axisymmetric_eigenvalues(cfg.md_true, cfg.fa_true)
    eye = np.eye(3)
    outer = e1_plane[..., :, None] * e1_plane[..., None, :]
    d_plane = l2 * eye + (l1 - l2) * outer

    tensors = np.zeros((nx, ny, nz, 3, 3))
    e1_vol = np.zeros((nx, ny, nz, 3))
    evals_vol = np.zeros((nx, ny, nz, 3))
    for z in range(nz):
        tensors[:, :, z][plane_mask] = d_plane[plane_mask]
        e1_vol[:, :, z][plane_mask] = e1_plane[plane_mask]
        evals_vol[:, :, z][plane_mask] = (l1, l2, l2)
    flip = e1_vol[..., 2] < 0
    e1_vol[flip] = -e1_vol[flip]

    tensor_field = TensorField(mask=mask, tensors=tensors,
                               s0=np.where(mask, 1.0, BACKGROUND_FRACTION),
                               evals=evals_vol, e1=e1_vol)

    # clean signal: s0 * exp(-b g^T D g) inside, flat background outside;
    # F order, so that the Casorati matrix is a view of it
    signal = np.empty((nx, ny, nz, n_cols), dtype=np.complex128, order="F")
    g_all = np.array([lab.direction for lab in labels])
    b_all = np.array([lab.b_value for lab in labels])
    quad = np.einsum("kc,xycd,kd->xyk", g_all, d_plane, g_all)
    atten = np.exp(-b_all[None, None, :] * quad)
    col_plane = np.where(plane_mask[:, :, None], atten, BACKGROUND_FRACTION)
    for z in range(nz):
        signal[:, :, z, :] = col_plane
    clean = reshape_to_casorati(signal, labels)

    phase = _simulate_phase(cfg, labels)
    coils = _simulate_coils(cfg)

    md_map = np.where(mask, cfg.md_true, 0.0)
    hat_global = (cfg.ha_epi - cfg.ha_endo) / 100.0
    return GroundTruth(tensors=tensor_field, hat_global=hat_global,
                       md_map=md_map, myocardium_mask=mask, clean_series=clean,
                       phase=phase, coils=coils, config=cfg)


def _simulate_phase(cfg: PhantomConfig, labels) -> PhaseMap:
    """Per DW column and slice: exp(i * poly(u, v)) with a seeded random
    2-D polynomial of total degree <= phase_order; b=0 columns are
    phase-free."""
    nx, ny, nz = cfg.grid
    cx, cy = cfg.center
    u = (np.arange(nx) - cx) / (nx / 2.0)
    v = (np.arange(ny) - cy) / (ny / 2.0)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    terms = [(p, q) for p in range(cfg.phase_order + 1)
             for q in range(cfg.phase_order + 1 - p)]
    # F order: the Casorati reshape below is a view
    angles = np.zeros((nx, ny, nz, len(labels)), order="F")
    rng = np.random.default_rng([cfg.seed, 101])
    for k, lab in enumerate(labels):
        if lab.is_b0:
            continue
        for z in range(nz):
            coef = rng.uniform(-cfg.phase_coef_range, cfg.phase_coef_range,
                               size=len(terms))
            poly = np.zeros((nx, ny))
            for c, (p, q) in zip(coef, terms):
                poly += c * uu ** p * vv ** q
            angles[:, :, z, k] = poly
    m = nx * ny * nz
    return PhaseMap.from_angles(angles.reshape((m, len(labels)), order="F"))


def _simulate_coils(cfg: PhantomConfig) -> CoilMaps:
    """Gaussian-bump magnitudes centered on a ring, linear phase ramps;
    constant along z."""
    nx, ny, nz = cfg.grid
    n_coils = cfg.n_coils
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float),
                         indexing="ij")
    ring_r = 0.55 * min(nx, ny)
    width = 0.45 * min(nx, ny)
    maps = np.empty((n_coils, nx, ny, nz), dtype=np.complex128)
    for c in range(n_coils):
        theta = 2 * np.pi * c / n_coils
        x0 = (nx - 1) / 2.0 + ring_r * np.cos(theta)
        y0 = (ny - 1) / 2.0 + ring_r * np.sin(theta)
        mag = np.exp(-((xs - x0) ** 2 + (ys - y0) ** 2) / (2 * width ** 2))
        ramp = np.pi * (np.cos(theta) * (xs - nx / 2) / nx
                        + np.sin(theta) * (ys - ny / 2) / ny) + theta / 2.0
        plane = mag * np.exp(1j * ramp)
        maps[c] = plane[:, :, None]
    return CoilMaps(maps)


def noise_rng(seed: int) -> np.random.Generator:
    """The noise stream of the phantom seed ``seed``, which
    :func:`add_noise` draws from."""
    return np.random.default_rng([seed, 202])


def add_noise(kspace: np.ndarray, snr: float, s0_mean: float,
              seed: int | np.random.Generator) -> np.ndarray:
    """``kspace`` plus i.i.d. Gaussian noise (sigma = s0_mean/snr) on the
    real and imaginary parts of every sample, in complex128; snr = inf
    (or None) returns the input itself.

    The noise is a (..., 2) standard normal draw scaled by sigma in
    place, bit-equal to ``normal(scale=sigma)`` of the same stream.
    ``kspace`` is added into the draw viewed as complex128, so the draw
    is the one grid made and the input is never written.  The sum is
    bit-equal to ``kspace + noise[..., 0] + 1j * noise[..., 1]``:
    addition commutes, and ``1j * b`` adds a signed zero to the real
    part.

    ``seed`` is a phantom seed, whose :func:`noise_rng` stream is drawn
    from its start, or a Generator, whose draw continues where its last
    one ended.  So the chunks of a grid along its leading axis, noised
    in order from one ``noise_rng(seed)``, get the noise of one draw of
    the whole grid with ``seed``."""
    if snr is None or snr == inf:
        return kspace
    if not snr > 0:
        raise ValidationError(f"snr must be positive, got {snr}")
    rng = seed if isinstance(seed, np.random.Generator) else noise_rng(seed)
    draw = rng.standard_normal(size=kspace.shape + (2,))
    draw *= s0_mean / snr
    noisy = draw.view(np.complex128)[..., 0]
    noisy += kspace
    return noisy


def mean_s0(gt: GroundTruth) -> float:
    """Mean b=0 magnitude over the myocardium mask (noise scale anchor)."""
    b0_cols = gt.clean_series.b0_columns
    vols = gt.clean_series.to_volumes()[..., b0_cols]
    return float(np.abs(vols[gt.myocardium_mask]).mean())


def save_ground_truth(path, gt: GroundTruth) -> None:
    """Write ``gt`` as its config plus its myocardium mask, the array that
    ``fit --mask`` reads.  The rest is ``build_phantom(gt.config)``, so a
    field of ``gt`` that differs from it is not saved."""
    write_container(path, {"mask": gt.myocardium_mask},
                    {"kind": "ground_truth", "config": config_to_json(gt.config)})


def load_ground_truth(path) -> GroundTruth:
    """``build_phantom`` of the config stored at ``path``.  Only the config
    and the mask are read, so containers that also hold the other fields
    load too; a stored mask that differs from the built one is an
    error."""
    arrays, meta = read_container(path, names=("mask",), kind="ground_truth")
    where = f"{path} metadata"
    config = header_value(meta, "config", dict, where)
    try:
        cfg = config_from_json(PhantomConfig, config)
    except ValidationError as exc:
        raise ValidationError(f"{where} key 'config': {exc}") from None
    gt = build_phantom(cfg)
    if not np.array_equal(arrays["mask"], gt.myocardium_mask):
        raise ValidationError(
            f"{path}: the stored mask differs from the mask of its config")
    return gt
