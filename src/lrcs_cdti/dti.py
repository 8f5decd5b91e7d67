"""Diffusion tensor fitting and derived myocardial metrics.

The LV center of a slice is the centroid of its masked voxels
(``mask_centroids``): HA, HAT and the AHA sectors all turn about it, so
they need no phantom knowledge.

Helix angle (HA) conventions: local frames are built per voxel about the
LV center with radial = in-plane unit vector from the center,
longitudinal = +z, circumferential = longitudinal x radial
(counterclockwise).  The primary eigenvector is projected onto the
circumferential-longitudinal plane with its sign chosen so the
circumferential component is >= 0; HA = atan2(longitudinal,
circumferential) in (-90, 90] degrees.

Helix angle transmurality (HAT) is the ordinary least-squares slope of
HA versus transmural depth (0% endo to 100% epi), sampled along
``N_RAYS`` (25) equally spaced transmural rays per slice every
``RAY_STEP`` (0.1) voxels; the global value averages per-slice means.
The rays of a slice are one batch: an (n_rays, n_samples) grid of
sample positions, one interpolation call over the wall samples, and
each ray's OLS as segment sums (``bincount`` with weights) over its
samples, so no Python loop runs per ray.

AHA 16-segment sectors run counterclockwise from 0 degrees, the +x axis
of the image, about the mask centroid of each slice.

The tensor fit calls no LAPACK routine per voxel on its common path;
both of its kernels are arithmetic on length-V arrays, V the masked
voxels.  The 7 x 7 normal equations D^T W D theta = D^T W ln|s| come
from one (28 x N)(N x V) GEMM (the 28 unique entries) and are solved by
a Cholesky factorization unrolled over those 28 entries.  The
eigenvalues follow Smith's trigonometric form ("Eigenvalues of a
symmetric 3 x 3 matrix", CACM 1961): with q = tr T / 3, p^2 =
||T - qI||_F^2 / 6 and cos(3 phi) = det(T - qI) / (2 p^3),
lambda_1 = q + 2p cos(phi), lambda_3 = q + 2p cos(phi + 2 pi / 3) and
lambda_2 = tr T - lambda_1 - lambda_3.  e1 is the longest cross product
of two rows of T - lambda_1 I (Kopp, "Efficient numerical
diagonalization of hermitian 3 x 3 matrices", IJMPC 2008).  Near
lambda_2 = lambda_3, as in the phantom's axisymmetric tensors, the
trigonometric lambda_2 and lambda_3 keep only half their digits
(5.7e-9 relative error measured), so the reported eigenvalues are those
of T in an orthonormal frame (e1, u, w): lambda_1 = e1^T T e1, and the
(u, w) block's pair in closed form.  Near lambda_1 = lambda_2 the
trigonometric lambda_1, and with it e1, lose digits the same way, so a
voxel whose lambda_1 - lambda_2 is at most ``EIG_GAP`` (1e-3) of
max|lambda| takes ``np.linalg.eigh``'s output instead: isotropic and
zero tensors, and lambda_1 ~ lambda_2.  Against ``eigh`` the eigenvalues
agree within 1e-12 max|lambda|, and e1 within 1e-6 rad up to sign; the
Cholesky solution agrees with LU's to the condition of the diagonally
scaled normal matrix, and its residual is at rounding level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .datamodel import CasoratiSeries, header_value, read_container, write_container
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class TensorField:
    """Per-voxel symmetric diffusion tensors with eigen-decomposition.

    Arrays are full volumes, zero outside ``mask``.  ``evals`` are sorted
    descending with negatives clamped to zero (``n_clamped`` voxels were
    affected); ``e1`` is sign-normalized so its z component is >= 0.
    """

    mask: np.ndarray
    tensors: np.ndarray        # (nx, ny, nz, 3, 3), mm^2/s
    s0: np.ndarray             # (nx, ny, nz)
    evals: np.ndarray          # (nx, ny, nz, 3) descending
    e1: np.ndarray             # (nx, ny, nz, 3) unit
    n_clamped: int = 0


def design_matrix(labels) -> np.ndarray:
    """Log-linear DTI design: columns (ln s0, Dxx, Dyy, Dzz, Dxy, Dxz, Dyz)."""
    rows = []
    for lab in labels:
        b = lab.b_value
        gx, gy, gz = lab.direction
        rows.append([1.0, -b * gx * gx, -b * gy * gy, -b * gz * gz,
                     -2 * b * gx * gy, -2 * b * gx * gz, -2 * b * gy * gz])
    return np.array(rows)


# theta's row of each tensor entry (design columns: ln s0, Dxx, Dyy,
# Dzz, Dxy, Dxz, Dyz)
_TENSOR_ROWS = np.array([[1, 4, 5], [4, 2, 6], [5, 6, 3]])
# lambda_1 - lambda_2 at or below this share of max|lambda| goes to eigh
EIG_GAP = 1e-3


def fit_tensors(series: CasoratiSeries, mask: np.ndarray) -> TensorField:
    """Weighted log-linear least-squares tensor fit per masked voxel.

    Magnitudes are floored at machine epsilon before the log; weights are
    the squared magnitudes (repeated averages just contribute repeated
    design rows).  Both kernels run over all masked voxels at once (see
    the module notes):

    - normal equations: a Cholesky factorization of each 7 x 7 SPD
      matrix, one length-V array per entry; the solution agrees with
      ``np.linalg.solve`` to the condition of the diagonally scaled
      matrix.
    - eigensystem: closed form where lambda_1 - lambda_2 >
      ``EIG_GAP`` max|lambda| (1e-3), with eigenvalues within
      1e-12 max|lambda| and e1 within 1e-6 rad (up to sign) of
      ``np.linalg.eigh``'s; elsewhere (isotropic and zero tensors,
      lambda_1 ~ lambda_2) ``eigh`` itself, so those voxels keep its
      output bit for bit.

    Errors: a NaN/Inf sample inside the mask (samples outside it are
    never read) raises NumericalError with the count of such samples,
    before any arithmetic; a normal matrix with a non-positive (or NaN)
    Cholesky pivot, i.e. weights that leave it numerically singular,
    raises NumericalError with the count of such voxels.
    """
    labels = series.column_labels
    n_b0 = sum(lab.is_b0 for lab in labels)
    dw_dirs = {lab.direction for lab in labels if not lab.is_b0}
    if n_b0 < 1 or len(dw_dirs) < 6:
        raise ValidationError(
            f"tensor fit needs >= 1 b=0 column and >= 6 distinct DW directions; "
            f"got {n_b0} b=0 and directions {sorted(dw_dirs)}")
    design = design_matrix(labels)
    if np.linalg.matrix_rank(design) < 7:
        raise ValidationError(
            f"rank-deficient DTI design; directions: {sorted(dw_dirs)}")

    mask = np.asarray(mask, dtype=bool)
    if mask.shape != series.spatial_dims:
        raise ValidationError(f"mask shape {mask.shape} does not match the series "
                              f"grid {series.spatial_dims}")
    nx, ny, nz = mask.shape
    samples = series.data[mask.ravel(order="F")]
    n_bad = samples.size - np.count_nonzero(np.isfinite(samples))
    if n_bad:
        raise NumericalError(
            f"tensor fit: {n_bad} non-finite sample(s) of {samples.size} "
            f"in the masked series")
    # the magnitude (in float64 for any input), its log and the weighted
    # log share one buffer, and each array dies once read: the samples
    # once |.| is taken, the (V, N) arrays before the solve, the normal
    # equations before the eigensystem
    mag = np.abs(samples).astype(np.float64, copy=False)
    del samples
    np.maximum(mag, np.finfo(np.float64).eps, out=mag)
    weights = np.square(mag)
    logs = np.log(mag, out=mag)
    del mag

    # the 28 unique entries of D^T W D as one GEMM, one row per entry
    rows, cols = np.tril_indices(7)
    lhs = (design[:, rows] * design[:, cols]).T @ weights.T
    rhs = design.T @ np.multiply(weights, logs, out=logs).T
    del weights, logs
    theta = _cholesky_solve(lhs, rhs)
    del lhs, rhs

    s0_v = np.exp(theta[0])
    # (3, 3, V): each tensor entry a contiguous length-V array
    tensors_c = theta[_TENSOR_ROWS]
    evals_v, e1_v = _eigensystem(tensors_c)
    tensors_v = tensors_c.transpose(2, 0, 1)
    n_clamped = int(np.count_nonzero((evals_v < 0).any(axis=1)))
    evals_v = np.clip(evals_v, 0.0, None)
    flip = e1_v[:, 2] < 0
    tie = e1_v[:, 2] == 0
    flip |= tie & ((e1_v[:, 0] < 0) | ((e1_v[:, 0] == 0) & (e1_v[:, 1] < 0)))
    e1_v = np.where(flip[:, None], -e1_v, e1_v)

    def scatter(values, trailing):
        out = np.zeros((nx * ny * nz,) + trailing, dtype=values.dtype)
        out[mask.ravel(order="F")] = values
        return out.reshape((nx, ny, nz) + trailing, order="F")

    return TensorField(mask=mask,
                       tensors=scatter(tensors_v, (3, 3)),
                       s0=scatter(s0_v, ()),
                       evals=scatter(evals_v, (3,)),
                       e1=scatter(e1_v, (3,)),
                       n_clamped=n_clamped)


def _cholesky_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve V SPD systems A x = b by Cholesky, one length-V array per entry.

    ``lhs`` (n(n+1)/2, V) holds the lower triangles in ``np.tril_indices``
    order, ``rhs`` is (n, V); returns x as (n, V).  A pivot that is not
    positive (or NaN) raises NumericalError.
    """
    n = rhs.shape[0]
    fac = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(j, n):
            acc = lhs[i * (i + 1) // 2 + j].copy()
            for k in range(j):
                acc -= fac[i][k] * fac[j][k]
            if i > j:
                acc /= fac[j][j]
            else:
                bad = ~(acc > 0)
                if bad.any():
                    raise NumericalError(
                        f"tensor fit: normal matrix not positive definite at "
                        f"{np.count_nonzero(bad)} voxel(s) (pivot {j})")
                np.sqrt(acc, out=acc)
            fac[i][j] = acc
    y = []
    for i in range(n):
        acc = rhs[i].copy()
        for k in range(i):
            acc -= fac[i][k] * y[k]
        y.append(acc / fac[i][i])
    x = [None] * n
    for i in reversed(range(n)):
        acc = y[i]
        for k in range(i + 1, n):
            acc -= fac[k][i] * x[k]
        x[i] = acc / fac[i][i]
    return np.array(x)


def _eigensystem(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues (V, 3) and top eigenvectors (V, 3) of
    symmetric tensors given as (3, 3, V); e1's sign is left to the caller.

    The closed form runs on every voxel (module notes); where the top
    eigenvalue is not separated its output is replaced by that of
    ``np.linalg.eigh``, bit for bit.
    """
    q = (t[0, 0] + t[1, 1] + t[2, 2]) / 3
    ax, ay, az = t[0, 0] - q, t[1, 1] - q, t[2, 2] - q
    xy, xz, yz = t[0, 1], t[0, 2], t[1, 2]
    p = np.sqrt((ax * ax + ay * ay + az * az
                 + 2 * (xy * xy + xz * xz + yz * yz)) / 6)
    with np.errstate(divide="ignore", invalid="ignore"):
        # det(T - qI) / (2 p^3) = cos(3 phi); NaN where p = 0
        det = (ax * (ay * az - yz * yz) - xy * (xy * az - yz * xz)
               + xz * (xy * yz - ay * xz))
        phi = np.arccos(np.clip(det / (2 * p ** 3), -1.0, 1.0)) / 3
        top = q + 2 * p * np.cos(phi)
        low = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
        mid = 3 * q - top - low
        sep = top - mid > EIG_GAP * np.maximum(np.abs(top), np.abs(low))

        # e1: the longest cross product of two rows of T - lambda_1 I
        m = t - top * np.eye(3)[:, :, None]
        ra, rb = m[[0, 0, 1]], m[[1, 2, 2]]          # rows (0, 1), (0, 2), (1, 2)
        nxt, prv = [1, 2, 0], [2, 0, 1]
        cand = ra[:, nxt] * rb[:, prv] - ra[:, prv] * rb[:, nxt]
        norm2 = np.einsum("ckv,ckv->cv", cand, cand)
        best = np.argmax(norm2, axis=0)
        n = np.choose(best, cand) / np.sqrt(np.choose(best, norm2))
        # the eigenvalues are those of T in the orthonormal frame (n, u, w):
        # lambda_1 = n^T T n, and the (u, w) block is diagonalized in
        # closed form; the branchless frame is from Duff et al.,
        # "Building an orthonormal basis, revisited" (JCGT 2017)
        sign = np.where(n[2] < 0, -1.0, 1.0)
        a = -1.0 / (sign + n[2])
        b = n[0] * n[1] * a
        u = np.array([1 + sign * n[0] ** 2 * a, sign * b, -sign * n[0]])
        w = np.array([b, sign + n[1] ** 2 * a, -n[1]])
        tw = np.einsum("ijv,jv->iv", t, w)
        uu = np.einsum("iv,iv->v", u, np.einsum("ijv,jv->iv", t, u))
        ww = np.einsum("iv,iv->v", w, tw)
        uw = np.einsum("iv,iv->v", u, tw)
        half = np.hypot((uu - ww) / 2, uw)
        evals = np.stack([np.einsum("iv,iv->v", n, np.einsum("ijv,jv->iv", t, n)),
                          (uu + ww) / 2 + half, (uu + ww) / 2 - half], axis=1)
        e1 = n.T.copy()
    if not sep.all():
        lam, vec = np.linalg.eigh(t[:, :, ~sep].transpose(2, 0, 1))
        evals[~sep] = lam[:, ::-1]
        e1[~sep] = vec[:, :, 2]
    return evals, e1


def mean_diffusivity(field: TensorField) -> np.ndarray:
    """MD = (l1 + l2 + l3) / 3, zero outside the mask."""
    return field.evals.mean(axis=-1) * field.mask


def fractional_anisotropy(field: TensorField) -> np.ndarray:
    """FA = sqrt(3/2) * ||l - MD|| / ||l||, zero for zero tensors."""
    lam = field.evals
    md = lam.mean(axis=-1, keepdims=True)
    num = np.linalg.norm(lam - md, axis=-1)
    den = np.linalg.norm(lam, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        fa = np.where(den > 0, np.sqrt(1.5) * num / den, 0.0)
    return fa * field.mask


def mask_centroids(mask: np.ndarray) -> np.ndarray:
    """Per-slice (cx, cy) centroid of the masked voxels."""
    nx, ny, nz = mask.shape
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    centers = np.full((nz, 2), np.nan)
    for z in range(nz):
        m = mask[:, :, z]
        if m.any():
            centers[z] = (xs[m].mean(), ys[m].mean())
    return centers


def _slice_offsets(mask: np.ndarray):
    """Per slice z with a masked voxel: (z, dx, dy), the in-plane offsets
    of every voxel of the slice from the slice's mask centroid."""
    nx, ny, _ = mask.shape
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float),
                         indexing="ij")
    for z, (cx, cy) in enumerate(mask_centroids(mask)):
        if mask[:, :, z].any():
            yield z, xs - cx, ys - cy


def helix_angle(field: TensorField) -> np.ndarray:
    """HA map in degrees about each slice's mask centroid; NaN outside the
    mask and at a masked voxel on the centroid itself (excluded, with a
    warning)."""
    mask = field.mask
    ha = np.full(mask.shape, np.nan)
    excluded = 0
    for z, dx, dy in _slice_offsets(mask):
        m = mask[:, :, z]
        r = np.hypot(dx, dy)
        at_center = m & (r == 0)
        excluded += int(np.count_nonzero(at_center))
        valid = m & (r > 0)
        # circumferential = z x radial = (-dy, dx)/r
        cvec_x = -dy[valid] / r[valid]
        cvec_y = dx[valid] / r[valid]
        e1 = field.e1[:, :, z][valid]
        c = e1[:, 0] * cvec_x + e1[:, 1] * cvec_y
        l = e1[:, 2].copy()
        neg = c < 0
        c = np.abs(c)
        l[neg] = -l[neg]
        angles = np.degrees(np.arctan2(l, c))
        angles[angles <= -90.0] = 90.0
        ha[:, :, z][valid] = angles
    if excluded:
        warnings.warn(f"{excluded} voxel(s) at the exact LV center excluded from HA")
    return ha


# the transmural rays cast per slice, and the spacing (voxels) of the
# samples along each
N_RAYS = 25
RAY_STEP = 0.1


@dataclass(frozen=True)
class HatResult:
    """Transmural regression output: ``N_RAYS`` rays per slice."""

    ray_slopes: np.ndarray        # (nz, n_rays), deg per %TD, NaN for skipped
    ray_r2: np.ndarray            # (nz, n_rays)
    global_hat: float             # mean over slices of the per-slice mean slope
    ray_angles: np.ndarray        # (n_rays,), radians
    n_skipped: int


def compute_hat(ha_map: np.ndarray, mask: np.ndarray) -> HatResult:
    """Per-ray OLS slope of HA versus transmural depth.

    Rays are cast from each slice's mask centroid at ``N_RAYS`` equally
    spaced angles; the rays of a slice with no masked voxel are skipped.
    Each ray is sampled every ``RAY_STEP`` voxels; a sample belongs to the
    wall if its nearest voxel is masked, and carries the HA interpolated
    bilinearly over the masked in-plane neighbors.  %TD runs linearly in
    arc length from the endocardial boundary (0%, half a step before the
    first masked sample) to the epicardial boundary (100%, half a step
    after the last); anchoring the scale at the mask transitions keeps
    the voxelization error zero-mean.  Rays meeting fewer than 3
    distinct masked voxels are skipped.  The regression prefers samples
    whose interpolation weight falls wholly on masked voxels with a
    finite HA; a ray with fewer than 3 of them falls back to every
    sample with a finite value, and a ray with fewer than 3 of those is
    skipped.

    Each slice is one batch: the samples of all rays form an
    (n_rays, n_samples) grid, so the distinct-voxel count is a row-wise
    sort of voxel ids, the interpolation is one call over the wall
    samples of the rays that pass, and each ray's two-pass OLS (means,
    then centered sums) is a set of segment sums over its samples.
    """
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    centers = mask_centroids(mask)
    n_rays, step = N_RAYS, RAY_STEP
    angles = 2 * np.pi * np.arange(n_rays) / n_rays
    cos_t, sin_t = np.cos(angles)[:, None], np.sin(angles)[:, None]
    slopes = np.full((nz, n_rays), np.nan)
    r2s = np.full((nz, n_rays), np.nan)
    r_max = float(np.hypot(nx, ny))
    radii = np.arange(0.0, r_max, step)
    for z in range(nz):
        if not mask[:, :, z].any():
            continue
        cx, cy = centers[z]
        # a sample a step beyond the farthest image corner is outside
        reach = np.hypot(max(cx, nx - 1 - cx), max(cy, ny - 1 - cy)) + step
        r = radii[:np.searchsorted(radii, reach)]
        px = cx + r * cos_t                         # (n_rays, n_samples)
        py = cy + r * sin_t
        inb = (px >= 0) & (px <= nx - 1) & (py >= 0) & (py <= ny - 1)
        ix = np.where(inb, np.rint(px), 0).astype(int)
        iy = np.where(inb, np.rint(py), 0).astype(int)
        hit = inb & mask[ix, iy, z]
        voxel = np.sort(np.where(hit, ix * ny + iy, -1), axis=1)
        new = voxel >= 0
        new[:, 1:] &= voxel[:, 1:] != voxel[:, :-1]
        rays = np.flatnonzero(np.count_nonzero(new, axis=1) >= 3)
        if not rays.size:
            continue
        hit = hit[rays]
        first = np.argmax(hit, axis=1)
        last = hit.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1)
        r_endo = r[first] - step / 2.0
        r_epi = r[last] + step / 2.0
        seg, col = np.nonzero(hit)                 # samples grouped by ray
        td = 100.0 * (r[col] - r_endo[seg]) / (r_epi[seg] - r_endo[seg])
        values, coverage = _masked_bilinear(ha_map[:, :, z], mask[:, :, z],
                                            px[rays[seg], col], py[rays[seg], col])
        finite = np.isfinite(values)
        full = finite & (coverage > 1.0 - 1e-9)
        n_full = np.bincount(seg[full], minlength=rays.size)
        ok = np.where((n_full >= 3)[seg], full, finite)
        slope, r2 = _segment_ols(seg[ok], td[ok], values[ok], rays.size)
        fitted = np.bincount(seg[ok], minlength=rays.size) >= 3
        slopes[z, rays[fitted]] = slope[fitted]
        r2s[z, rays[fitted]] = r2[fitted]
    skipped = int(np.count_nonzero(np.isnan(slopes)))
    global_hat = float(_nanmean(_nanmean(slopes, axis=1)))
    return HatResult(slopes, r2s, global_hat, angles, skipped)


def _nanmean(values: np.ndarray, axis: int | None = None):
    """``np.nanmean`` bit for bit, but NaN on an all-NaN slice with no warning."""
    nan = np.isnan(values)
    total = np.where(nan, 0.0, values).sum(axis=axis)
    with np.errstate(invalid="ignore"):
        return total / np.sum(~nan, axis=axis, dtype=np.intp)


def check_finite_metrics(hat: HatResult, md: float) -> None:
    """A non-finite global HAT or mean MD ``md`` is a NumericalError."""
    if not (np.isfinite(hat.global_hat) and np.isfinite(md)):
        raise NumericalError(f"non-finite metrics: HAT {hat.global_hat}, MD {md} "
                             f"({hat.n_skipped} of {hat.ray_slopes.size} rays skipped)")


def _masked_bilinear(plane: np.ndarray, mask: np.ndarray,
                     px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation over masked corners (weights renormalized).

    Returns (values, coverage) where coverage is the kept weight total;
    coverage == 1 means every contributing corner was masked.
    """
    nx, ny = plane.shape
    x0 = np.clip(np.floor(px).astype(int), 0, nx - 1)
    y0 = np.clip(np.floor(py).astype(int), 0, ny - 1)
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    fx = px - x0
    fy = py - y0
    vals = np.zeros(px.shape)
    wsum = np.zeros(px.shape)
    for xi, wx in ((x0, 1 - fx), (x1, fx)):
        for yi, wy in ((y0, 1 - fy), (y1, fy)):
            w = wx * wy * mask[xi, yi]
            v = plane[xi, yi]
            good = np.isfinite(v)
            vals += np.where(good, w * v, 0.0)
            wsum += np.where(good, w, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(wsum > 0, vals / wsum, np.nan)
    return values, wsum


def _segment_ols(seg: np.ndarray, x: np.ndarray, y: np.ndarray,
                 n_seg: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass OLS slope and r^2 of y on x per segment id ``seg``.

    A segment with zero spread in x has slope 0; with zero spread in y,
    r^2 is 1 for an exact fit and 0 otherwise.
    """
    def total(w):
        return np.bincount(seg, weights=w, minlength=n_seg)

    with np.errstate(divide="ignore", invalid="ignore"):
        count = total(None)
        xm = x - (total(x) / count)[seg]
        ym = y - (total(y) / count)[seg]
        sxx = total(xm * xm)
        slope = np.where(sxx > 0, total(xm * ym) / sxx, 0.0)
        ss_res = total((ym - slope[seg] * xm) ** 2)
        ss_tot = total(ym * ym)
        r2 = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot,
                      np.where(ss_res == 0, 1.0, 0.0))
    return slope, r2


@dataclass(frozen=True)
class AhaSegmentation:
    """AHA 16-segment labels: 6 basal, 6 mid, 4 apical sectors."""

    segments: np.ndarray          # (nx, ny, nz) int, 0 outside mask
    band_of_slice: tuple[str, ...]


BANDS = ("basal", "mid", "apical")
# first segment id, sector width (deg) and sector count of each band
_SECTORS = {"basal": (1, 60.0, 6), "mid": (7, 60.0, 6), "apical": (13, 90.0, 4)}


def aha_sector(angle_deg, band: str) -> np.ndarray:
    """AHA segment id of in-plane angles (degrees, counterclockwise) in
    slice band ``band``: six 60-deg sectors (basal 1-6, mid 7-12) or four
    90-deg sectors (apical 13-16), starting at 0 deg (the +x axis)."""
    first, width, count = _SECTORS[band]
    rel = np.mod(np.asarray(angle_deg, dtype=float), 360.0)
    return first + np.minimum((rel / width).astype(int), count - 1)


def segment_aha16(mask: np.ndarray) -> AhaSegmentation:
    """Assign AHA segment ids 1..16 to masked voxels.

    Slices split into basal/mid/apical thirds (extra slices assigned
    basal-first, slice 0 being most basal); angular sectors of 60 deg
    (basal, mid) or 90 deg (apical) start at 0 deg, the +x axis, and run
    counterclockwise about each slice's mask centroid.
    """
    mask = np.asarray(mask, dtype=bool)
    nz = mask.shape[2]
    if nz < 3:
        raise ValidationError(f"AHA segmentation needs >= 3 slices, got {nz}")
    base, rem = divmod(nz, 3)
    sizes = [base + (1 if i < rem else 0) for i in range(3)]
    slice_bands = []
    for band, size in zip(BANDS, sizes):
        slice_bands.extend([band] * size)
    for band in BANDS:
        band_slices = [z for z, b in enumerate(slice_bands) if b == band]
        if not any(mask[:, :, z].any() for z in band_slices):
            raise ValidationError(f"band '{band}' contains no masked voxels")

    segments = np.zeros(mask.shape, dtype=np.int16)
    for z, dx, dy in _slice_offsets(mask):
        seg = aha_sector(np.degrees(np.arctan2(dy, dx)), slice_bands[z])
        segments[:, :, z] = np.where(mask[:, :, z], seg, 0)
    return AhaSegmentation(segments, tuple(slice_bands))


def regional_means(values: np.ndarray, seg: AhaSegmentation) -> np.ndarray:
    """Mean of ``values`` per AHA segment (NaN where a segment is empty)."""
    out = np.full(16, np.nan)
    for s in range(1, 17):
        sel = seg.segments == s
        if sel.any():
            v = values[sel]
            v = v[np.isfinite(v)]
            if v.size:
                out[s - 1] = float(v.mean())
    return out


def regional_hat(hat: HatResult, seg: AhaSegmentation) -> np.ndarray:
    """Mean of the finite ray slopes per AHA segment, each ray assigned
    by its angle and its slice's band (NaN where a segment has none)."""
    angles = np.degrees(hat.ray_angles)
    sums = np.zeros(16)
    counts = np.zeros(16)
    for z, band in enumerate(seg.band_of_slice):
        slopes = hat.ray_slopes[z]
        ok = np.isfinite(slopes)
        ids = aha_sector(angles[ok], band) - 1
        np.add.at(sums, ids, slopes[ok])
        np.add.at(counts, ids, 1)
    out = np.full(16, np.nan)
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled]
    return out


def save_tensors(path, field: TensorField) -> None:
    write_container(path,
                    {"tensors": field.tensors.astype(np.float64),
                     "s0": field.s0.astype(np.float64),
                     "evals": field.evals.astype(np.float64),
                     "e1": field.e1.astype(np.float64),
                     "mask": field.mask},
                    {"kind": "tensor_field", "n_clamped": field.n_clamped})


def load_tensors(path) -> TensorField:
    arrays, meta = read_container(path, names=("tensors", "s0", "evals", "e1", "mask"),
                                  kind="tensor_field")
    return TensorField(arrays["mask"], arrays["tensors"], arrays["s0"],
                       arrays["evals"], arrays["e1"],
                       header_value(meta, "n_clamped", int, f"{path} metadata"))
