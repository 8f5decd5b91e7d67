import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcs_cdti import datamodel as dm
from lrcs_cdti import dti
from lrcs_cdti import phantom as ph
from lrcs_cdti.errors import NumericalError, ValidationError


@pytest.fixture(scope="module")
def truth():
    cfg = ph.PhantomConfig(seed=1)
    return cfg, ph.build_phantom(cfg)


@pytest.fixture(scope="module")
def true_ha(truth):
    # the HA map of the phantom's own tensors
    cfg, gt = truth
    return dti.helix_angle(gt.tensors)


@pytest.fixture(scope="module")
def fitted(truth):
    cfg, gt = truth
    return dti.fit_tensors(gt.clean_series, gt.myocardium_mask)


def synth_series(tensor, labels, shape=(1, 1, 1), s0=1.0):
    n = len(labels)
    data = np.empty((np.prod(shape), n), dtype=complex)
    for k, lab in enumerate(labels):
        g = np.asarray(lab.direction)
        data[:, k] = s0 * np.exp(-lab.b_value * g @ tensor @ g)
    return dm.CasoratiSeries(data, shape, labels)


class TestFitTensors:
    def test_isotropic_voxel(self):
        labels = ph.PhantomConfig().column_labels
        d_iso = 0.8e-3 * np.eye(3)
        series = synth_series(d_iso, labels)
        field = dti.fit_tensors(series, np.ones((1, 1, 1), dtype=bool))
        np.testing.assert_allclose(field.evals[0, 0, 0], 0.8e-3, rtol=1e-12)
        fa = dti.fractional_anisotropy(field)
        assert fa[0, 0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_phantom_md_exact(self, truth, fitted):
        cfg, gt = truth
        md = dti.mean_diffusivity(fitted)
        rel = np.abs(md[gt.myocardium_mask] / cfg.md_true - 1)
        assert rel.max() < 1e-9

    def test_phantom_fa_exact(self, truth, fitted):
        cfg, gt = truth
        fa = dti.fractional_anisotropy(fitted)
        assert np.abs(fa[gt.myocardium_mask] - cfg.fa_true).max() < 1e-9

    def test_phantom_e1_within_tenth_degree(self, truth, fitted):
        cfg, gt = truth
        dots = np.abs(np.einsum("...k,...k->...", fitted.e1, gt.tensors.e1))
        ang = np.degrees(np.arccos(np.clip(dots[gt.myocardium_mask], 0, 1)))
        assert ang.max() < 0.1

    def test_too_few_directions(self):
        labels = dm.make_labels([0, 1000], [tuple(v) for v in np.eye(3)])
        series = synth_series(1e-3 * np.eye(3), labels)
        with pytest.raises(ValidationError, match="6 distinct"):
            dti.fit_tensors(series, np.ones((1, 1, 1), dtype=bool))

    def test_rank_deficient_design_lists_directions(self):
        # six distinct but coplanar-degenerate directions
        base = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                (np.sqrt(0.5), np.sqrt(0.5), 0.0),
                (-np.sqrt(0.5), np.sqrt(0.5), 0.0),
                (np.sqrt(0.8), np.sqrt(0.2), 0.0),
                (np.sqrt(0.2), np.sqrt(0.8), 0.0)]
        labels = dm.make_labels([0, 1000], base)
        series = synth_series(1e-3 * np.eye(3), labels)
        with pytest.raises(ValidationError, match="directions"):
            dti.fit_tensors(series, np.ones((1, 1, 1), dtype=bool))

    def test_fit_inverts_simulation_per_voxel(self, truth, fitted):
        cfg, gt = truth
        mask = gt.myocardium_mask
        rel = (np.abs(fitted.tensors - gt.tensors.tensors).max(axis=(-2, -1))
               / np.abs(gt.tensors.tensors).max(axis=(-2, -1)).clip(min=1e-30))
        assert rel[mask].max() < 1e-9


    @pytest.mark.parametrize("n_averages", [1, 2])
    def test_matches_einsum_normal_equations(self, truth, n_averages):
        # a noisy phantom series; two averages repeat every design row
        cfg, gt = truth
        clean = gt.clean_series.data
        n_b0 = int(gt.clean_series.b0_columns.sum())
        data = np.hstack([clean[:, :n_b0]] * n_averages
                         + [clean[:, n_b0:]] * n_averages)
        rng = np.random.default_rng(n_averages)
        sigma = 0.05 * np.abs(clean).max()
        data = data + sigma * (rng.normal(size=data.shape)
                               + 1j * rng.normal(size=data.shape))
        one = dm.make_labels(cfg.b_values, cfg.directions)
        labels = ([lab._replace(average=a) for a in range(n_averages) for lab in one[:n_b0]]
                  + [lab._replace(average=a) for a in range(n_averages)
                     for lab in one[n_b0:]])
        mask = gt.myocardium_mask
        field = dti.fit_tensors(dm.CasoratiSeries(data, cfg.grid, labels), mask)

        design = dti.design_matrix(labels)
        mag = np.maximum(np.abs(data[mask.ravel(order="F")]), np.finfo(float).eps)
        w = mag ** 2
        lhs = np.einsum("nk,vn,nl->vkl", design, w, design)
        rhs = np.einsum("nk,vn,vn->vk", design, w, np.log(mag))
        theta = np.linalg.solve(lhs, rhs[..., None])[..., 0]
        voxels = mask.ravel(order="F")
        s0 = field.s0.ravel(order="F")[voxels]
        tensors = field.tensors.reshape((-1, 3, 3), order="F")[voxels]
        np.testing.assert_allclose(s0, np.exp(theta[:, 0]), rtol=1e-12)
        np.testing.assert_allclose(
            tensors[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]], theta[:, 1:],
            rtol=1e-12, atol=1e-12 * np.abs(theta[:, 1:]).max())


def eigh_reference(t):
    """Descending eigenvalues and top eigenvectors of (3, 3, V) tensors by
    LAPACK, the way fit_tensors computed them before its closed form."""
    lam, vec = np.linalg.eigh(t.transpose(2, 0, 1))
    return lam[:, ::-1], vec[:, :, 2]


def angle_between(a, b):
    """Angle (rad) between the lines through a and b, row by row."""
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=1),
                      np.abs(np.einsum("vk,vk->v", a, b)))


def random_rotations(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    return q * np.sign(np.einsum("vkk->vk", r))[:, None, :]


def tensor_batch(seed):
    """(3, 3, V) tensors of every kind the fit meets, and which of them
    have a top eigenvalue that is not separated."""
    rng = np.random.default_rng(seed)
    n = 40
    scale = 10.0 ** rng.uniform(-8, 3, size=n)
    sym = rng.normal(size=(n, 3, 3))
    random = (sym + sym.transpose(0, 2, 1)) * scale[:, None, None]   # indefinite too
    lam = np.sort(rng.normal(size=(n, 3)), axis=1)[:, ::-1] * scale[:, None]
    prolate = lam.copy()
    prolate[:, 2] = prolate[:, 1]                                    # l2 = l3
    oblate = lam.copy()
    oblate[:, 0] = oblate[:, 1]                                      # l1 = l2
    # l1 - l2 from 1e-6 to 1e-1 of max|l|, across the eigh threshold
    near = np.sort(np.abs(lam), axis=1)[:, ::-1]
    near[:, 0] = near[:, 1] * (1 + 10.0 ** rng.uniform(-6, -1, size=n))
    rot = random_rotations(rng, 3 * n)

    def rotate(q, diag):
        return np.einsum("vij,vj,vkj->vik", q, diag, q)
    isotropic = np.eye(3) * rng.normal(size=(n, 1, 1)) * scale[:, None, None]
    batch = np.concatenate([random, rotate(rot[:n], prolate),
                            rotate(rot[n:2 * n], oblate), rotate(rot[2 * n:], near),
                            isotropic, np.zeros((2, 3, 3))])
    degenerate = np.zeros(len(batch), bool)
    degenerate[2 * n:3 * n] = degenerate[4 * n:] = True
    return np.ascontiguousarray(batch.transpose(1, 2, 0)), degenerate


def assert_matches_eigh(t, degenerate=None):
    evals, e1 = dti._eigensystem(t)
    ref_evals, ref_e1 = eigh_reference(t)
    scale = np.abs(ref_evals).max(axis=1)
    assert (np.abs(evals - ref_evals) <= 1e-12 * scale[:, None]).all()
    assert (np.diff(evals, axis=1) <= 0).all()
    exact = (evals == ref_evals).all(axis=1) & (e1 == ref_e1).all(axis=1)
    gap = ref_evals[:, 0] - ref_evals[:, 1]
    # eigh's own output wherever the top eigenvalue is not separated
    assert exact[gap <= 0.5 * dti.EIG_GAP * scale].all()
    if degenerate is not None:
        assert exact[degenerate].all()
    assert (angle_between(e1, ref_e1)[~exact] <= 1e-6).all()
    return exact


def normal_system(design, weights, logs):
    """(V, 7, 7) normal matrices and (V, 7) right-hand sides by einsum."""
    return (np.einsum("nk,vn,nl->vkl", design, weights, design),
            np.einsum("nk,vn,vn->vk", design, weights, logs))


def packed_lower(full):
    rows, cols = np.tril_indices(full.shape[-1])
    return np.ascontiguousarray(full[:, rows, cols].T)


def noisy_phantom_series(gt, snr, seed):
    data = gt.clean_series.data
    sigma = np.abs(data).max() / snr
    rng = np.random.default_rng(seed)
    return gt.clean_series.with_data(
        data + sigma * (rng.normal(size=data.shape) + 1j * rng.normal(size=data.shape)))


class TestFitKernels:
    """The closed-form eigensystem and the batched Cholesky against the
    LAPACK calls they replace."""

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_eigensystem_matches_eigh(self, seed):
        t, degenerate = tensor_batch(seed)
        exact = assert_matches_eigh(t, degenerate)
        assert not exact[:40].all()          # the closed form did run

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_noisy_phantom_fit_matches_eigh(self, truth, seed):
        cfg, gt = truth
        field = dti.fit_tensors(noisy_phantom_series(gt, 8.0, seed),
                                gt.myocardium_mask)
        mask = field.mask
        t = np.ascontiguousarray(field.tensors[mask].transpose(1, 2, 0))
        assert_matches_eigh(t)
        evals, _ = dti._eigensystem(t)
        ref_evals, ref_e1 = eigh_reference(t)
        assert field.n_clamped == np.count_nonzero((ref_evals < 0).any(axis=1))
        np.testing.assert_array_equal(field.evals[mask], np.clip(evals, 0, None))
        assert (field.e1[mask][:, 2] >= 0).all()
        assert (angle_between(field.e1[mask], ref_e1) <= 1e-6).all()

    def test_cholesky_matches_solve_on_phantom_normal_matrices(self, truth):
        cfg, gt = truth
        series = noisy_phantom_series(gt, 8.0, 0)
        mag = np.maximum(np.abs(series.data[gt.myocardium_mask.ravel(order="F")]),
                         np.finfo(float).eps)
        lhs, rhs = normal_system(dti.design_matrix(series.column_labels),
                                 mag ** 2, np.log(mag))
        want = np.linalg.solve(lhs, rhs[..., None])[..., 0]
        got = dti._cholesky_solve(packed_lower(lhs), np.ascontiguousarray(rhs.T)).T
        np.testing.assert_allclose(got[:, 0], want[:, 0], rtol=0,
                                   atol=1e-12 * np.abs(want[:, 0]).max())
        np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=0,
                                   atol=1e-12 * np.abs(want[:, 1:]).max())

    def test_cholesky_with_a_1e12_weight_range(self):
        # ill-conditioned systems: agreement with solve is bounded by the
        # condition of the diagonally scaled matrix (van der Sluis), and
        # the residual is at rounding level
        rng = np.random.default_rng(3)
        design = dti.design_matrix(ph.PhantomConfig().column_labels)
        weights = 10.0 ** rng.uniform(-6, 6, size=(500, len(design)))
        lhs, rhs = normal_system(design, weights,
                                 rng.normal(size=weights.shape))
        want = np.linalg.solve(lhs, rhs[..., None])[..., 0]
        got = dti._cholesky_solve(packed_lower(lhs), np.ascontiguousarray(rhs.T)).T
        eps = np.finfo(float).eps
        s = np.sqrt(np.einsum("vkk->vk", lhs))
        kappa = np.linalg.cond(lhs / s[:, :, None] / s[:, None, :])
        assert kappa.max() > 1e9
        forward = (np.linalg.norm(s * (got - want), axis=1)
                   / np.linalg.norm(s * want, axis=1))
        assert (forward <= 10 * eps * kappa).all()
        backward = (np.linalg.norm(np.einsum("vkl,vl->vk", lhs, got) - rhs, axis=1)
                    / (np.linalg.norm(lhs, axis=(1, 2)) * np.linalg.norm(got, axis=1)))
        assert (backward <= 10 * eps).all()

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_non_positive_pivot_is_a_named_error(self, bad):
        full = np.stack([np.eye(7)] * 3)
        full[1, 4, 4] = bad
        with pytest.raises(NumericalError,
                           match=r"not positive definite at 1 voxel\(s\) \(pivot 4\)"):
            dti._cholesky_solve(packed_lower(full), np.ones((7, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_masked_sample_is_a_named_error(self, truth, bad):
        cfg, gt = truth
        mask = gt.myocardium_mask
        data = gt.clean_series.data.copy()
        inside = np.flatnonzero(mask.ravel(order="F"))
        data[inside[7], 3] = bad
        data[inside[9], :2] = bad
        n = inside.size * data.shape[1]
        with pytest.raises(NumericalError,
                           match=rf"^tensor fit: 3 non-finite sample\(s\) of {n} "):
            dti.fit_tensors(gt.clean_series.with_data(data), mask)

    @pytest.mark.parametrize("shape", [(64, 64, 3), (64, 4, 64)])
    def test_mask_of_another_grid_is_a_named_error(self, truth, shape):
        # (64, 4, 64) has the series' voxel count, laid out differently
        cfg, gt = truth
        with pytest.raises(ValidationError, match=re.escape(
                f"mask shape {shape} does not match the series grid (64, 64, 4)")):
            dti.fit_tensors(gt.clean_series, np.ones(shape, dtype=bool))

    def test_non_finite_sample_outside_the_mask_is_ignored(self, truth, fitted):
        cfg, gt = truth
        data = gt.clean_series.data.copy()
        data[np.flatnonzero(~gt.myocardium_mask.ravel(order="F"))[0]] = np.nan
        field = dti.fit_tensors(gt.clean_series.with_data(data), gt.myocardium_mask)
        np.testing.assert_array_equal(field.evals, fitted.evals)


class TestScalarMetrics:
    def test_stick_tensor(self):
        evals = np.zeros((1, 1, 1, 3))
        evals[0, 0, 0] = (3e-3, 0.0, 0.0)
        field = dti.TensorField(mask=np.ones((1, 1, 1), bool),
                                tensors=np.zeros((1, 1, 1, 3, 3)),
                                s0=np.ones((1, 1, 1)), evals=evals,
                                e1=np.zeros((1, 1, 1, 3)))
        assert dti.mean_diffusivity(field)[0, 0, 0] == pytest.approx(1e-3)
        assert dti.fractional_anisotropy(field)[0, 0, 0] == pytest.approx(1.0)

    def test_isotropic_fa_zero(self):
        evals = np.full((1, 1, 1, 3), 1e-3)
        field = dti.TensorField(mask=np.ones((1, 1, 1), bool),
                                tensors=np.zeros((1, 1, 1, 3, 3)),
                                s0=np.ones((1, 1, 1)), evals=evals,
                                e1=np.zeros((1, 1, 1, 3)))
        assert dti.fractional_anisotropy(field)[0, 0, 0] == pytest.approx(0.0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        # random SPD tensor and a random rotation applied to it
        a = rng.normal(size=(3, 3))
        d = a @ a.T + 0.1 * np.eye(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        lam1 = np.sort(np.linalg.eigvalsh(d))[::-1]
        lam2 = np.sort(np.linalg.eigvalsh(q @ d @ q.T))[::-1]
        md1, md2 = lam1.mean(), lam2.mean()
        assert md1 == pytest.approx(md2, rel=1e-10)

        def fa(lam):
            return np.sqrt(1.5) * np.linalg.norm(lam - lam.mean()) / np.linalg.norm(lam)
        assert fa(lam1) == pytest.approx(fa(lam2), rel=1e-8, abs=1e-10)


class TestHelixAngle:
    def make_field(self, e1_vec, nx=5, ny=5):
        # (3, 2) and its mirror (1, 2) put the mask centroid, the LV
        # center, at (2, 2): (3, 2) is east of it, so radial = +x there
        mask = np.zeros((nx, ny, 1), bool)
        mask[[1, 3], 2, 0] = True
        e1 = np.zeros((nx, ny, 1, 3))
        e1[[1, 3], 2, 0] = e1_vec
        return dti.TensorField(mask=mask, tensors=np.zeros((nx, ny, 1, 3, 3)),
                               s0=np.ones((nx, ny, 1)),
                               evals=np.zeros((nx, ny, 1, 3)), e1=e1)

    def test_circumferential_fiber_zero(self):
        # at a voxel east of center, circumferential = +y
        field = self.make_field([0.0, 1.0, 0.0])
        ha = dti.helix_angle(field)
        assert ha[3, 2, 0] == pytest.approx(0.0, abs=1e-12)

    def test_equal_components_45(self):
        field = self.make_field([0.0, np.sqrt(0.5), np.sqrt(0.5)])
        ha = dti.helix_angle(field)
        assert ha[3, 2, 0] == pytest.approx(45.0, abs=1e-12)

    def test_sign_invariance(self):
        vec = np.array([0.2, 0.7, 0.5])
        vec /= np.linalg.norm(vec)
        a = dti.helix_angle(self.make_field(vec))
        b = dti.helix_angle(self.make_field(-vec))
        assert a[3, 2, 0] == pytest.approx(b[3, 2, 0], abs=1e-12)

    def test_phantom_midwall_near_zero(self, truth, fitted):
        cfg, gt = truth
        ha = dti.helix_angle(fitted)
        nx, ny, nz = cfg.grid
        xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        r = np.hypot(xs - cfg.center[0], ys - cfg.center[1])
        mid_r = (cfg.r_endo + cfg.r_epi) / 2
        mid = (np.abs(r - mid_r) < 0.5)[:, :, None] & gt.myocardium_mask
        assert np.nanmax(np.abs(ha[mid])) < 1.0 + 60 * 1.0 / (cfg.r_epi - cfg.r_endo)

    def test_center_voxel_excluded_with_warning(self):
        # three voxels in a row: the middle one is the mask centroid
        mask = np.zeros((5, 5, 1), bool)
        mask[1:4, 2, 0] = True
        e1 = np.zeros((5, 5, 1, 3))
        e1[..., 1] = 1.0
        field = dti.TensorField(mask=mask, tensors=np.zeros((5, 5, 1, 3, 3)),
                                s0=np.ones((5, 5, 1)), evals=np.zeros((5, 5, 1, 3)),
                                e1=e1)
        with pytest.warns(UserWarning, match="center"):
            ha = dti.helix_angle(field)
        assert np.isnan(ha[2, 2, 0])
        assert np.isfinite(ha[3, 2, 0])


class TestComputeHat:
    def test_exact_linear_profile_on_a_bar(self):
        # single-ray geometry; the expected slope follows from a 5-line
        # mini-oracle replicating the documented sampling rule (nearest
        # voxel every 0.1 along the ray, anchors half a step outside the
        # first/last masked samples); linear data must regress exactly
        nx, ny = 32, 9
        mask = bar_mask()
        cx, cy = dti.mask_centroids(mask)[0]
        assert (cx, cy) == (7.25, 4.0)
        step = dti.RAY_STEP
        radii = np.arange(0.0, np.hypot(nx, ny), step)
        hit = np.flatnonzero((np.rint(cx + radii) >= 9) & (np.rint(cx + radii) <= 23))
        lo = radii[hit[0]] - step / 2
        hi = radii[hit[-1]] + step / 2
        c1 = -0.9   # HA change per voxel of x
        ha = np.full((nx, ny, 1), np.nan)
        ha[:, 4, 0] = 10.0 + c1 * np.arange(nx, dtype=float)
        expected = c1 * (hi - lo) / 100.0
        res = dti.compute_hat(ha, mask)
        assert res.ray_slopes[0, 0] == pytest.approx(expected, abs=1e-10)
        assert res.ray_r2[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_field_zero_slope(self, truth):
        cfg, gt = truth
        const = np.where(gt.myocardium_mask, 17.0, np.nan)
        res = dti.compute_hat(const, gt.myocardium_mask)
        assert abs(res.global_hat) < 1e-12

    def test_phantom_slope_within_two_percent(self, truth, true_ha):
        cfg, gt = truth
        res = dti.compute_hat(true_ha, gt.myocardium_mask)
        assert res.global_hat == pytest.approx(gt.hat_global, rel=0.02)
        assert res.n_skipped == 0

    def test_ray_r2_above_invariant_threshold(self, truth, true_ha):
        cfg, gt = truth
        res = dti.compute_hat(true_ha, gt.myocardium_mask)
        assert np.nanmin(res.ray_r2) > 0.999

    def test_thin_mask_rays_skipped(self):
        mask = np.zeros((16, 16, 1), bool)
        mask[10, 8, 0] = True   # single voxel: every ray sees < 3 voxels
        ha = np.where(mask, 1.0, np.nan)
        res = dti.compute_hat(ha, mask)
        assert res.n_skipped == 25
        assert np.isnan(res.ray_slopes).all()

    def test_all_nan_slice_changes_no_warning_filter(self):
        mask, ha = mask_with_a_skipped_slice()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filters = list(warnings.filters)
            res = dti.compute_hat(ha, mask)
            assert warnings.filters == filters
        assert np.isnan(res.ray_slopes[0]).all() and np.isfinite(res.ray_slopes[1]).any()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = np.nanmean(np.nanmean(res.ray_slopes, axis=1))
        assert res.global_hat == want

    def test_concurrent_calls_change_no_warning_filter(self):
        # two threads switching every microsecond: a filter set and reset
        # per call left ('ignore', RuntimeWarning) in the process's
        # filters in every such run
        mask, ha = mask_with_a_skipped_slice()
        filters = list(warnings.filters)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for calls in [pool.submit(lambda: [dti.compute_hat(ha, mask)
                                                   for _ in range(100)])
                              for _ in range(2)]:
                    calls.result()
        finally:
            sys.setswitchinterval(interval)
        assert warnings.filters == filters


def mask_with_a_skipped_slice():
    """A 16 x 16 x 2 (mask, HA map): slice 0 holds one voxel, so its every
    ray is skipped, and slice 1 a ring whose rays are fitted."""
    mask = np.zeros((16, 16, 2), bool)
    mask[10, 8, 0] = True
    mask[4:12, 4:12, 1] = True
    mask[6:10, 6:10, 1] = False
    ha = np.where(mask, np.linspace(-1.0, 1.0, 16)[:, None, None], np.nan)
    return mask, ha


def bar_mask(block_rows=slice(1, 8)):
    """A 32 x 9 x 1 mask: a bar x=9..23 on row 4, which ray 0 meets, and
    behind the ray's start a block x=0..2 over ``block_rows``.  The block
    puts the mask centroid at (7.25, 4) with rows 1-7: the bar starts
    1.75 voxels east of it."""
    mask = np.zeros((32, 9, 1), bool)
    mask[9:24, 4, 0] = True
    mask[0:3, block_rows, 0] = True
    return mask


def reference_compute_hat(ha_map, mask, n_rays=25, step=0.1):
    """Loop oracle: one ray at a time about each slice's mask centroid,
    the documented sampling rule written out (the per-ray implementation
    the batched one replaced)."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    centers = dti.mask_centroids(mask)
    angles = 2 * np.pi * np.arange(n_rays) / n_rays
    slopes = np.full((nz, n_rays), np.nan)
    r2s = np.full((nz, n_rays), np.nan)
    skipped = 0
    radii = np.arange(0.0, float(np.hypot(nx, ny)), step)
    for z in range(nz):
        if not mask[:, :, z].any():
            skipped += n_rays
            continue
        cx, cy = centers[z]
        for j, theta in enumerate(angles):
            px = cx + radii * np.cos(theta)
            py = cy + radii * np.sin(theta)
            inb = (px >= 0) & (px <= nx - 1) & (py >= 0) & (py <= ny - 1)
            px, py = px[inb], py[inb]
            ix = np.rint(px).astype(int)
            iy = np.rint(py).astype(int)
            sel = np.flatnonzero(mask[ix, iy, z])
            if sel.size < 2 or len(set(zip(ix[sel].tolist(), iy[sel].tolist()))) < 3:
                skipped += 1
                continue
            r_sel = radii[inb][sel]
            r_endo = r_sel[0] - step / 2.0
            r_epi = r_sel[-1] + step / 2.0
            td = 100.0 * (r_sel - r_endo) / (r_epi - r_endo)
            values, coverage = dti._masked_bilinear(ha_map[:, :, z], mask[:, :, z],
                                                    px[sel], py[sel])
            ok = np.isfinite(values) & (coverage > 1.0 - 1e-9)
            if np.count_nonzero(ok) < 3:
                ok = np.isfinite(values)
            if np.count_nonzero(ok) < 3:
                skipped += 1
                continue
            slopes[z, j], r2s[z, j] = reference_ols_slope(td[ok], values[ok])
    return slopes, r2s, skipped


def reference_ols_slope(x, y):
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = (xm * xm).sum()
    slope = float((xm * ym).sum() / sxx) if sxx > 0 else 0.0
    ss_res = float(((ym - slope * xm) ** 2).sum())
    ss_tot = float((ym * ym).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return slope, r2


def assert_hat_matches_loop(ha_map, mask):
    res = dti.compute_hat(ha_map, mask)
    slopes, r2s, skipped = reference_compute_hat(ha_map, mask, dti.N_RAYS,
                                                 dti.RAY_STEP)
    assert res.n_skipped == skipped
    np.testing.assert_array_equal(np.isnan(res.ray_slopes), np.isnan(slopes))
    np.testing.assert_array_equal(np.isnan(res.ray_r2), np.isnan(r2s))
    np.testing.assert_allclose(res.ray_slopes, slopes, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.ray_r2, r2s, rtol=1e-12, atol=0)
    return res


@pytest.fixture(scope="module")
def noisy_ha(truth):
    """HA of a noisy fit of the phantom, with NaN holes in the wall."""
    cfg, gt = truth
    rng = np.random.default_rng(5)
    data = gt.clean_series.data
    sigma = 0.05 * np.abs(data).max()
    noisy = gt.clean_series.with_data(
        data + sigma * (rng.normal(size=data.shape) + 1j * rng.normal(size=data.shape)))
    ha = dti.helix_angle(dti.fit_tensors(noisy, gt.myocardium_mask))
    ha[gt.myocardium_mask & (rng.random(ha.shape) < 0.1)] = np.nan
    return ha


class TestHatAgainstLoop:
    def test_phantom_with_center(self):
        # a phantom whose LV center is off the voxel lattice in x: so is
        # its mask centroid, within a tenth of a voxel of the center
        gt = ph.build_phantom(ph.PhantomConfig(lv_center=(31.3, 30.0)))
        centers = dti.mask_centroids(gt.myocardium_mask)
        assert (centers[:, 0] % 0.5 != 0).all()
        np.testing.assert_allclose(centers, [[31.3, 30.0]] * 4, atol=0.1)
        res = assert_hat_matches_loop(dti.helix_angle(gt.tensors), gt.myocardium_mask)
        assert res.n_skipped == 0

    def test_phantom_mask_centroid(self, truth, true_ha):
        cfg, gt = truth
        res = assert_hat_matches_loop(true_ha, gt.myocardium_mask)
        assert res.n_skipped == 0

    def test_noisy_fit_with_holes(self, truth, noisy_ha):
        cfg, gt = truth
        res = assert_hat_matches_loop(noisy_ha, gt.myocardium_mask)
        assert np.isfinite(res.ray_slopes).all()

    def test_coarse_step_fewer_rays(self, truth, noisy_ha, monkeypatch):
        cfg, gt = truth
        monkeypatch.setattr(dti, "N_RAYS", 16)
        monkeypatch.setattr(dti, "RAY_STEP", 0.25)
        res = assert_hat_matches_loop(noisy_ha, gt.myocardium_mask)
        assert res.ray_slopes.shape == (cfg.grid[2], 16)

    def test_partly_covered_ray_falls_back(self):
        # a one-voxel bar below the ray: a block over rows 1-8 puts the
        # centroid at y = 4 + 4/13, so every wall sample has weight on the
        # unmasked row y=5, and only the fallback branch can fit ray 0
        nx, ny = 32, 9
        mask = bar_mask(block_rows=slice(1, 9))
        cx, cy = dti.mask_centroids(mask)[0]
        assert 4.3 < cy < 4.31
        ha = np.full((nx, ny, 1), np.nan)
        ha[9:24, 4, 0] = 10.0 - 0.9 * np.arange(9, 24)
        res = assert_hat_matches_loop(ha, mask)
        x0 = np.arange(0.0, np.hypot(nx, ny), 0.1) + cx
        cov = dti._masked_bilinear(ha[:, :, 0], mask[:, :, 0], x0[x0 <= nx - 1],
                                   np.full((x0 <= nx - 1).sum(), cy))[1]
        assert (cov < 1.0 - 1e-9).all()
        assert np.isfinite(res.ray_slopes[0, 0])

    def test_two_finite_samples_skip_the_ray(self, monkeypatch):
        # HA is finite only at x=11, so at step 0.9 from the centroid
        # (7.25, 4) two samples of ray 0 (x=10.85, 11.75) carry a value:
        # too few for a fit
        monkeypatch.setattr(dti, "RAY_STEP", 0.9)
        mask = bar_mask()
        ha = np.full(mask.shape, np.nan)
        ha[11, 4, 0] = 5.0
        res = assert_hat_matches_loop(ha, mask)
        assert np.isnan(res.ray_slopes[0, 0])

    def test_mask_filling_the_image(self):
        # every ray leaves the image inside the wall, and voxel (0, 0) is
        # masked: samples outside the image must not count as hits; the
        # unmasked corner (8, 0) puts the centroid off the lattice
        mask = np.ones((9, 7, 2), bool)
        mask[8, 0] = False
        assert (dti.mask_centroids(mask) % 0.5 != 0).all()
        ha = np.where(mask, np.add.outer(np.arange(9.0), np.arange(7.0))[..., None],
                      np.nan)
        res = assert_hat_matches_loop(ha, mask)
        assert res.n_skipped == 0

    def test_empty_slice_skips_every_ray(self, truth, true_ha):
        cfg, gt = truth
        mask = gt.myocardium_mask.copy()
        mask[:, :, 1] = False
        res = assert_hat_matches_loop(true_ha, mask)
        assert res.n_skipped == 25
        assert np.isnan(res.ray_slopes[1]).all()

    def test_thin_mask(self):
        mask = np.zeros((16, 16, 1), bool)
        mask[10, 8, 0] = True
        res = assert_hat_matches_loop(np.where(mask, 1.0, np.nan), mask)
        assert res.n_skipped == 25


class TestAha16:
    def test_six_slices_two_per_band(self):
        mask = np.ones((8, 8, 6), bool)
        seg = dti.segment_aha16(mask)
        assert seg.band_of_slice == ("basal",) * 2 + ("mid",) * 2 + ("apical",) * 2

    def test_extra_slices_assigned_basal_first(self):
        mask = np.ones((8, 8, 7), bool)
        seg = dti.segment_aha16(mask)
        assert seg.band_of_slice.count("basal") == 3
        assert seg.band_of_slice.count("mid") == 2
        assert seg.band_of_slice.count("apical") == 2

    def test_first_sector_membership(self):
        mask = np.ones((9, 9, 3), bool)
        seg = dti.segment_aha16(mask)
        # voxel at +30 degrees (basal slice 0): x=4+2, y=4+2*tan(30)
        x, y = 6, 4 + int(round(2 * np.tan(np.radians(30))))
        assert seg.segments[x, y, 0] == 1

    def test_segment_range_and_bands(self):
        mask = np.ones((9, 9, 3), bool)
        seg = dti.segment_aha16(mask)
        assert set(np.unique(seg.segments[:, :, 0])) <= set(range(1, 7))
        assert set(np.unique(seg.segments[:, :, 1])) <= set(range(7, 13))
        assert set(np.unique(seg.segments[:, :, 2])) <= set(range(13, 17))

    def test_annulus_population_balance(self, truth):
        cfg, gt = truth
        seg = dti.segment_aha16(gt.myocardium_mask)
        # basal band: compare 60-degree sector populations
        basal = [z for z, b in enumerate(seg.band_of_slice) if b == "basal"]
        counts = [int(sum((seg.segments[:, :, z] == s).sum() for z in basal))
                  for s in range(1, 7)]
        assert max(counts) - min(counts) <= 0.05 * np.mean(counts) + 1

    def test_too_few_slices(self):
        with pytest.raises(ValidationError, match="3 slices"):
            dti.segment_aha16(np.ones((4, 4, 2), bool))

    def test_empty_band_rejected(self):
        mask = np.zeros((6, 6, 3), bool)
        mask[2, 2, 0] = True   # only the basal band has voxels
        with pytest.raises(ValidationError, match="band"):
            dti.segment_aha16(mask)

    def test_regional_means(self):
        mask = np.ones((9, 9, 3), bool)
        seg = dti.segment_aha16(mask)
        vals = np.where(mask, 2.5, np.nan)
        means = dti.regional_means(vals, seg)
        present = ~np.isnan(means)
        assert present.sum() >= 14
        np.testing.assert_allclose(means[present], 2.5)

    def test_regional_hat_matches_explicit_sector_loop(self, truth, true_ha):
        cfg, gt = truth
        seg = dti.segment_aha16(gt.myocardium_mask)
        hat = dti.compute_hat(true_ha, gt.myocardium_mask)
        slopes = np.arange(hat.ray_slopes.size, dtype=float).reshape(
            hat.ray_slopes.shape)
        slopes[0, 3] = np.nan
        hat = dti.HatResult(slopes, hat.ray_r2, hat.global_hat, hat.ray_angles,
                            hat.n_skipped)
        expected = {}
        for z, band in enumerate(seg.band_of_slice):
            width, first = (90.0, 13) if band == "apical" else \
                (60.0, 1 if band == "basal" else 7)
            for j, theta in enumerate(hat.ray_angles):
                if np.isfinite(slopes[z, j]):
                    rel = np.degrees(theta) % 360.0
                    s = first + min(int(rel // width), int(360 / width) - 1)
                    expected.setdefault(s, []).append(slopes[z, j])
        got = dti.regional_hat(hat, seg)
        for s in range(1, 17):
            want = np.mean(expected[s]) if s in expected else np.nan
            np.testing.assert_allclose(got[s - 1], want, rtol=1e-15)


class TestTensorContainer:
    def test_round_trip(self, fitted, tmp_path):
        dti.save_tensors(tmp_path / "t", fitted)
        back = dti.load_tensors(tmp_path / "t")
        np.testing.assert_array_equal(back.mask, fitted.mask)
        np.testing.assert_array_equal(back.evals, fitted.evals)
        np.testing.assert_array_equal(back.e1, fitted.e1)
        assert back.n_clamped == fitted.n_clamped
